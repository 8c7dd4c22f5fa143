//! Fault injection and recovery: the adversarial scenario gate
//! (ISSUE 9).
//!
//! Two demos, both CI-gated:
//!
//! **Single-node recovery.** A 16-SPE serving loop carries a population
//! of chain applications; the SPE holding the most seats dies (so the
//! fault always evacuates something). The recovery replan
//! (carry-over repair around the dead PE, shed-and-queue for whatever
//! no longer fits) must bring the aggregate guaranteed rate back to
//! ≥ 90 % of its pre-fault value within a bounded number of
//! subsequent events, and the §3.2 verifier must hold on every
//! intermediate incumbent.
//!
//! **Adversarial fleet scenario.** The `sim::scenario` engine composes
//! bursty arrivals with retire/reweight churn and an impairment
//! schedule — an SPE outage, a whole-node crash and return, a cost
//! drift — into one trace, persists it as JSON under
//! `crates/bench/traces/` (the round trip is load-bearing), and
//! replays it against a fleet. After the storm: zero
//! capacity-invariant violations anywhere, and every application the
//! faults displaced is either serving again or visible in the
//! coordinator's stranded ledger — never silently dropped.
//!
//! Both demos also drain their flight recorders and reconcile the
//! black box against the independently-measured run: the single-node
//! recovery's flight shed total must equal the `ServeReport`'s shed
//! count exactly, and the fleet flight log's migration-byte sum must be
//! *bitwise* equal to the replayed scenario's
//! `total_migration_bytes` (same f64 expression, same order), with the
//! final flight entry's stranded count matching the coordinator's
//! ledger. The matched totals land in the JSON alongside the run.
//!
//! Emits `crates/bench/results/BENCH_faults.json`.

use cellstream_bench::{gates, quick_mode, write_results};
use cellstream_cluster::{Cluster, ClusterOptions};
use cellstream_daggen::{chain, CostParams};
use cellstream_platform::CellSpec;
use cellstream_serve::{Event, Service, ServiceOptions};
use cellstream_sim::online::{replay, EventTrace};
use cellstream_sim::scenario::{Arrivals, Impairment, Scenario};
use std::path::{Path, PathBuf};

/// Events the single-node recovery may consume before the rate gate.
const RECOVERY_EVENT_BOUND: usize = 16;

/// Aggregate guaranteed rate `Σ_i w_i / T` (instances per second).
fn agg_rate(svc: &Service) -> f64 {
    svc.app_reports().iter().map(|r| r.throughput).sum()
}

/// Every incumbent mapping passes the §3.2 verifier.
fn assert_feasible(svc: &Service, ctx: &str) {
    if let (Some(w), Some(m)) = (svc.workload(), svc.mapping()) {
        let r = cellstream_core::evaluate(w.graph(), svc.spec(), m).expect("valid incumbent");
        assert!(r.is_feasible(), "GATE: capacity violated {ctx}: {:?}", r.violations);
    }
}

struct RecoveryRun {
    apps: usize,
    pre_rate: f64,
    post_fault_rate: f64,
    recovered_rate: f64,
    /// Seats the fault stranded on the failed SPE (`RecoveryReport`).
    evacuated_seats: usize,
    shed: usize,
    events_to_recover: usize,
    /// Flight-recorder reconciliation: entries drained, shed total
    /// summed from the log, recoveries seen in the log.
    flight_events: usize,
    flight_shed: u64,
    flight_recoveries: usize,
}

/// Kill the busiest SPE under a serving population and measure how
/// fast the recovery replan restores the aggregate guaranteed rate.
fn recovery_demo() -> RecoveryRun {
    // a dual-Cell blade (16 SPEs): one SPE is 1/16 of the vector
    // capacity, so a single failure leaves ≥ 90 % of the guaranteed
    // rate reachable — on a single qs22 Cell the fault removes 1/8 of
    // the bottleneck class and no replan can win the gate back
    let spec = CellSpec::with_spes(16);
    let opts = ServiceOptions { queue_rejected: true, ..Default::default() };
    let mut svc = Service::with_options(spec.clone(), opts);
    let costs = CostParams::default();
    // 24 apps in both modes: under 10 the SPEs have slack, the evacuated
    // seats re-seat at an unchanged period and the rate gate cannot fail
    for i in 0..24 {
        let g = chain(&format!("app{i:02}"), 2 + i % 4, &costs, 4200 + i as u64);
        svc.admit(&g, 1.0 + (i % 3) as f64);
    }
    let placed = svc.n_apps();
    assert!(placed > 0, "the population admits");
    let pre_rate = agg_rate(&svc);
    assert_feasible(&svc, "before the fault");

    let seats = svc.mapping().expect("a placed population has an incumbent");
    let spe = spec.spes().max_by_key(|&pe| seats.count_on(pe)).expect("the platform has SPEs");
    let report = svc.fail_pe(spe).expect("a failing SPE is absorbed, not an error");
    let (evacuated_seats, shed) =
        report.recovery.as_ref().map_or((0, 0), |r| (r.evacuated_seats, r.shed.len()));
    let post_fault_rate = agg_rate(&svc);
    assert_feasible(&svc, "right after the fault");

    // bounded recovery: benign churn events rotate the retry queue
    // until the rate is back (or the bound runs out)
    let mut events_to_recover = RECOVERY_EVENT_BOUND;
    for k in 0..RECOVERY_EVENT_BOUND {
        if agg_rate(&svc) >= 0.9 * pre_rate {
            events_to_recover = k;
            break;
        }
        let r = svc.app_reports();
        let first = r.first().expect("population survives the fault");
        let h = svc.handle_of(&first.app).expect("report names are live");
        svc.process(Event::Reweight(h, first.weight)).expect("benign reweight");
        assert_feasible(&svc, "during recovery churn");
    }
    // reconcile the black box against the measured run: the drained
    // flight log must tell the same story the ServeReports told
    let flights = svc.metrics().recorder.drain();
    let flight_shed: u64 = flights.iter().map(|f| u64::from(f.shed)).sum();
    let flight_recoveries = flights.iter().filter(|f| f.kind == "pe failed").count();
    RecoveryRun {
        apps: placed,
        pre_rate,
        post_fault_rate,
        recovered_rate: agg_rate(&svc),
        evacuated_seats,
        shed,
        events_to_recover,
        flight_events: flights.len(),
        flight_shed,
        flight_recoveries,
    }
}

const NODES: usize = 4;
const HORIZON: f64 = 1.0;

/// The adversarial trace: bursty arrivals, churn, an SPE outage, a
/// node crash-and-return, and a cost drift, all from one seed.
fn adversarial_trace(seed: u64) -> EventTrace {
    let costs = CostParams::default();
    let spe = CellSpec::qs22().pe(CellSpec::qs22().n_ppe());
    Scenario::new(HORIZON)
        .seed(seed)
        .arrivals(Arrivals::Bursty { rate: 24.0, burst: 3 })
        .template(chain("ingest", 3, &costs, 1), 2.0)
        .template(chain("filter", 4, &costs, 2), 1.0)
        .template(chain("mix", 2, &costs, 3), 3.0)
        .retire_fraction(0.2)
        .reweight_fraction(0.2)
        .impair(Impairment::PeOutage { node: 0, pe: spe, at: 0.30, outage: 0.40 })
        .impair(Impairment::NodeOutage { node: 1, at: 0.45, outage: 0.30 })
        .impair(Impairment::Drift { at: 0.60, factor: 2.5 })
        .build()
}

/// Persist the trace as JSON under `crates/bench/traces/` and read it
/// back — the replayed trace is the deserialized one, so the fault
/// variants' round trip is load-bearing, not decorative.
fn persist_and_reload(trace: &EventTrace) -> EventTrace {
    let json = serde_json::to_string(trace).expect("traces serialize");
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).expect("create traces dir");
    let path: PathBuf = dir.join("faults_scenario.json");
    std::fs::write(&path, &json).expect("write trace");
    eprintln!("wrote {}", path.display());
    let back: EventTrace = serde_json::from_str(&json).expect("traces deserialize");
    assert_eq!(back.events().len(), trace.events().len(), "round trip is lossless");
    back
}

struct ScenarioRun {
    events: usize,
    faults: usize,
    applied: usize,
    instances: f64,
    serving: usize,
    stranded: usize,
    dead: usize,
    /// The replay engine's migration-byte total (EventOutcome sums).
    migration_bytes: f64,
    /// Flight-recorder reconciliation against the above.
    flight_events: usize,
    flight_dropped: u64,
    flight_shed: u64,
    flight_stranded_final: u32,
    flight_migration_bytes: f64,
}

/// Replay the adversarial trace against a fleet and audit the wreckage.
fn scenario_demo(trace: &EventTrace, instances: u64) -> ScenarioRun {
    let mut fleet = Cluster::homogeneous(NODES, &CellSpec::qs22(), ClusterOptions::default());
    let report = replay(&mut fleet, trace, instances);

    // zero capacity-invariant violations anywhere in the fleet
    for a in fleet.agents() {
        let s = a.service();
        if let (Some(w), Some(m)) = (s.workload(), s.mapping()) {
            let r = cellstream_core::evaluate(w.graph(), s.spec(), m).expect("valid incumbent");
            assert!(
                r.is_feasible(),
                "GATE: capacity violated on {} after the storm: {:?}",
                a.node(),
                r.violations
            );
        }
    }
    let status = fleet.status();

    // drain the fleet's black box: one entry per coordinator operation,
    // its migration-byte field computed by the same f64 expression the
    // replay's EventOutcome carries — the sums must be bitwise equal
    let dropped = fleet.metrics().recorder.dropped();
    let flights = fleet.metrics().recorder.drain();
    let flight_shed: u64 = flights.iter().map(|f| u64::from(f.shed)).sum();
    let flight_migration_bytes: f64 = flights.iter().map(|f| f.migration_bytes).sum();
    let flight_stranded_final = flights.last().map_or(0, |f| f.stranded);
    ScenarioRun {
        events: trace.len(),
        faults: trace.events().iter().filter(|e| e.event.is_fault()).count(),
        applied: report.events.iter().filter(|e| e.applied).count(),
        instances: report.total_instances(),
        serving: fleet.n_apps(),
        stranded: status.stranded.len(),
        dead: status.dead.len(),
        migration_bytes: report.total_migration_bytes,
        flight_events: flights.len(),
        flight_dropped: dropped,
        flight_shed,
        flight_stranded_final,
        flight_migration_bytes,
    }
}

fn main() {
    let instances = if quick_mode() { 200 } else { 2_000 };

    let rec = recovery_demo();
    println!(
        "recovery demo: {} apps, {} seat(s) evacuated, rate {:.0}/s -> {:.0}/s at the fault -> \
         {:.0}/s after {} event(s), {} shed",
        rec.apps,
        rec.evacuated_seats,
        rec.pre_rate,
        rec.post_fault_rate,
        rec.recovered_rate,
        rec.events_to_recover,
        rec.shed,
    );

    let trace = persist_and_reload(&adversarial_trace(20100406));
    let run = scenario_demo(&trace, instances);
    println!(
        "scenario demo: {} events ({} faults) over {NODES} nodes, {} applied, {:.0} instances \
         delivered; end state: {} serving, {} stranded, {} dead node(s)",
        run.events, run.faults, run.applied, run.instances, run.serving, run.stranded, run.dead,
    );
    println!(
        "flight log: {} entries ({} dropped), {} shed, {} stranded at close, {:.0} migration \
         bytes",
        run.flight_events,
        run.flight_dropped,
        run.flight_shed,
        run.flight_stranded_final,
        run.flight_migration_bytes,
    );

    // ---- JSON -------------------------------------------------------------
    let json = format!(
        "{{\n  \"bench\": \"faults\",\n  \"spec\": \"qs22\",\n  \"quick\": {},\n  \
         \"recovery\": {{\"apps\": {}, \"pre_rate\": {:.1}, \"post_fault_rate\": {:.1}, \
         \"recovered_rate\": {:.1}, \"recovery_ratio\": {:.4}, \"evacuated_seats\": {}, \
         \"shed\": {}, \
         \"events_to_recover\": {}, \"event_bound\": {RECOVERY_EVENT_BOUND}, \
         \"flight_events\": {}, \"flight_shed\": {}, \"flight_recoveries\": {}}},\n  \
         \"scenario\": {{\"nodes\": {NODES}, \"events\": {}, \"faults\": {}, \"applied\": {}, \
         \"instances\": {:.0}, \"serving\": {}, \"stranded\": {}, \"dead_nodes\": {}, \
         \"migration_bytes\": {:.1}, \"capacity_violations\": 0}},\n  \
         \"flight\": {{\"events\": {}, \"dropped\": {}, \"shed\": {}, \"stranded\": {}, \
         \"migration_bytes\": {:.1}}}\n}}\n",
        quick_mode(),
        rec.apps,
        rec.pre_rate,
        rec.post_fault_rate,
        rec.recovered_rate,
        rec.recovered_rate / rec.pre_rate,
        rec.evacuated_seats,
        rec.shed,
        rec.events_to_recover,
        rec.flight_events,
        rec.flight_shed,
        rec.flight_recoveries,
        run.events,
        run.faults,
        run.applied,
        run.instances,
        run.serving,
        run.stranded,
        run.dead,
        run.migration_bytes,
        run.flight_events,
        run.flight_dropped,
        run.flight_shed,
        run.flight_stranded_final,
        run.flight_migration_bytes,
    );
    write_results("BENCH_faults.json", &json);

    // ---- CI gates ---------------------------------------------------------
    gates::recovery(
        rec.evacuated_seats,
        rec.pre_rate,
        rec.recovered_rate,
        rec.events_to_recover,
        RECOVERY_EVENT_BOUND,
    )
    .expect("recovery");
    assert!(run.faults >= 5, "GATE: the scenario injected {} < 5 fault events", run.faults);
    assert_eq!(run.dead, 0, "GATE: the crashed node never returned");

    // flight-log reconciliation: the black box and the measured run
    // must agree exactly — a drifting recorder is worse than none
    assert_eq!(
        rec.flight_shed, rec.shed as u64,
        "GATE: recovery flight log summed {} shed, ServeReport said {}",
        rec.flight_shed, rec.shed,
    );
    assert_eq!(rec.flight_recoveries, 1, "GATE: recovery flight log must show exactly one fault");
    assert_eq!(run.flight_dropped, 0, "GATE: the fleet flight recorder overflowed");
    assert_eq!(
        run.flight_stranded_final, run.stranded as u32,
        "GATE: final flight entry says {} stranded, the coordinator ledger says {}",
        run.flight_stranded_final, run.stranded,
    );
    assert!(
        run.flight_migration_bytes.to_bits() == run.migration_bytes.to_bits(),
        "GATE: flight migration bytes {} != replayed scenario total {} (must be bitwise equal)",
        run.flight_migration_bytes,
        run.migration_bytes,
    );
    assert!(
        run.flight_shed >= run.stranded as u64,
        "GATE: {} ledger entries but the flight log only saw {} shed",
        run.stranded,
        run.flight_shed,
    );
    println!(
        "gates passed: {} seat(s) evacuated, recovery {:.1}% >= 90% within {}/{} events; {} \
         faults absorbed with zero capacity violations; all nodes back up; flight log reconciled \
         (shed {}, stranded {}, migration bytes bitwise-equal)",
        rec.evacuated_seats,
        100.0 * rec.recovered_rate / rec.pre_rate,
        rec.events_to_recover,
        RECOVERY_EVENT_BOUND,
        run.faults,
        run.flight_shed,
        run.flight_stranded_final,
    );
}
