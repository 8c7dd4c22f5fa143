//! Fault injection and recovery: the adversarial scenario gates.
//!
//! **Single-node recovery.** A 16-SPE serving loop carries 24 chain
//! applications; the SPE holding the most seats dies, so the fault
//! always evacuates something. The recovery replan (carry-over repair
//! around the dead PE, shed-and-queue for whatever no longer fits) must
//! bring the aggregate guaranteed rate back to ≥ 90 % of its pre-fault
//! value within a bounded number of subsequent events, and the §3.2
//! verifier must hold on every intermediate incumbent.
//!
//! **Adversarial fleet scenario.** The `sim::scenario` engine composes
//! bursty arrivals with retire/reweight churn and an impairment
//! schedule — an SPE outage, a whole-node crash and return, a cost
//! drift — into one trace, held to its committed serialization
//! (`tests/data/faults_scenario.json`); the deserialized copy is
//! replayed against a 4-node fleet. After the storm: zero
//! capacity-invariant violations anywhere, and every application the
//! faults displaced is either serving again or visible in the
//! coordinator's stranded ledger — never silently dropped.
//!
//! Both reconcile their flight recorders against the measured run: the
//! recovery's flight shed total equals the `ServeReport`'s shed count,
//! and the fleet flight log's migration-byte sum is *bitwise* equal to
//! the replay's `total_migration_bytes` (same f64 expression, same
//! order), with the final entry's stranded count matching the ledger.

use cellstream::daggen::{chain, CostParams};
use cellstream::prelude::*;
use cellstream::sim::online::{replay, EventTrace};
use cellstream::sim::scenario::{Arrivals, Impairment, Scenario};

/// Events the single-node recovery may consume before the rate gate.
const RECOVERY_EVENT_BOUND: usize = 16;
const NODES: usize = 4;
const HORIZON: f64 = 1.0;
/// Instances credited over the replayed storm.
const INSTANCES: u64 = 200;
/// [`adversarial_trace`]`(20100406)`, serialized.
const GOLDEN_TRACE: &str = include_str!("data/faults_scenario.json");

/// Aggregate guaranteed rate `Σ_i w_i / T` (instances per second).
fn agg_rate(svc: &Service) -> f64 {
    svc.app_reports().iter().map(|r| r.throughput).sum()
}

/// Every incumbent mapping passes the §3.2 verifier.
fn assert_feasible(svc: &Service, ctx: &str) {
    if let (Some(w), Some(m)) = (svc.workload(), svc.mapping()) {
        let r = evaluate(w.graph(), svc.spec(), m).expect("valid incumbent");
        assert!(r.is_feasible(), "capacity violated {ctx}: {:?}", r.violations);
    }
}

/// The fault bit (it evacuated seats), and the guaranteed rate is back
/// at ≥ 90 % of its pre-fault value before the event bound runs out.
fn recovery(
    evacuated_seats: usize,
    pre_rate: f64,
    recovered_rate: f64,
    events_to_recover: usize,
    event_bound: usize,
) -> Result<(), String> {
    if evacuated_seats == 0 {
        return Err("GATE: the failed SPE carried no seat, the recovery was never exercised".into());
    }
    // a NaN rate compares false, so it refuses
    let recovered = recovered_rate >= 0.9 * pre_rate;
    if !recovered {
        return Err(format!(
            "GATE: rate recovered to {recovered_rate:.0}/s, below 90% of pre-fault \
             {pre_rate:.0}/s within {event_bound} events"
        ));
    }
    if events_to_recover >= event_bound {
        return Err("GATE: recovery needed the whole event bound".into());
    }
    Ok(())
}

#[test]
fn a_failed_spe_recovers_90_percent_of_the_rate() {
    // a dual-Cell blade (16 SPEs): one SPE is 1/16 of the vector
    // capacity, so a single failure leaves ≥ 90 % of the guaranteed
    // rate reachable — on a single qs22 Cell the fault removes 1/8 of
    // the bottleneck class and no replan can win the gate back
    let spec = CellSpec::with_spes(16);
    let opts = ServiceOptions { queue_rejected: true, ..Default::default() };
    let mut svc = Service::with_options(spec.clone(), opts);
    let costs = CostParams::default();
    // under 10 apps the SPEs have slack, the evacuated seats re-seat at
    // an unchanged period and the rate gate cannot fail
    for i in 0..24 {
        let g = chain(&format!("app{i:02}"), 2 + i % 4, &costs, 4200 + i as u64);
        svc.admit(&g, 1.0 + (i % 3) as f64);
    }
    assert!(svc.n_apps() > 0, "the population admits");
    let pre_rate = agg_rate(&svc);
    assert_feasible(&svc, "before the fault");

    let seats = svc.mapping().expect("a placed population has an incumbent");
    let spe = spec.spes().max_by_key(|&pe| seats.count_on(pe)).expect("the platform has SPEs");
    let report = svc.fail_pe(spe).expect("a failing SPE is absorbed, not an error");
    let (evacuated_seats, shed) =
        report.recovery.as_ref().map_or((0, 0), |r| (r.evacuated_seats, r.shed.len()));
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
    let recovered_rate = agg_rate(&svc);
    eprintln!(
        "{evacuated_seats} seat(s) evacuated, {shed} shed, rate {:.1}% of pre-fault after \
         {events_to_recover} event(s)",
        100.0 * recovered_rate / pre_rate
    );
    recovery(evacuated_seats, pre_rate, recovered_rate, events_to_recover, RECOVERY_EVENT_BOUND)
        .unwrap_or_else(|refusal| panic!("{refusal}"));

    // the drained flight log tells the story the ServeReports told
    let flights = svc.metrics().recorder.drain();
    let flight_shed: u64 = flights.iter().map(|f| u64::from(f.shed)).sum();
    assert_eq!(flight_shed, shed as u64, "recovery flight log shed total vs ServeReport");
    let flight_faults = flights.iter().filter(|f| f.kind == "pe failed").count();
    assert_eq!(flight_faults, 1, "the recovery flight log shows exactly one fault");
}

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

#[test]
fn the_adversarial_storm_ends_feasible_and_reconciled() {
    let json = serde_json::to_string(&adversarial_trace(20100406)).expect("traces serialize");
    assert!(json == GOLDEN_TRACE, "the storm trace no longer serializes to its committed golden");
    let trace: EventTrace = serde_json::from_str(GOLDEN_TRACE).expect("traces deserialize");
    let faults = trace.events().iter().filter(|e| e.event.is_fault()).count();
    assert!(faults >= 5, "the scenario injected {faults} < 5 fault events");

    let mut fleet = Cluster::homogeneous(NODES, &CellSpec::qs22(), ClusterOptions::default());
    let report = replay(&mut fleet, &trace, INSTANCES);
    for a in fleet.agents() {
        assert_feasible(a.service(), &format!("on {} after the storm", a.node()));
    }
    let status = fleet.status();
    assert!(status.dead.is_empty(), "the crashed node never returned");

    // the fleet's black box: one entry per coordinator operation, its
    // migration-byte field computed by the same f64 expression the
    // replay's EventOutcome carries — the sums must be bitwise equal
    assert_eq!(fleet.metrics().recorder.dropped(), 0, "the fleet flight recorder overflowed");
    let flights = fleet.metrics().recorder.drain();
    let flight_shed: u64 = flights.iter().map(|f| u64::from(f.shed)).sum();
    let flight_migration_bytes: f64 = flights.iter().map(|f| f.migration_bytes).sum();
    let flight_stranded = flights.last().map_or(0, |f| f.stranded);
    eprintln!(
        "{} events ({faults} faults), {} applied, {} flight entries, {flight_shed} shed, \
         {flight_migration_bytes:.0} migration bytes",
        trace.len(),
        report.events.iter().filter(|e| e.applied).count(),
        flights.len(),
    );
    assert_eq!(
        flight_stranded,
        status.stranded.len() as u32,
        "final flight entry vs the coordinator's stranded ledger"
    );
    assert!(
        flight_migration_bytes.to_bits() == report.total_migration_bytes.to_bits(),
        "flight migration bytes {flight_migration_bytes} != replayed total {} (must be bitwise \
         equal)",
        report.total_migration_bytes,
    );
    assert!(
        flight_shed >= status.stranded.len() as u64,
        "{} ledger entries but the flight log only saw {flight_shed} shed",
        status.stranded.len(),
    );
}

#[test]
fn recovery_refuses_a_vacuous_a_slow_a_late_and_a_nan_run() {
    assert_eq!(recovery(3, 100.0, 90.0, 15, 16), Ok(()));
    let vacuous = recovery(0, 100.0, 100.0, 0, 16).unwrap_err();
    assert!(vacuous.contains("carried no seat"), "{vacuous}");
    let slow = recovery(3, 100.0, 89.0, 15, 16).unwrap_err();
    assert!(slow.contains("89/s, below 90% of pre-fault 100/s"), "{slow}");
    let late = recovery(3, 100.0, 95.0, 16, 16).unwrap_err();
    assert!(late.contains("whole event bound"), "{late}");
    assert!(recovery(3, 100.0, f64::NAN, 0, 16).is_err());
}
