//! Fleet serving under churn: the cluster tier's count gates.
//!
//! A seeded churn trace — 64 concurrent chain applications with skewed
//! sizes and weights, a reweight wave, then a retire/replace wave — is
//! generated, held to its committed serialization
//! (`tests/data/cluster_churn.json`), and the deserialized copy is
//! replayed against a fresh 8-node [`Cluster`] per placement policy.
//! Delivered instances are credited per application cluster-wide by
//! `sim::online::replay`. Gates (counts and model periods, no clock):
//!
//! * the load/affinity scoring placer delivers at least as many
//!   instances as round-robin and as random placement;
//! * a drain of the scoring fleet's busiest node re-places every
//!   resident, prices every move by the network model and leaves every
//!   incumbent feasible;
//! * a 16-event churn burst lands whole through per-node batches;
//! * the merged fleet snapshot's placed gauge tracks the routing table.
//!
//! The surviving fleet's snapshot is written as `FLEET_SNAPSHOT.prom` /
//! `FLEET_SNAPSHOT.json` under cargo's target `tmp/` directory.

use cellstream::cluster::{policy_by_name, ClusterVerdict};
use cellstream::daggen::{chain, CostParams};
use cellstream::prelude::*;
use cellstream::sim::online::{replay, EventTrace, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 8;
const APPS: usize = 64;
const HORIZON: f64 = 1.0;
/// Instances credited per replayed policy.
const INSTANCES: u64 = 200;
/// [`churn_trace`]`(20100406)`, serialized.
const GOLDEN_TRACE: &str = include_str!("data/cluster_churn.json");

/// The churn trace: `APPS` arrivals with skewed sizes/weights, a
/// reweight wave over ~30% of them, then a retire-and-replace wave over
/// ~20%. Fully determined by the seed.
fn churn_trace(seed: u64) -> EventTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = EventTrace::new(HORIZON);
    let costs = CostParams::default();
    let mut names: Vec<String> = Vec::new();

    // arrival wave: sizes 2..=6 tasks, weights skewed low (many light
    // apps, a few heavy ones) — the skew is what separates a
    // load-aware placer from count-balancing baselines
    for i in 0..APPS {
        let name = format!("app{i:03}");
        let n = rng.gen_range(2..=6usize);
        let weight = (rng.gen_range(1..=6u32) as f64).powf(1.5);
        let at = 0.3 * i as f64 / APPS as f64;
        trace.push(
            at,
            TraceEvent::Admit { graph: chain(&name, n, &costs, seed ^ i as u64), weight },
        );
        names.push(name);
    }

    // reweight wave (~30%)
    for k in 0..APPS * 3 / 10 {
        let app = names[rng.gen_range(0..names.len())].clone();
        let weight = (rng.gen_range(1..=6u32) as f64).powf(1.5);
        trace.push(0.35 + 0.2 * k as f64 / APPS as f64, TraceEvent::Reweight { app, weight });
    }

    // retire-and-replace wave (~20%)
    for k in 0..APPS / 5 {
        let gone = names.swap_remove(rng.gen_range(0..names.len()));
        let at = 0.65 + 0.25 * k as f64 / APPS as f64;
        trace.push(at, TraceEvent::Retire { app: gone });
        let name = format!("fresh{k:02}");
        let n = rng.gen_range(2..=6usize);
        let weight = (rng.gen_range(1..=6u32) as f64).powf(1.5);
        trace.push(
            at + 0.002,
            TraceEvent::Admit { graph: chain(&name, n, &costs, seed ^ (1000 + k as u64)), weight },
        );
        names.push(name);
    }
    trace
}

/// Replay `trace` on a fresh fleet placed by `policy`; returns the
/// delivered instances and the fleet.
fn run_policy(policy: &str, trace: &EventTrace) -> (f64, Cluster) {
    let opts = ClusterOptions {
        policy: policy_by_name(policy, None, 42).expect("known policy"),
        ..ClusterOptions::default()
    };
    let mut fleet = Cluster::homogeneous(NODES, &CellSpec::qs22(), opts);
    let report = replay(&mut fleet, trace, INSTANCES);
    eprintln!(
        "{policy:<14} {:>10.0} instances, {} rejected, period {:.3} us",
        report.total_instances(),
        report.rejected,
        fleet.max_period() * 1e6
    );
    (report.total_instances(), fleet)
}

/// Every incumbent in the fleet passes the §3.2 verifier.
fn assert_fleet_feasible(fleet: &Cluster, ctx: &str) {
    for a in fleet.agents() {
        let s = a.service();
        if let (Some(w), Some(m)) = (s.workload(), s.mapping()) {
            let r = evaluate(w.graph(), s.spec(), m).expect("valid incumbent");
            assert!(r.is_feasible(), "{ctx} violated capacity on {}: {:?}", a.node(), r.violations);
        }
    }
}

/// The scoring placer delivers at least as many instances as every
/// `(name, instances)` baseline.
fn placer_ordering(scoring: f64, baselines: &[(&str, f64)]) -> Result<(), String> {
    let loses = |delivered: f64| scoring < delivered || scoring.is_nan() || delivered.is_nan();
    match baselines.iter().find(|&&(_, delivered)| loses(delivered)) {
        None => Ok(()),
        Some((name, delivered)) => {
            Err(format!("GATE: scoring placer delivered {scoring:.0} < {name} {delivered:.0}"))
        }
    }
}

/// A drain re-places every resident application.
fn drain_strands_nothing(stranded: usize) -> Result<(), String> {
    if stranded == 0 {
        Ok(())
    } else {
        Err(format!("GATE: drain stranded {stranded} apps"))
    }
}

/// Evacuate the busiest node and check the maintenance invariants.
fn drain_busiest(fleet: &mut Cluster) {
    let status = fleet.status();
    let victim = status.nodes.iter().max_by_key(|s| s.n_apps).expect("fleet has nodes").node;
    let resident = status.nodes[victim.index()].n_apps;
    let report = fleet.drain(victim).expect("victim is a real node");
    let ClusterVerdict::Drained { moved, stranded } = report.verdict else {
        panic!("drain reported {:?}", report.verdict)
    };
    eprintln!("drain: {moved} moved, {stranded} stranded");
    assert_eq!(moved + stranded, resident, "every resident app accounted for");
    drain_strands_nothing(stranded).unwrap_or_else(|refusal| panic!("{refusal}"));

    let net = NetworkModel::default();
    for m in &report.migrations {
        assert_eq!(m.from, victim);
        let expect = net.transfer_time(m.bytes);
        assert!(
            (m.seconds - expect).abs() < 1e-12,
            "migration of {} not network-priced: {} vs {}",
            m.app,
            m.seconds,
            expect
        );
    }
    assert_fleet_feasible(fleet, "the drain");
    assert_eq!(fleet.status().nodes[victim.index()].n_apps, 0, "the drained node is empty");
}

/// Route one churn burst through per-node batches
/// (`Cluster::process_burst` → `Agent::apply_batch` →
/// `Service::process_batch` on each node): retire six residents, admit
/// six replacements, reweight four survivors, all in one coordinator
/// call.
fn burst(fleet: &mut Cluster) {
    let resident: Vec<String> = fleet
        .status()
        .nodes
        .iter()
        .flat_map(|n| n.apps.iter().map(|(name, _)| name.clone()))
        .collect();
    assert!(resident.len() >= 12, "the churned fleet keeps dozens of residents");
    let costs = CostParams::default();
    let mut burst: Vec<TraceEvent> = Vec::new();
    for app in &resident[..6] {
        burst.push(TraceEvent::Retire { app: app.clone() });
    }
    for k in 0..6 {
        burst.push(TraceEvent::Admit {
            graph: chain(&format!("burst{k:02}"), 3, &costs, 7000 + k as u64),
            weight: 2.0,
        });
    }
    for (k, app) in resident[6..10].iter().enumerate() {
        burst.push(TraceEvent::Reweight { app: app.clone(), weight: 1.0 + k as f64 });
    }

    let before = fleet.n_apps();
    let report = fleet.process_burst(&burst);
    eprintln!(
        "burst: {}/{} applied in {} node batches",
        report.applied(),
        burst.len(),
        report.batches
    );
    assert_eq!(report.applied(), burst.len(), "every burst event lands: {:?}", report.events);
    assert_eq!(fleet.n_apps(), before, "6 retired, 6 admitted");
    assert_fleet_feasible(fleet, "the burst");
}

#[test]
fn the_scoring_placer_wins_and_the_fleet_survives_maintenance() {
    let json = serde_json::to_string(&churn_trace(20100406)).expect("traces serialize");
    assert!(json == GOLDEN_TRACE, "the churn trace no longer serializes to its committed golden");
    let trace: EventTrace = serde_json::from_str(GOLDEN_TRACE).expect("traces deserialize");

    let (scoring, mut fleet) = run_policy("load_affinity", &trace);
    let (rr, _) = run_policy("round_robin", &trace);
    let (rnd, _) = run_policy("random", &trace);
    placer_ordering(scoring, &[("round-robin", rr), ("random", rnd)])
        .unwrap_or_else(|refusal| panic!("{refusal}"));

    drain_busiest(&mut fleet);
    burst(&mut fleet);

    let snap = fleet.snapshot();
    assert_eq!(
        snap.gauge("cellstream_cluster_placed"),
        Some(fleet.n_apps() as f64),
        "snapshot placed gauge tracks the routing table"
    );
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(dir.join("FLEET_SNAPSHOT.prom"), snap.to_prometheus()).expect("write snapshot");
    std::fs::write(dir.join("FLEET_SNAPSHOT.json"), snap.to_json()).expect("write snapshot");
}

#[test]
fn placer_ordering_refuses_a_baseline_that_wins_or_a_nan() {
    assert_eq!(placer_ordering(10.0, &[("round-robin", 10.0), ("random", 9.0)]), Ok(()));
    let refusal = placer_ordering(10.0, &[("round-robin", 9.0), ("random", 11.0)]).unwrap_err();
    assert!(refusal.contains("delivered 10 < random 11"), "{refusal}");
    assert!(placer_ordering(f64::NAN, &[("round-robin", 9.0)]).is_err());
}

#[test]
fn drain_refuses_a_stranded_app() {
    assert_eq!(drain_strands_nothing(0), Ok(()));
    let refusal = drain_strands_nothing(2).unwrap_err();
    assert!(refusal.contains("stranded 2 apps"), "{refusal}");
}
