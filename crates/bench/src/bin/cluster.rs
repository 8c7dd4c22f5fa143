//! Fleet serving under churn: inter-node placement policies compared on
//! aggregate delivered throughput over a cluster of simulated QS22
//! nodes (ISSUE 6).
//!
//! The bench generates a seeded churn trace — 64 concurrent chain
//! applications with skewed sizes and weights, a reweight wave, then a
//! retire/replace wave — persists it as JSON under
//! `crates/bench/traces/` (round-tripping it through the serializer),
//! and replays it against a fresh [`Cluster`] per placement policy:
//! the load/affinity scoring placer versus round-robin and random
//! baselines. Delivered instances are credited per application
//! cluster-wide by `sim::online::replay`.
//!
//! A drain demo then evacuates the busiest node of the scoring fleet
//! and checks the maintenance story: every resident application moves,
//! every move is priced by the network model, and every surviving
//! incumbent still passes the §3.2 verifier.
//!
//! **Gates** (this binary exits non-zero on violation; CI runs it in
//! quick mode):
//!
//! * scoring placer aggregate throughput ≥ random **and** ≥ round-robin;
//! * drain strands nothing and violates no capacity invariant.
//!
//! What a fleet operation costs is `benchmark/`'s `fleet_churn`.
//!
//! Emits `crates/bench/results/BENCH_cluster.json`, plus the surviving
//! scoring fleet's merged telemetry snapshot as
//! `FLEET_SNAPSHOT.prom`/`FLEET_SNAPSHOT.json` (CI uploads both).

use cellstream_bench::{gates, quick_mode, write_results};
use cellstream_cluster::{policy_by_name, Cluster, ClusterOptions, ClusterVerdict, NetworkModel};
use cellstream_daggen::{chain, CostParams};
use cellstream_platform::CellSpec;
use cellstream_sim::online::{replay, EventTrace, OnlineReport, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

const NODES: usize = 8;
const APPS: usize = 64;
const HORIZON: f64 = 1.0;

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

/// Persist the trace as JSON under `crates/bench/traces/` and read it
/// back — the replayed trace is the deserialized one, so the round
/// trip is load-bearing, not decorative.
fn persist_and_reload(trace: &EventTrace) -> EventTrace {
    let json = serde_json::to_string(trace).expect("traces serialize");
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).expect("create traces dir");
    let path: PathBuf = dir.join("cluster_churn.json");
    std::fs::write(&path, &json).expect("write trace");
    eprintln!("wrote {}", path.display());
    let back: EventTrace = serde_json::from_str(&json).expect("traces deserialize");
    assert_eq!(back.events().len(), trace.events().len(), "round trip is lossless");
    back
}

struct PolicyRun {
    policy: &'static str,
    instances: f64,
    rejected: usize,
    max_period: f64,
    migration_bytes: f64,
}

fn run_policy(policy: &'static str, trace: &EventTrace, instances: u64) -> (PolicyRun, Cluster) {
    let opts = ClusterOptions {
        policy: policy_by_name(policy, None, 42).expect("known policy"),
        ..ClusterOptions::default()
    };
    let mut fleet = Cluster::homogeneous(NODES, &CellSpec::qs22(), opts);
    let report: OnlineReport = replay(&mut fleet, trace, instances);
    (
        PolicyRun {
            policy,
            instances: report.total_instances(),
            rejected: report.rejected,
            max_period: fleet.max_period(),
            migration_bytes: report.total_migration_bytes,
        },
        fleet,
    )
}

/// Evacuate the busiest node and check the maintenance invariants.
/// Returns `(moved, stranded, network_bytes, network_seconds)`.
fn drain_demo(fleet: &mut Cluster) -> (usize, usize, f64, f64) {
    let status = fleet.status();
    let victim = status.nodes.iter().max_by_key(|s| s.n_apps).expect("fleet has nodes").node;
    let resident = status.nodes[victim.index()].n_apps;
    let report = fleet.drain(victim).expect("victim is a real node");
    let ClusterVerdict::Drained { moved, stranded } = report.verdict else {
        panic!("drain reported {:?}", report.verdict)
    };
    assert_eq!(moved + stranded, resident, "every resident app accounted for");

    // every move priced by the network model
    let net = NetworkModel::default();
    for m in &report.migrations {
        assert_eq!(m.from, victim);
        let expect = net.transfer_time(m.from, m.to, m.bytes);
        assert!(
            (m.seconds - expect).abs() < 1e-12,
            "migration of {} not network-priced: {} vs {}",
            m.app,
            m.seconds,
            expect
        );
    }

    // zero capacity-invariant violations anywhere in the fleet
    for a in fleet.agents() {
        let s = a.service();
        if let (Some(w), Some(m)) = (s.workload(), s.mapping()) {
            let r = cellstream_core::evaluate(w.graph(), s.spec(), m).expect("valid incumbent");
            assert!(r.is_feasible(), "capacity violated on {}: {:?}", a.node(), r.violations);
        }
    }
    let empty = fleet.status().nodes[victim.index()].clone();
    assert_eq!(empty.n_apps, 0, "the drained node is empty");
    (moved, stranded, report.network_bytes(), report.network_seconds())
}

/// Route one churn burst through per-node batch messages
/// (`Coordinator::process_burst` → `Service::process_batch` on each
/// agent): retire a handful of residents, admit replacements, reweight
/// survivors — all in one coordinator call. Returns
/// `(events, node_batches, applied)`.
fn burst_demo(fleet: &mut Cluster) -> (usize, usize, usize) {
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
    assert_eq!(report.applied(), burst.len(), "every burst event lands: {:?}", report.events);
    assert_eq!(fleet.n_apps(), before, "6 retired, 6 admitted");
    for a in fleet.agents() {
        let s = a.service();
        if let (Some(w), Some(m)) = (s.workload(), s.mapping()) {
            let r = cellstream_core::evaluate(w.graph(), s.spec(), m).expect("valid incumbent");
            assert!(r.is_feasible(), "burst violated capacity on {}: {:?}", a.node(), r.violations);
        }
    }
    (burst.len(), report.batches, report.applied())
}

fn main() {
    let instances = if quick_mode() { 200 } else { 2_000 };
    let trace = persist_and_reload(&churn_trace(20100406));
    println!(
        "churn trace: {} events, {} concurrent apps, {} qs22 nodes, horizon {HORIZON} s",
        trace.events().len(),
        APPS,
        NODES
    );

    let mut runs: Vec<PolicyRun> = Vec::new();
    let mut scoring_fleet: Option<Cluster> = None;
    for policy in ["load_affinity", "round_robin", "random"] {
        let (run, fleet) = run_policy(policy, &trace, instances);
        if policy == "load_affinity" {
            scoring_fleet = Some(fleet);
        }
        runs.push(run);
    }

    println!(
        "\n{:<14} {:>14} {:>9} {:>12} {:>12}",
        "policy", "instances", "rejected", "period us", "migr KiB"
    );
    for r in &runs {
        println!(
            "{:<14} {:>14.0} {:>9} {:>12.3} {:>12.1}",
            r.policy,
            r.instances,
            r.rejected,
            r.max_period * 1e6,
            r.migration_bytes / 1024.0,
        );
    }

    let mut fleet = scoring_fleet.expect("load_affinity ran");
    let (moved, stranded, net_bytes, net_seconds) = drain_demo(&mut fleet);
    println!(
        "\ndrain demo: {moved} moved, {stranded} stranded, {:.1} KiB over the network \
         ({:.3} ms of transfer)",
        net_bytes / 1024.0,
        net_seconds * 1e3,
    );

    let (burst_events, burst_batches, burst_applied) = burst_demo(&mut fleet);
    println!(
        "burst demo: {burst_applied}/{burst_events} events applied through {burst_batches} \
         node batches",
    );

    // the merged fleet snapshot of the surviving scoring fleet, in both
    // exposition formats — CI uploads these as artifacts
    let snap = fleet.snapshot();
    assert_eq!(
        snap.gauge("cellstream_cluster_placed"),
        Some(fleet.n_apps() as f64),
        "snapshot placed gauge tracks the routing table"
    );
    write_results("FLEET_SNAPSHOT.prom", &snap.to_prometheus());
    write_results("FLEET_SNAPSHOT.json", &snap.to_json());

    // ---- JSON -------------------------------------------------------------
    let policy_rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"policy\": \"{}\", \"instances\": {:.0}, \"rejected\": {}, \
                 \"max_period_s\": {:.9e}, \"migration_bytes\": {:.1}}}",
                r.policy, r.instances, r.rejected, r.max_period, r.migration_bytes,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"cluster\",\n  \"spec\": \"qs22\",\n  \"nodes\": {NODES},\n  \
         \"apps\": {APPS},\n  \"quick\": {},\n  \"events\": {},\n  \"policies\": [\n{}\n  ],\n  \
         \"drain\": {{\"moved\": {moved}, \"stranded\": {stranded}, \
         \"network_bytes\": {net_bytes:.1}, \"network_seconds\": {net_seconds:.6}}},\n  \
         \"burst\": {{\"events\": {burst_events}, \"node_batches\": {burst_batches}, \
         \"applied\": {burst_applied}}}\n}}\n",
        quick_mode(),
        trace.events().len(),
        policy_rows.join(",\n"),
    );
    write_results("BENCH_cluster.json", &json);

    // ---- CI gates ---------------------------------------------------------
    let delivered = |name: &str| runs.iter().find(|r| r.policy == name).unwrap().instances;
    let (scoring, rr, rnd) =
        (delivered("load_affinity"), delivered("round_robin"), delivered("random"));
    gates::placer_ordering(scoring, &[("round-robin", rr), ("random", rnd)])
        .expect("placer ordering");
    gates::drain_strands_nothing(stranded).expect("drain");
    println!(
        "gates passed: scoring {scoring:.0} >= round-robin {rr:.0} and random {rnd:.0}; \
         drain stranded 0; burst applied {burst_applied}/{burst_events}",
    );
}
