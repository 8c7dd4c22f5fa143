//! `debug_invariants` replay harness for the fleet control plane:
//! random sequences of admissions, retirements, reweights, drains,
//! undrains, rebalances, injected faults (SPE failure/restore,
//! whole-node loss/return, cost drift) and bursts of churn around a
//! fault against an in-process cluster, with the coordinator's deep
//! audit (routing table ↔ node summaries,
//! drain- and dead-sets honoured at every placement, stranded ledger
//! disjoint from the routing table) running after every operation.
//!
//! Compiles to nothing without the feature:
//! `cargo test -p cellstream-cluster --features debug_invariants`.
#![cfg(feature = "debug_invariants")]

use cellstream_cluster::{Cluster, ClusterOptions, ClusterVerdict, NodeId};
use cellstream_graph::{StreamGraph, TaskSpec};
use cellstream_platform::CellSpec;
use cellstream_sim::online::TraceEvent;
use proptest::prelude::*;

fn pipeline(name: &str, n: usize, cost_scale: u8) -> StreamGraph {
    let c = 1e-6 * (1.0 + f64::from(cost_scale));
    let mut b = StreamGraph::builder(name);
    let mut prev = None;
    for i in 0..n {
        let t = b.add_task(TaskSpec::new(format!("t{i}")).ppe_cost(c).spe_cost(c / 3.0));
        if let Some(p) = prev {
            b.add_edge(p, t, 1024.0).unwrap();
        }
        prev = Some(t);
    }
    b.build().unwrap()
}

#[derive(Debug, Clone)]
enum Step {
    /// Admit a fresh pipeline: (tasks, cost scale, weight).
    Admit(usize, u8, f64),
    /// Retire the `k % placed`-th tracked application.
    Retire(usize),
    /// Reweight the `k % placed`-th tracked application.
    Reweight(usize, f64),
    /// Retire a name that was never admitted: an error, never corruption.
    RetireUnknown,
    /// Drain node `k % n_nodes`.
    Drain(usize),
    /// Undrain node `k % n_nodes`.
    Undrain(usize),
    /// Fleet-wide rebalance pass.
    Rebalance,
    /// Fail the `k % n_spe`-th SPE on node `k % n_nodes`.
    PeFail(usize),
    /// Restore the `k % n_spe`-th SPE on node `k % n_nodes`.
    PeRestore(usize),
    /// Kill node `k % n_nodes` outright.
    NodeFail(usize),
    /// Bring node `k % n_nodes` back (cold).
    NodeRestore(usize),
    /// Drift the `k % placed`-th tracked application's costs.
    Drift(usize, f64),
    /// One `process_burst` of 2–6 churn ops — `(selector, operand)`
    /// pairs: admit a fresh pipeline, retire or reweight the
    /// `operand % placed`-th tracked application — with an SPE failure
    /// on node `at % n_nodes` spliced in before op `at % len` when set.
    Burst(Vec<(u8, usize)>, Option<usize>),
}

fn arb_step() -> impl Strategy<Value = Step> {
    // the vendored proptest has no prop_oneof: draw every variant's
    // operands plus a selector and pick in a map (admissions and churn
    // weighted heavier than drains and faults so fleets actually fill
    // up)
    let burst = (collection::vec((0u8..4, 0usize..24), 2..=6), 0usize..48);
    (0u8..19, (2usize..=5, 0u8..4, 0.25f64..4.0), 0usize..24, burst).prop_map(
        |(sel, (t, c, w), k, (ops, fault))| match sel {
            0..=2 => Step::Admit(t, c, w),
            3 | 4 => Step::Retire(k),
            5 | 6 => Step::Reweight(k, w),
            7 => Step::RetireUnknown,
            8 => Step::Drain(k),
            9 => Step::Undrain(k),
            10 => Step::Rebalance,
            11 => Step::PeFail(k),
            12 => Step::PeRestore(k),
            13 => Step::NodeFail(k),
            14 => Step::NodeRestore(k),
            15 => Step::Drift(k, 0.5 + w),
            _ => Step::Burst(ops, (fault % 2 == 0).then_some(fault / 2)),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_fleet_operations_uphold_the_coordinator_invariants(
        steps in collection::vec(arb_step(), 1..=14)
    ) {
        let nodes = 3;
        let spec = CellSpec::ps3();
        let mut fleet = Cluster::homogeneous(nodes, &spec, ClusterOptions::default());
        let mut placed: Vec<String> = Vec::new();
        let mut fresh = 0usize;
        for step in steps {
            match step {
                Step::Admit(t, c, w) => {
                    let g = pipeline(&format!("app{fresh}"), t, c);
                    fresh += 1;
                    let report = fleet.admit(&g, w);
                    if report.verdict.admitted().is_some() {
                        placed.push(report.app.clone().expect("admissions carry a name"));
                    }
                }
                Step::Retire(k) => {
                    if placed.is_empty() {
                        continue;
                    }
                    let name = placed.remove(k % placed.len());
                    fleet.retire(&name).expect("placed apps retire");
                }
                Step::Reweight(k, w) => {
                    if placed.is_empty() {
                        continue;
                    }
                    let name = placed[k % placed.len()].clone();
                    fleet.reweight(&name, w).expect("placed apps reweight");
                }
                Step::RetireUnknown => {
                    prop_assert!(fleet.retire("never-admitted").is_err());
                }
                Step::Drain(k) => {
                    fleet.drain(NodeId(k % nodes)).expect("in-range drains succeed");
                }
                Step::Undrain(k) => {
                    fleet.undrain(NodeId(k % nodes)).expect("in-range undrains succeed");
                }
                Step::Rebalance => {
                    fleet.rebalance();
                }
                Step::PeFail(k) => {
                    let pe = spec.pe(spec.n_ppe() + k % spec.n_spe());
                    fleet.pe_failed(NodeId(k % nodes), pe).expect("in-range PE faults never error");
                }
                Step::PeRestore(k) => {
                    let pe = spec.pe(spec.n_ppe() + k % spec.n_spe());
                    // restoring a PE on a dead node yields a Rejected
                    // verdict, not an error
                    fleet
                        .pe_restored(NodeId(k % nodes), pe)
                        .expect("in-range PE restores never error");
                }
                Step::NodeFail(k) => {
                    fleet.node_failed(NodeId(k % nodes)).expect("in-range node faults never error");
                }
                Step::NodeRestore(k) => {
                    fleet
                        .node_restored(NodeId(k % nodes))
                        .expect("in-range node restores never error");
                }
                Step::Drift(k, f) => {
                    if placed.is_empty() {
                        continue;
                    }
                    // the target may be serving or stranded: drift
                    // reaches both (the ledger copy stays corrected)
                    let name = placed[k % placed.len()].clone();
                    fleet.cost_drift(&name, f).expect("tracked apps drift");
                }
                Step::Burst(ops, fault) => {
                    let mut burst: Vec<TraceEvent> = Vec::new();
                    for (sel, k) in ops {
                        burst.push(match (sel, placed.is_empty()) {
                            (0 | 1, _) | (_, true) => {
                                fresh += 1;
                                let graph = pipeline(&format!("app{}", fresh - 1), 2 + k % 4, 1);
                                TraceEvent::Admit { graph, weight: 1.0 + (k % 3) as f64 }
                            }
                            // a name may repeat inside the burst (retired
                            // twice, reweighted after its retire): the
                            // second op then sees an unknown application
                            (2, false) => TraceEvent::Retire { app: placed[k % placed.len()].clone() },
                            (_, false) => TraceEvent::Reweight {
                                app: placed[k % placed.len()].clone(),
                                weight: 0.5 + (k % 5) as f64,
                            },
                        });
                    }
                    if let Some(at) = fault {
                        let pe = spec.pe(spec.n_ppe() + at % spec.n_spe());
                        let fail = TraceEvent::PeFailed { node: at % nodes, pe };
                        burst.insert(at % burst.len(), fail);
                    }
                    let report = fleet.process_burst(&burst);
                    prop_assert_eq!(report.events.len(), burst.len());
                    for (ev, (_, verdict)) in burst.iter().zip(&report.events) {
                        match (ev, verdict) {
                            // fresh names are never uniquified
                            (TraceEvent::Admit { graph, .. }, ClusterVerdict::Admitted(_)) => {
                                placed.push(graph.name().to_owned());
                            }
                            (TraceEvent::Retire { app }, ClusterVerdict::Applied) => {
                                placed.retain(|name| name != app);
                            }
                            _ => {}
                        }
                    }
                }
            }
            // every operation audits itself under the feature; keep a
            // sweep here too — it covers undrain, the one step that
            // reports nothing — so the harness pins the between-steps
            // state
            fleet.check_invariants("harness sweep");
            let stranded = fleet.status().stranded.len();
            prop_assert_eq!(
                placed.len(),
                fleet.n_apps() + stranded,
                "every tracked app is serving or in the ledger — never dropped"
            );

            // snapshot conservation on the merged fleet view: the
            // coordinator's own gauges obey their law, and the fleet
            // totals equal the per-node sums through both channels —
            // the cached summaries and each node's live serving-loop
            // snapshot
            let snap = fleet.snapshot();
            let placed_g = snap.gauge("cellstream_cluster_placed").expect("placed gauge");
            let stranded_g = snap.gauge("cellstream_cluster_stranded").expect("stranded gauge");
            let tracked_g = snap.gauge("cellstream_cluster_tracked").expect("tracked gauge");
            prop_assert_eq!(tracked_g, placed_g + stranded_g);
            prop_assert_eq!(placed_g, snap.sum_gauge("cellstream_cluster_node_apps"));
            prop_assert_eq!(placed_g, snap.sum_gauge("cellstream_serve_serving"));
            // cluster agents never park work locally: the coordinator
            // owns retry policy, so node queues and node shed ledgers
            // are empty in every snapshot
            prop_assert_eq!(snap.sum_gauge("cellstream_serve_queued"), 0.0);
            prop_assert_eq!(snap.sum_gauge("cellstream_serve_stranded"), 0.0);
        }
    }
}
