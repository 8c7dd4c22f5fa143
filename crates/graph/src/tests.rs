use crate::{GraphError, StreamGraph, TaskId, TaskSpec};
use proptest::prelude::*;

fn chain(n: usize) -> StreamGraph {
    let mut b = StreamGraph::builder("chain");
    let ids: Vec<_> = (0..n)
        .map(|i| b.add_task(TaskSpec::new(format!("t{i}")).ppe_cost(1.0 + i as f64).spe_cost(0.5)))
        .collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1], 100.0).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn empty_graph_rejected() {
    assert_eq!(StreamGraph::builder("e").build().unwrap_err(), GraphError::Empty);
}

#[test]
fn duplicate_names_rejected() {
    let mut b = StreamGraph::builder("dup");
    b.add_task(TaskSpec::new("same"));
    b.add_task(TaskSpec::new("same"));
    assert_eq!(b.build().unwrap_err(), GraphError::DuplicateName("same".into()));
}

#[test]
fn self_loop_rejected_eagerly() {
    let mut b = StreamGraph::builder("loop");
    let t = b.add_task(TaskSpec::new("t"));
    assert_eq!(b.add_edge(t, t, 1.0).unwrap_err(), GraphError::SelfLoop(t));
}

#[test]
fn duplicate_edge_rejected() {
    let mut b = StreamGraph::builder("dup-edge");
    let a = b.add_task(TaskSpec::new("a"));
    let c = b.add_task(TaskSpec::new("b"));
    b.add_edge(a, c, 1.0).unwrap();
    assert_eq!(b.add_edge(a, c, 2.0).unwrap_err(), GraphError::DuplicateEdge(a, c));
}

#[test]
fn unknown_endpoint_rejected() {
    let mut b = StreamGraph::builder("unk");
    let a = b.add_task(TaskSpec::new("a"));
    let ghost = TaskId(99);
    assert_eq!(b.add_edge(a, ghost, 1.0).unwrap_err(), GraphError::UnknownTask(ghost));
}

#[test]
fn cycle_rejected_at_build() {
    let mut b = StreamGraph::builder("cycle");
    let a = b.add_task(TaskSpec::new("a"));
    let c = b.add_task(TaskSpec::new("b"));
    let d = b.add_task(TaskSpec::new("c"));
    b.add_edge(a, c, 1.0).unwrap();
    b.add_edge(c, d, 1.0).unwrap();
    b.add_edge(d, a, 1.0).unwrap();
    assert!(matches!(b.build().unwrap_err(), GraphError::Cycle(_)));
}

#[test]
fn invalid_costs_rejected() {
    // zero costs are legal (degenerate zero-work tasks must not panic
    // downstream); negative and non-finite costs are not
    let mut b = StreamGraph::builder("zero");
    b.add_task(TaskSpec::new("z").ppe_cost(0.0).spe_cost(0.0));
    assert!(b.build().is_ok());

    let mut b = StreamGraph::builder("bad");
    b.add_task(TaskSpec::new("z").ppe_cost(-1.0));
    assert!(matches!(b.build().unwrap_err(), GraphError::InvalidTask(_)));

    let mut b = StreamGraph::builder("bad2");
    b.add_task(TaskSpec::new("z").spe_cost(f64::NAN));
    assert!(matches!(b.build().unwrap_err(), GraphError::InvalidTask(_)));

    let mut b = StreamGraph::builder("bad3");
    b.add_task(TaskSpec::new("z").reads(-1.0));
    assert!(matches!(b.build().unwrap_err(), GraphError::InvalidTask(_)));
}

#[test]
fn negative_edge_data_rejected() {
    let mut b = StreamGraph::builder("neg");
    let a = b.add_task(TaskSpec::new("a"));
    let c = b.add_task(TaskSpec::new("b"));
    assert!(matches!(b.add_edge(a, c, -5.0).unwrap_err(), GraphError::InvalidEdgeData(_, _, _)));
}

#[test]
fn zero_byte_edges_allowed() {
    // The NP-completeness reduction (§3.2) uses data_{k,k+1} = 0.
    let mut b = StreamGraph::builder("zero");
    let a = b.add_task(TaskSpec::new("a"));
    let c = b.add_task(TaskSpec::new("b"));
    b.add_edge(a, c, 0.0).unwrap();
    assert!(b.build().is_ok());
}

#[test]
fn adjacency_is_consistent() {
    let g = chain(4);
    assert_eq!(g.sources().collect::<Vec<_>>(), vec![TaskId(0)]);
    assert_eq!(g.sinks().collect::<Vec<_>>(), vec![TaskId(3)]);
    assert_eq!(g.successors(TaskId(1)).collect::<Vec<_>>(), vec![TaskId(2)]);
    assert_eq!(g.predecessors(TaskId(1)).collect::<Vec<_>>(), vec![TaskId(0)]);
    assert_eq!(g.out_edges(TaskId(3)).len(), 0);
    assert_eq!(g.in_edges(TaskId(0)).len(), 0);
}

#[test]
fn totals_add_up() {
    let g = chain(3); // wPPE = 1+2+3, wSPE = 0.5*3, edges = 2*100
    assert!((g.total_ppe_work() - 6.0).abs() < 1e-12);
    assert!((g.total_spe_work() - 1.5).abs() < 1e-12);
    assert!((g.total_edge_bytes() - 200.0).abs() < 1e-12);
}

#[test]
fn find_by_name() {
    let g = chain(3);
    assert_eq!(g.find("t1"), Some(TaskId(1)));
    assert_eq!(g.find("nope"), None);
}

#[test]
fn serde_round_trip_preserves_everything() {
    let g = chain(5);
    let json = serde_json::to_string(&g).unwrap();
    let back: StreamGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(g, back);
}

#[test]
fn serde_rejects_cyclic_payload() {
    // Handcrafted JSON containing a cycle must fail validation on load.
    let json = r#"{
        "name": "evil",
        "tasks": [
            {"name":"a","w_ppe":1.0,"w_spe":1.0,"peek":0,"read_bytes":0.0,"write_bytes":0.0,"stateful":false},
            {"name":"b","w_ppe":1.0,"w_spe":1.0,"peek":0,"read_bytes":0.0,"write_bytes":0.0,"stateful":false}
        ],
        "edges": [
            {"src":0,"dst":1,"data_bytes":1.0},
            {"src":1,"dst":0,"data_bytes":1.0}
        ]
    }"#;
    assert!(serde_json::from_str::<StreamGraph>(json).is_err());
}

#[test]
fn spe_affinity_reads_correctly() {
    let g = chain(2);
    // wPPE = 1, wSPE = 0.5 -> affinity 2 (SPE twice as fast)
    assert!((g.task(TaskId(0)).spe_affinity() - 2.0).abs() < 1e-12);
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

/// Strategy: random DAG by sampling edges only from lower to higher ids
/// (so acyclicity holds by construction).
fn arb_dag(max_tasks: usize) -> impl Strategy<Value = StreamGraph> {
    (2..max_tasks)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n, 0..n), 0..n * 2);
            (Just(n), edges)
        })
        .prop_map(|(n, raw_edges)| {
            let mut b = StreamGraph::builder("prop");
            let ids: Vec<_> = (0..n).map(|i| b.add_task(TaskSpec::new(format!("t{i}")))).collect();
            for (a, z) in raw_edges {
                let (lo, hi) = (a.min(z), a.max(z));
                if lo != hi {
                    // ignore duplicates
                    let _ = b.add_edge(ids[lo], ids[hi], 64.0);
                }
            }
            b.build().expect("construction is acyclic by design")
        })
}

proptest! {
    #[test]
    fn prop_topo_order_respects_edges(g in arb_dag(24)) {
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.n_tasks()];
            for (rank, t) in g.topo_order().iter().enumerate() {
                pos[t.index()] = rank;
            }
            pos
        };
        for e in g.edges() {
            prop_assert!(pos[e.src.index()] < pos[e.dst.index()],
                "edge {} not respected by topo order", e);
        }
    }

    #[test]
    fn prop_topo_order_is_permutation(g in arb_dag(24)) {
        let mut seen = vec![false; g.n_tasks()];
        for t in g.topo_order() {
            prop_assert!(!seen[t.index()], "task repeated in topo order");
            seen[t.index()] = true;
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn prop_adjacency_bidirectional(g in arb_dag(24)) {
        for e in g.edge_ids() {
            let edge = g.edge(e);
            prop_assert!(g.out_edges(edge.src).contains(&e));
            prop_assert!(g.in_edges(edge.dst).contains(&e));
        }
        // and the edge count is conserved
        let total_out: usize = g.task_ids().map(|t| g.out_edges(t).len()).sum();
        prop_assert_eq!(total_out, g.n_edges());
    }

    #[test]
    fn prop_sources_have_no_preds(g in arb_dag(24)) {
        for s in g.sources() {
            prop_assert_eq!(g.predecessors(s).count(), 0);
        }
        for s in g.sinks() {
            prop_assert_eq!(g.successors(s).count(), 0);
        }
        // every DAG has at least one source and one sink
        prop_assert!(g.sources().count() >= 1);
        prop_assert!(g.sinks().count() >= 1);
    }

    #[test]
    fn prop_serde_round_trip(g in arb_dag(16)) {
        let json = serde_json::to_string(&g).unwrap();
        let back: StreamGraph = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn prop_rescale_then_measure_is_identity(g in arb_dag(16), target in 0.2f64..8.0) {
        if g.total_edge_bytes() + g.total_memory_bytes() > 0.0 {
            let scaled = crate::ccr::rescale_to_ccr(&g, target, crate::ccr::DEFAULT_BW);
            let got = crate::ccr::ccr(&scaled).ccr;
            prop_assert!((got - target).abs() < 1e-6 * target);
        }
    }

    #[test]
    fn prop_depths_bounded_by_task_count(g in arb_dag(24)) {
        let d = crate::algo::depths(&g);
        for &x in &d {
            prop_assert!(x < g.n_tasks());
        }
        prop_assert_eq!(crate::algo::critical_path_hops(&g), d.into_iter().max().unwrap());
    }
}

// ---------------------------------------------------------------------------
// Workload mutation properties (the online serving substrate)
// ---------------------------------------------------------------------------

/// One random workload edit: admit a fresh app, retire one, reweight
/// one, or drift one's compute costs. Indices/weights/factors are
/// sampled wide and clamped to the live range at application time;
/// `commit` ends the guard the edit rode in.
#[derive(Debug, Clone)]
enum WlOp {
    Add { n_tasks: usize, weight: f64 },
    Retire { idx: usize },
    Reweight { idx: usize, weight: f64 },
    Drift { idx: usize, factor: f64 },
}

fn arb_wl_ops(max_ops: usize) -> impl Strategy<Value = Vec<(WlOp, bool)>> {
    let raw = (0usize..4, 1usize..5, 0usize..8, 0.25f64..4.0, any::<bool>());
    proptest::collection::vec(raw, 1..max_ops).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, n_tasks, idx, x, commit)| {
                let op = match kind {
                    0 => WlOp::Add { n_tasks, weight: x },
                    1 => WlOp::Retire { idx },
                    2 => WlOp::Reweight { idx, weight: x },
                    _ => WlOp::Drift { idx, factor: x },
                };
                (op, commit)
            })
            .collect()
    })
}

fn small_app(name: &str, n_tasks: usize) -> StreamGraph {
    let mut b = StreamGraph::builder(name);
    let ids: Vec<_> = (0..n_tasks)
        .map(|i| {
            b.add_task(
                TaskSpec::new(format!("t{i}"))
                    .ppe_cost(1e-6 * (i + 1) as f64)
                    .spe_cost(0.5e-6 * (i + 1) as f64)
                    .reads(if i == 0 { 96.0 } else { 0.0 }),
            )
        })
        .collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1], 128.0).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random add/retire/reweight/drift sequence, cut into guards at
    /// random, leaves the workload exactly equal to composing the
    /// surviving (graph, weight) list from scratch after every commit:
    /// same composed graph (hence same period under any mapping), same
    /// per-app namespaces, and `subgraph()` still round-trips every app.
    /// The model drifts its graphs with `StreamGraph::rescale_costs`. A
    /// builder started from the workload before each guard
    /// (`Workload::to_builder`) takes the same edits and must build the
    /// same workload.
    #[test]
    fn prop_mutation_matches_from_scratch(ops in arb_wl_ops(12)) {
        use crate::Workload;
        let first = small_app("app0", 3);
        let mut w = Workload::compose("w", &[&first]).unwrap();
        // shadow model: the (graph, weight) list we expect to survive
        let mut model: Vec<(StreamGraph, f64)> = vec![(first, 1.0)];
        let mut fresh = 1usize;
        let last = ops.len() - 1;

        let mut edit = w.to_builder();
        let mut batch = w.batch();
        for (k, (op, commit)) in ops.into_iter().enumerate() {
            match op {
                WlOp::Add { n_tasks, weight } => {
                    let g = small_app(&format!("app{fresh}"), n_tasks);
                    fresh += 1;
                    batch.add(&g, weight).unwrap();
                    edit.push(&g, weight).unwrap();
                    model.push((g, weight));
                }
                WlOp::Retire { idx } => {
                    if model.len() > 1 {
                        let idx = idx % model.len();
                        batch.retire(crate::AppId(idx)).unwrap();
                        edit.retire(crate::AppId(idx)).unwrap();
                        model.remove(idx);
                    }
                }
                WlOp::Reweight { idx, weight } => {
                    let idx = idx % model.len();
                    batch.reweight(crate::AppId(idx), weight).unwrap();
                    edit.reweight(crate::AppId(idx), weight).unwrap();
                    model[idx].1 = weight;
                }
                WlOp::Drift { idx, factor } => {
                    let idx = idx % model.len();
                    batch.rescale_costs(crate::AppId(idx), factor).unwrap();
                    edit.rescale_costs(crate::AppId(idx), factor).unwrap();
                    model[idx].0 = model[idx].0.rescale_costs(factor);
                }
            }
            if !commit && k < last {
                continue;
            }
            batch.commit().unwrap();

            // equality with a from-scratch composition of the survivors
            let mut scratch = Workload::builder("w");
            for (g, weight) in &model {
                scratch.push(g, *weight).unwrap();
            }
            let scratch = scratch.build().unwrap();
            prop_assert_eq!(&w, &scratch);
            prop_assert_eq!(&edit.build().unwrap(), &w);

            // namespaces: every task of app i is "name/..." and tagged i
            for (i, info) in w.apps().iter().enumerate() {
                for t in w.tasks_of(crate::AppId(i)) {
                    prop_assert_eq!(w.app_of(t), crate::AppId(i));
                    prop_assert!(
                        w.graph().task(t).name.starts_with(&format!("{}/", info.name)),
                        "task {} not namespaced under {}", w.graph().task(t).name, info.name
                    );
                }
                prop_assert_eq!(w.app_id(&info.name), Some(crate::AppId(i)));
            }

            // subgraph round-trip: weight-scaled copy of the source
            for (i, (g, weight)) in model.iter().enumerate() {
                let sub = w.subgraph(crate::AppId(i));
                prop_assert_eq!(sub.n_tasks(), g.n_tasks());
                prop_assert_eq!(sub.n_edges(), g.n_edges());
                for t in g.task_ids() {
                    let orig = g.task(t);
                    let got = sub.task(t);
                    prop_assert!((got.w_ppe - orig.w_ppe * weight).abs() <= 1e-18 + 1e-12 * got.w_ppe);
                    prop_assert!((got.read_bytes - orig.read_bytes * weight).abs() <= 1e-9);
                }
            }
            edit = w.to_builder();
            batch = w.batch();
        }
    }
}
