//! Cross-module tests: formulation correctness against the evaluator and
//! the exhaustive optimum.

use crate::eval::evaluate;
use crate::formulation::{FormKind, Formulation, FormulationConfig};
use crate::mapping::Mapping;
use crate::solve::{ppe_only_outcome, solve, SolveOptions};
use cellstream_daggen::{chain, fork_join, CostParams, DagGenParams};
use cellstream_milp::bb::MipOptions;
use cellstream_platform::{CellSpec, PeId};
use proptest::prelude::*;

fn exact_opts(kind: FormKind) -> SolveOptions {
    SolveOptions {
        formulation: FormulationConfig { kind, dma_constraints: true },
        mip: MipOptions { rel_gap: 0.0, abs_gap: 1e-9, ..Default::default() },
        ..Default::default()
    }
}

fn tiny_graph(seed: u64, n: usize) -> cellstream_graph::StreamGraph {
    let costs = CostParams::default();
    cellstream_daggen::generate(
        "tiny",
        &DagGenParams { n, fat: 0.7, regular: 0.5, density: 0.5, jump: 2, costs },
        seed,
    )
    .unwrap()
}

#[test]
fn milp_matches_brute_force_on_tiny_instances() {
    for seed in [1, 2, 3] {
        let g = tiny_graph(seed, 5);
        let spec = CellSpec::with_spes(2);
        let (_, brute_period) = crate::brute::optimal_mapping(&g, &spec).unwrap();
        let out = solve(&g, &spec, &exact_opts(FormKind::Compact)).unwrap();
        assert!(
            (out.period - brute_period).abs() <= 1e-9 + 1e-6 * brute_period,
            "seed {seed}: milp {} vs brute {}",
            out.period,
            brute_period
        );
    }
}

/// `MipOptions::time_limit` is added to the clock inside `solve_mip`;
/// a budget too long to add must mean "no deadline", not a panic.
#[test]
fn an_unrepresentable_time_limit_is_no_time_limit() {
    let g = tiny_graph(1, 5);
    let spec = CellSpec::with_spes(2);
    let mut unlimited = exact_opts(FormKind::Compact);
    unlimited.mip.time_limit = std::time::Duration::MAX;
    let out = solve(&g, &spec, &unlimited).unwrap();
    let reference = solve(&g, &spec, &exact_opts(FormKind::Compact)).unwrap();
    assert_eq!(
        (out.status, out.nodes, out.lp_iterations, out.period.to_bits()),
        (reference.status, reference.nodes, reference.lp_iterations, reference.period.to_bits())
    );
}

#[test]
fn paper_and_compact_formulations_agree() {
    for seed in [4, 5] {
        let g = tiny_graph(seed, 5);
        let spec = CellSpec::with_spes(2);
        let paper = solve(&g, &spec, &exact_opts(FormKind::Paper)).unwrap();
        let compact = solve(&g, &spec, &exact_opts(FormKind::Compact)).unwrap();
        assert!(
            (paper.period - compact.period).abs() <= 1e-9 + 1e-6 * compact.period,
            "seed {seed}: paper {} vs compact {}",
            paper.period,
            compact.period
        );
    }
}

#[test]
fn encode_produces_feasible_vectors() {
    // The encoding of a feasible mapping must satisfy every constraint of
    // both formulations — this pins the formulation to the evaluator.
    let g = tiny_graph(7, 6);
    let spec = CellSpec::with_spes(3);
    let mappings = [
        Mapping::all_on(&g, PeId(0)),
        Mapping::new(&g, &spec, vec![PeId(0), PeId(1), PeId(2), PeId(3), PeId(1), PeId(0)])
            .unwrap(),
    ];
    for kind in [FormKind::Paper, FormKind::Compact] {
        let form =
            Formulation::build(&g, &spec, &FormulationConfig { kind, dma_constraints: true });
        for m in &mappings {
            let report = evaluate(&g, &spec, m).unwrap();
            if !report.is_feasible() {
                continue;
            }
            let x = form.encode(&spec, m, report.period);
            let viol = form.model.max_violation(&x);
            assert!(viol <= 1e-6, "{kind:?}: encoded mapping violates by {viol}");
        }
    }
}

#[test]
fn decode_inverts_encode() {
    let g = tiny_graph(8, 6);
    let spec = CellSpec::with_spes(3);
    let m = Mapping::new(&g, &spec, vec![PeId(1), PeId(2), PeId(0), PeId(3), PeId(3), PeId(1)])
        .unwrap();
    let report = evaluate(&g, &spec, &m).unwrap();
    for kind in [FormKind::Paper, FormKind::Compact] {
        let form =
            Formulation::build(&g, &spec, &FormulationConfig { kind, dma_constraints: true });
        let x = form.encode(&spec, &m, report.period.max(1e-9));
        let decoded = form.decode(&x);
        assert_eq!(decoded, m.assignment().to_vec(), "{kind:?}");
    }
}

#[test]
fn solver_never_loses_to_its_seeds() {
    let g = tiny_graph(9, 8);
    let spec = CellSpec::with_spes(2);
    // A deliberately decent seed: alternate PEs down the topo order.
    let order = g.topo_order().to_vec();
    let mut assignment = vec![PeId(0); g.n_tasks()];
    for (rank, t) in order.iter().enumerate() {
        assignment[t.index()] = spec.pe(rank % spec.n_pes());
    }
    let seed_mapping = Mapping::new(&g, &spec, assignment).unwrap();
    let seed_report = evaluate(&g, &spec, &seed_mapping).unwrap();
    let out = solve(
        &g,
        &spec,
        &SolveOptions { seeds: vec![seed_mapping], ..exact_opts(FormKind::Compact) },
    )
    .unwrap();
    if seed_report.is_feasible() {
        assert!(out.period <= seed_report.period + 1e-12);
    }
    let ppe = ppe_only_outcome(&g, &spec);
    assert!(out.period <= ppe.period + 1e-12, "never worse than PPE-only");
}

#[test]
fn gap_mode_matches_paper_contract() {
    use cellstream_milp::bb::MipStatus;
    let g = tiny_graph(10, 10);
    let spec = CellSpec::with_spes(4);
    let out = solve(&g, &spec, &SolveOptions::default()).unwrap(); // 5 % gap
                                                                   // The bound is always valid...
    assert!(out.period_bound <= out.period + 1e-12);
    // ...and when the solver *claims* the gap was closed, the incumbent
    // must actually be within 5% of the proven bound. (On node/time-limit
    // stops the gap may stay open — CPLEX behaves the same without its
    // stopping rule firing.)
    if matches!(out.status, MipStatus::Optimal | MipStatus::GapReached) {
        assert!(out.gap <= 0.05 + 1e-9, "gap {} exceeds the 5% stop", out.gap);
        assert!(out.period <= out.period_bound / (1.0 - 0.05) + 1e-9);
    }
}

#[test]
fn chain_on_two_pes_splits_once() {
    // A uniform chain with negligible data on 1 PPE + 1 identical-speed SPE
    // should split into two contiguous halves (any extra cut only adds comm).
    use cellstream_graph::{StreamGraph, TaskSpec};
    let mut b = StreamGraph::builder("even");
    let ids: Vec<_> =
        (0..6).map(|i| b.add_task(TaskSpec::new(format!("t{i}")).uniform_cost(1e-6))).collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1], 64.0).unwrap();
    }
    let g = b.build().unwrap();
    let spec = CellSpec::with_spes(1);
    let out = solve(&g, &spec, &exact_opts(FormKind::Compact)).unwrap();
    // perfect balance: 3 us per side
    assert!((out.period - 3e-6).abs() < 1e-8, "period {}", out.period);
}

#[test]
fn infeasible_spe_tasks_stay_on_ppe() {
    // One task whose buffers exceed the local store: the MILP must keep it
    // on the PPE even though the SPE is faster.
    use cellstream_graph::{StreamGraph, TaskSpec};
    let mut b = StreamGraph::builder("fat");
    let a = b.add_task(TaskSpec::new("a").ppe_cost(1e-6).spe_cost(1e-7));
    let z = b.add_task(TaskSpec::new("z").ppe_cost(1e-6).spe_cost(1e-7));
    b.add_edge(a, z, 300.0 * 1024.0).unwrap(); // buffer 600 kB > 192 kB budget
    let g = b.build().unwrap();
    let spec = CellSpec::with_spes(2);
    let out = solve(&g, &spec, &exact_opts(FormKind::Compact)).unwrap();
    assert_eq!(out.mapping.pe_of(cellstream_graph::TaskId(0)), PeId(0));
    assert_eq!(out.mapping.pe_of(cellstream_graph::TaskId(1)), PeId(0));
}

/// A three-task chain whose two edges each carry half the local-store
/// budget: every §4.2 buffer spans two instance slots, so the end tasks
/// reserve exactly the budget and the middle task twice it.
fn chain_against_the_wall(spec: &CellSpec) -> cellstream_graph::StreamGraph {
    use cellstream_graph::{StreamGraph, TaskSpec};
    let half = spec.local_store_budget() as f64 / 2.0;
    let mut b = StreamGraph::builder("wall");
    let ids: Vec<_> = (0..3)
        .map(|i| b.add_task(TaskSpec::new(format!("t{i}")).ppe_cost(1e-6).spe_cost(1e-7)))
        .collect();
    b.add_edge(ids[0], ids[1], half).unwrap();
    b.add_edge(ids[1], ids[2], half).unwrap();
    b.build().unwrap()
}

/// The α columns fixed off the SPEs are exactly the (task, SPE) pairs
/// `evaluate` refuses with `Violation::LocalStore` when that task alone
/// sits on that SPE, in both encodings, and a fixed column enters no
/// row. A task whose buffers fill the store exactly stays free.
#[test]
fn alpha_columns_are_fixed_exactly_where_the_store_overflows() {
    use crate::eval::Violation;
    use crate::steady::buffers::BufferPlan;
    use cellstream_daggen::paper;
    use cellstream_graph::TaskId;
    let spec = CellSpec::qs22();
    let chain = chain_against_the_wall(&spec);
    let plan = BufferPlan::new(&chain);
    let budget = spec.local_store_budget() as f64;
    assert_eq!([plan.for_task(TaskId(0)), plan.for_task(TaskId(2))], [budget, budget]);
    assert_eq!(plan.for_task(TaskId(1)), 2.0 * budget);
    let (_, graph1) = paper::ccr_variants(&paper::graph1()).pop().unwrap();
    for g in [&graph1, &chain] {
        for kind in [FormKind::Paper, FormKind::Compact] {
            let form =
                Formulation::build(g, &spec, &FormulationConfig { kind, dma_constraints: true });
            let cols = form.sparse_columns();
            let mut fixed = Vec::new();
            for t in g.task_ids() {
                for pe in spec.spes() {
                    let mut alone = vec![PeId(0); g.n_tasks()];
                    alone[t.index()] = pe;
                    let report = evaluate(g, &spec, &Mapping::new(g, &spec, alone).unwrap());
                    let overflows = report
                        .unwrap()
                        .violations
                        .iter()
                        .any(|v| matches!(v, Violation::LocalStore { .. }));
                    let alpha = form.alpha(t, pe);
                    let bounds = form.model.bounds(alpha);
                    assert_eq!(
                        bounds == (0.0, 0.0),
                        overflows,
                        "{} {kind:?}: {t:?} on {pe:?}",
                        g.name()
                    );
                    assert!(overflows || bounds == (0.0, 1.0));
                    if overflows {
                        assert!(cols.col(alpha.index()).0.is_empty(), "{kind:?}: {t:?} on {pe:?}");
                        fixed.push(t);
                    }
                }
            }
            for t in g.task_ids() {
                assert_eq!(
                    form.model.bounds(form.alpha(t, PeId(0))),
                    (0.0, 1.0),
                    "the PPE holds all"
                );
            }
            let n_spe = spec.spes().count();
            if g.name() == "wall" {
                assert_eq!(fixed, vec![TaskId(1); n_spe], "{kind:?}: only the middle task");
            } else {
                assert!(!fixed.is_empty(), "graph 1 at CCR 4.6 has tasks beyond the wall");
            }
        }
    }
}

#[test]
fn dma_constraints_bind_when_enabled() {
    // 20 PPE-pinned producers feed one SPE-friendly consumer; without (1j)
    // the consumer would go to an SPE with 20 incoming DMAs (> 16).
    use cellstream_graph::{StreamGraph, TaskSpec};
    let mut b = StreamGraph::builder("fan");
    // producers are far faster on the PPE, consumer far faster on SPE
    let producers: Vec<_> = (0..20)
        .map(|i| b.add_task(TaskSpec::new(format!("p{i}")).ppe_cost(1e-7).spe_cost(5e-5)))
        .collect();
    let sink = b.add_task(TaskSpec::new("sink").ppe_cost(8e-5).spe_cost(1e-6));
    for &p in &producers {
        b.add_edge(p, sink, 16.0).unwrap();
    }
    let g = b.build().unwrap();
    let spec = CellSpec::with_spes(1);

    let with_dma = solve(&g, &spec, &exact_opts(FormKind::Compact)).unwrap();
    let report = evaluate(&g, &spec, &with_dma.mapping).unwrap();
    assert!(report.is_feasible());
    // respecting (1j) forces the consumer to stay on the PPE
    assert_eq!(with_dma.mapping.pe_of(sink), PeId(0));

    let mut no_dma = exact_opts(FormKind::Compact);
    no_dma.formulation.dma_constraints = false;
    let out2 = solve(&g, &spec, &no_dma).unwrap();
    // without (1j) the solver exploits the SPE and gets a shorter period
    assert!(out2.period < with_dma.period - 1e-9, "{} vs {}", out2.period, with_dma.period);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn prop_milp_never_worse_than_brute(seed in 0u64..1000) {
        let g = tiny_graph(seed, 4);
        let spec = CellSpec::with_spes(2);
        let (_, brute) = crate::brute::optimal_mapping(&g, &spec).unwrap();
        let out = solve(&g, &spec, &exact_opts(FormKind::Compact)).unwrap();
        prop_assert!((out.period - brute).abs() <= 1e-9 + 1e-6 * brute,
            "milp {} brute {}", out.period, brute);
    }

    #[test]
    fn prop_period_bound_is_valid(seed in 0u64..1000) {
        let g = tiny_graph(seed, 7);
        let spec = CellSpec::with_spes(3);
        let out = solve(&g, &spec, &SolveOptions::default()).unwrap();
        let report = evaluate(&g, &spec, &out.mapping).unwrap();
        prop_assert!(report.is_feasible());
        prop_assert!((report.period - out.period).abs() < 1e-12);
        prop_assert!(out.period_bound <= out.period + 1e-12);
    }

    #[test]
    fn prop_fork_join_balances(width in 2usize..6, seed in 0u64..100) {
        let g = fork_join("fj", width, &CostParams::default(), seed);
        let spec = CellSpec::ps3();
        let out = solve(&g, &spec, &SolveOptions::default()).unwrap();
        let ppe = ppe_only_outcome(&g, &spec);
        prop_assert!(out.period <= ppe.period + 1e-12);
    }

    #[test]
    fn prop_more_spes_never_hurt(seed in 0u64..50) {
        let g = chain("c", 8, &CostParams::default(), seed);
        let out2 = solve(&g, &CellSpec::with_spes(2), &SolveOptions {
            mip: MipOptions { rel_gap: 0.0, abs_gap: 1e-9, ..Default::default() },
            ..Default::default()
        }).unwrap();
        let out4 = solve(&g, &CellSpec::with_spes(4), &SolveOptions {
            mip: MipOptions { rel_gap: 0.0, abs_gap: 1e-9, ..Default::default() },
            ..Default::default()
        }).unwrap();
        // any mapping on 2 SPEs is valid on 4 SPEs, so the optimum can only improve
        prop_assert!(out4.period <= out2.period + 1e-9,
            "4 SPEs {} vs 2 SPEs {}", out4.period, out2.period);
    }
}

// ---------------------------------------------------------------------------
// Incremental-vs-full evaluator equivalence (the delta engine's contract)
// ---------------------------------------------------------------------------

use crate::eval::incremental::assert_matches_full as assert_state_matches_full;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_incremental_matches_full_after_every_step(
        seed in 0u64..5000,
        n in 4usize..16,
        // one case in four runs on a platform wider than a machine word:
        // the touched-PE set must not be a 64-bit mask
        spes in (0usize..4).prop_map(|s| if s == 0 { 70 } else { s }),
        ops in collection::vec((any::<u32>(), any::<u32>(), 0u32..100), 1..50),
    ) {
        use crate::{EvalState, Move};
        use cellstream_graph::TaskId;

        let g = tiny_graph(seed, n);
        let spec = cellstream_platform::CellSpecBuilder::default().spes(spes).build().unwrap();
        let mut state = EvalState::new(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
        let mut can_undo = false;
        for (i, &(x, y, kind)) in ops.iter().enumerate() {
            let t = TaskId(x as usize % g.n_tasks());
            let pe = PeId(y as usize % spec.n_pes());
            let ctx = format!("seed {seed}, op {i}");
            if kind < 15 {
                // undo when possible (apply/score_move below consume it)
                let undone = state.undo();
                prop_assert_eq!(undone, can_undo, "{}: undo availability", ctx);
                can_undo = false;
            } else if kind < 40 {
                let u = TaskId(y as usize % g.n_tasks());
                prop_assume!(u != t);
                state.apply(Move::Swap { a: t, b: u });
                can_undo = true;
            } else if kind < 60 {
                // a probe must leave the state bitwise untouched
                let before = state.period();
                let probe = state.score_move(Move::Relocate { task: t, to: pe });
                prop_assert_eq!(state.period(), before, "{}: probe disturbed state", ctx);
                // ... and agree with a fresh evaluation of the probed mapping
                let full = evaluate(&g, &spec, &state.mapping().with_move(t, pe)).unwrap();
                if full.is_feasible() {
                    prop_assert!((probe - full.period).abs() <= 1e-9 * full.period,
                        "{}: probe {} vs full {}", ctx, probe, full.period);
                } else {
                    prop_assert!(probe.is_infinite(), "{}: infeasible probe must be inf", ctx);
                }
                can_undo = false; // score_move consumed the undo log
            } else {
                state.apply(Move::Relocate { task: t, to: pe });
                can_undo = true;
            }
            assert_state_matches_full(&state, &ctx);
        }
    }

    #[test]
    fn prop_incremental_score_equals_search_objective(
        seed in 0u64..2000,
        n in 3usize..10,
    ) {
        use crate::{EvalState, Move};
        use cellstream_graph::TaskId;

        // every single-move score from a greedy-ish start matches the
        // full evaluator's verdict (the local-search inner loop contract)
        let g = tiny_graph(seed, n);
        let spec = CellSpec::with_spes(2);
        let mut state = EvalState::new(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
        for k in 0..g.n_tasks() {
            for pe in 0..spec.n_pes() {
                let s = state.score_move(Move::Relocate { task: TaskId(k), to: PeId(pe) });
                let full = evaluate(&g, &spec, &state.mapping().with_move(TaskId(k), PeId(pe)))
                    .unwrap();
                if full.is_feasible() {
                    prop_assert!((s - full.period).abs() <= 1e-9 * full.period);
                } else {
                    prop_assert!(s.is_infinite());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The capacity screen is the applied move's verdict, both ways: from
    /// a feasible state on a tight local store, `overfills(mv)` holds
    /// exactly when `apply(mv)` leaves a local-store or dead-PE violation
    /// (untouched rows are the feasible committed ones, so any violation
    /// sits on a PE the move touched) — with a dead SPE in the family,
    /// and at least a fifth of the drawn moves screened.
    #[test]
    fn prop_overfills_is_the_applied_moves_capacity_verdict(
        seed in 0u64..5000,
        n in 8usize..16,
        spes in 2usize..6,
        // local-store budget in eighths of the median task buffer
        eighths in 3u64..10,
        // healthy, or one dead SPE
        (dead, which) in (any::<bool>(), any::<u32>()),
        walk in collection::vec((any::<u32>(), any::<u32>()), 48..49),
        moves in collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 64..65),
    ) {
        use crate::avail::Availability;
        use crate::eval::Violation;
        use crate::steady::buffers::BufferPlan;
        use crate::{EvalState, Move};
        use cellstream_graph::TaskId;
        use cellstream_platform::{ByteSize, CellSpecBuilder};

        let g = tiny_graph(seed, n);
        let mut bufs = BufferPlan::new(&g).task_bytes;
        bufs.sort_by(f64::total_cmp);
        let budget = (bufs[bufs.len() / 2] * eighths as f64 / 8.0).ceil().max(1.0) as u64;
        let code = ByteSize::kib(64);
        let spec = CellSpecBuilder::default()
            .spes(spes)
            .code_size(code)
            .local_store(ByteSize::bytes_exact(code.bytes() + budget))
            .build()
            .unwrap();
        let mut avail = Availability::full(&spec);
        if dead {
            avail.fail(PeId(1 + which as usize % spes));
        }

        // a random feasible state: relocations from all-on-PPE, each
        // kept only if the state stays feasible; the last one kept may
        // still be pending, which the screen must see through
        let mut state =
            EvalState::new_with(&g, &spec, &avail, &Mapping::all_on(&g, PeId(0))).unwrap();
        for &(x, y) in &walk {
            state.apply(Move::Relocate {
                task: TaskId(x as usize % g.n_tasks()),
                to: PeId(y as usize % spec.n_pes()),
            });
            if !state.is_feasible() {
                state.undo();
            }
        }
        prop_assert!(state.is_feasible());

        let mut screened = 0;
        for (i, &(x, y, swap)) in moves.iter().enumerate() {
            // a move that changes no seat is never screened: draw the
            // next target or partner that changes one
            let (k, n_pes) = (g.n_tasks(), spec.n_pes());
            let t = TaskId(x as usize % k);
            let mv = if swap {
                let b = (0..k)
                    .map(|j| TaskId((y as usize + j) % k))
                    .find(|&b| state.pe_of(b) != state.pe_of(t))
                    .unwrap_or(t);
                Move::Swap { a: t, b }
            } else {
                let to = PeId(y as usize % n_pes);
                let to = if to == state.pe_of(t) { PeId((to.index() + 1) % n_pes) } else { to };
                Move::Relocate { task: t, to }
            };
            let verdict = state.overfills(mv);
            state.apply(mv);
            let violated = state.report().violations.iter().any(|v| {
                matches!(v, Violation::LocalStore { .. } | Violation::DeadPe { .. })
            });
            prop_assert_eq!(verdict, violated, "seed {}, move {} {:?}", seed, i, mv);
            state.undo();
            screened += usize::from(verdict);
        }
        prop_assert!(
            screened * 5 >= moves.len(),
            "seed {}: only {} of {} moves screened",
            seed,
            screened,
            moves.len()
        );
    }
}

// ---------------------------------------------------------------------------
// Multi-application workloads on the incremental engine
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A composed workload is a plain graph to the delta engine: applying
    /// random move sequences on the composition tracks the full evaluator
    /// exactly, so local search and annealing probe co-scheduled
    /// applications at full incremental speed with zero special-casing.
    #[test]
    fn prop_incremental_tracks_composed_workloads(
        seed_a in 0u64..500,
        seed_b in 500u64..1000,
        moves in proptest::collection::vec((0usize..64, 0usize..9), 1..40),
    ) {
        use crate::eval::incremental::assert_matches_full as assert_state_matches_full;
        use crate::{EvalState, Move};
        use cellstream_graph::{TaskId, Workload};

        let a = tiny_graph(seed_a, 5);
        let mut bgraph = tiny_graph(seed_b, 4);
        // distinct app names are required; daggen reuses "tiny"
        {
            let mut builder = cellstream_graph::StreamGraph::builder("tiny2");
            let mut ids = Vec::new();
            for t in bgraph.tasks() {
                ids.push(builder.add_task(t.to_spec()));
            }
            for e in bgraph.edges() {
                builder.add_edge(ids[e.src.index()], ids[e.dst.index()], e.data_bytes).unwrap();
            }
            bgraph = builder.build().unwrap();
        }
        let mut wb = Workload::builder("pair");
        wb.push(&a, 1.0).unwrap();
        wb.push(&bgraph, 2.0).unwrap();
        let w = wb.build().unwrap();
        let spec = CellSpec::ps3();
        let g = w.graph();
        let mut state = EvalState::new(g, &spec, &Mapping::all_on(g, PeId(0))).unwrap();
        for (i, &(t, pe)) in moves.iter().enumerate() {
            let t = TaskId(t % g.n_tasks());
            let pe = PeId(pe % spec.n_pes());
            state.apply(Move::Relocate { task: t, to: pe });
            assert_state_matches_full(&state, &format!("workload move {i}"));
        }
        // the per-app split stays consistent with the live aggregate
        let report = state.report();
        let m = state.mapping();
        let split = crate::workload::per_app_reports(&w, &spec, &m, &report);
        prop_assert_eq!(split.len(), 2);
        for ar in &split {
            prop_assert!((ar.weighted_period - report.period).abs() <= 1e-18_f64.max(1e-12 * report.period));
        }
    }
}
