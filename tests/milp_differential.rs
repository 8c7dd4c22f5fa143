//! Differential suite on *formulation-derived* LPs/MILPs: the solver
//! against the two referees `cellstream-core` already owns and that
//! share no code with it — the analytic evaluator (`evaluate`, the
//! paper's §3.2 period of one mapping) and exhaustive search over all
//! `n^K` mappings (`brute::optimal_mapping`) — on real Linear
//! Program (1) instances in both encodings.
//!
//! The random-model differential (vertex enumeration, exhaustive binary
//! search) lives in `cellstream-milp`'s own test suite; this one pins the
//! instances that actually matter — the paper's mapping formulations
//! with their assignment rows, bandwidth coupling and DMA-queue
//! structure.

use cellstream_core::brute::optimal_mapping;
use cellstream_core::{evaluate, FormKind, Formulation, FormulationConfig, Mapping, SolveOptions};
use cellstream_daggen::{chain, fork_join, CostParams};
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_milp::bb::{solve_mip, MipOptions};
use cellstream_milp::model::{LpOptions, LpStatus};
use cellstream_milp::SparseLp;
use cellstream_platform::{CellSpec, PeId};

fn small_graphs() -> Vec<StreamGraph> {
    vec![
        chain("diff-chain", 5, &CostParams::default(), 3),
        chain("diff-chain2", 7, &CostParams::default(), 11),
        fork_join("diff-fj", 3, &CostParams::default(), 5),
        fork_join("diff-fj2", 4, &CostParams::default(), 2),
    ]
}

fn kinds() -> [FormulationConfig; 2] {
    [
        FormulationConfig { kind: FormKind::Compact, dma_constraints: true },
        FormulationConfig { kind: FormKind::Paper, dma_constraints: true },
    ]
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * (1.0 + b.abs())
}

/// LP relaxations of Linear Program (1), both encodings. Relaxed, the
/// optimum is a lower bound on every mapping's period, the brute-force
/// optimum included. With every α fixed to a mapping the LP has nothing
/// left to choose but `T` and the cut indicators, so its optimum *is*
/// that mapping's period as the evaluator computes it — through presolve
/// (`solve_lp`, which eliminates the fixed columns) and without it
/// (`SparseLp`, the branch-and-bound root path) alike.
#[test]
fn lp_relaxations_agree_with_the_evaluator() {
    let spec = CellSpec::with_spes(2);
    for g in small_graphs() {
        let (best, best_period) = optimal_mapping(&g, &spec).expect("the PPE takes anything");
        let round_robin: Vec<PeId> = (0..g.n_tasks()).map(|k| PeId(k % spec.n_pes())).collect();
        let mappings = [
            best,
            Mapping::all_on(&g, PeId(0)),
            Mapping::all_on(&g, PeId(1)),
            Mapping::new(&g, &spec, round_robin).unwrap(),
        ];
        for config in kinds() {
            let what = format!("{} {:?}", g.name(), config.kind);
            let form = Formulation::build(&g, &spec, &config);
            let t0 = form.time_scale();

            let relaxed = form.model.solve_lp(&LpOptions::default()).unwrap();
            assert_eq!(relaxed.status, LpStatus::Optimal, "{what}: relaxation must solve");
            assert!(form.model.max_violation(&relaxed.x) <= 1e-6, "{what}");
            assert!(
                relaxed.objective * t0 <= best_period * (1.0 + 1e-7),
                "{what}: relaxation {} above the optimum {best_period}",
                relaxed.objective * t0
            );
            // presolve must not move the optimum: the B&B root path skips it
            let root = SparseLp::from_model(&form.model).unwrap();
            let root = root.solve_primal(&LpOptions::default()).unwrap();
            assert!(close(root.objective, relaxed.objective, 1e-7), "{what}: root vs solve_lp");

            for m in &mappings {
                let report = evaluate(&g, &spec, m).unwrap();
                let mut fixed = form.model.clone();
                for k in 0..g.n_tasks() {
                    for pe in spec.pes() {
                        let v = if m.pe_of(TaskId(k)) == pe { 1.0 } else { 0.0 };
                        fixed.set_bounds(form.alpha(TaskId(k), pe), v, v);
                    }
                }
                let presolved = fixed.solve_lp(&LpOptions::default()).unwrap();
                let lp = SparseLp::from_model(&fixed).unwrap();
                let raw = lp.solve_primal(&LpOptions::default()).unwrap();
                assert_eq!(presolved.status, raw.status, "{what}: {m:?}");
                if !report.is_feasible() {
                    // (1i)-(1k) are rows of the LP too
                    assert_eq!(raw.status, LpStatus::Infeasible, "{what}: {m:?}");
                    continue;
                }
                assert_eq!(raw.status, LpStatus::Optimal, "{what}: {m:?}");
                for (path, objective) in
                    [("solve_lp", presolved.objective), ("SparseLp", raw.objective)]
                {
                    assert!(
                        close(objective, report.period / t0, 1e-7),
                        "{what} via {path}: LP {objective} vs evaluator {}",
                        report.period / t0
                    );
                }
                assert!(fixed.max_violation(&presolved.x) <= 1e-6, "{what}");
            }
        }
    }
}

/// `solve_mip` on the bare formulations (no seeds, no completion), run to
/// proven optimality: the warm-started search must land on the period of
/// the exhaustive optimum, in both encodings.
#[test]
fn mip_incumbents_agree_with_brute_force() {
    let spec = CellSpec::with_spes(2);
    let exact =
        MipOptions { rel_gap: 0.0, abs_gap: 1e-9, max_nodes: 50_000, ..MipOptions::default() };
    for g in small_graphs() {
        let (_, best_period) = optimal_mapping(&g, &spec).unwrap();
        for config in kinds() {
            let form = Formulation::build(&g, &spec, &config);
            let res = solve_mip(&form.model, &exact, &[], None).unwrap();
            let (obj, x) = res.incumbent.as_ref().expect("the search finds a mapping");
            assert!(
                close(obj * form.time_scale(), best_period, 1e-6),
                "{} {:?}: B&B {} vs brute force {best_period}",
                g.name(),
                config.kind,
                obj * form.time_scale()
            );
            // and the incumbent decodes to a mapping that really has it
            let m = Mapping::new(&g, &spec, form.decode(x)).unwrap();
            assert!(close(evaluate(&g, &spec, &m).unwrap().period, best_period, 1e-6));
            assert!(res.warm_starts > 0 || res.nodes <= 2, "warm starts exercised");
        }
    }
}

/// The full `solve()` driver (seeds + rounding completion) at zero gap
/// returns a mapping of exactly the brute-force period.
#[test]
fn solve_driver_periods_agree_with_brute_force() {
    let spec = CellSpec::with_spes(2);
    for g in small_graphs() {
        let (_, best_period) = optimal_mapping(&g, &spec).unwrap();
        for formulation in kinds() {
            let mut exact = SolveOptions { formulation, ..SolveOptions::default() };
            exact.mip.rel_gap = 0.0;
            exact.mip.abs_gap = 1e-12;
            let out = cellstream_core::solve(&g, &spec, &exact).unwrap();
            assert!(
                close(out.period, best_period, 1e-9),
                "{} {:?}: solve() {} vs brute force {best_period}",
                g.name(),
                formulation.kind,
                out.period
            );
        }
    }
}

/// The sparse-column export is consistent with the model for both
/// encodings: same dimensions, same nonzero count as a row walk.
#[test]
fn sparse_columns_match_model_for_both_formkinds() {
    let spec = CellSpec::with_spes(2);
    let g = chain("cols", 5, &CostParams::default(), 3);
    for config in kinds() {
        let form = Formulation::build(&g, &spec, &config);
        let cols = form.sparse_columns();
        assert_eq!(cols.nrows(), form.model.n_cons(), "{:?}", config.kind);
        assert_eq!(cols.ncols(), form.model.n_vars(), "{:?}", config.kind);
        let (rows, ncols, nnz) = form.sparsity();
        assert_eq!((rows, ncols, nnz), (cols.nrows(), cols.ncols(), cols.nnz()));
        assert!(nnz > 0);
        // CSC must be dramatically sparser than a dense matrix
        assert!(nnz < rows * ncols / 4, "{:?}: nnz {nnz} of {}", config.kind, rows * ncols);
    }
}
