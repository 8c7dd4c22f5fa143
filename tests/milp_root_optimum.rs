//! The optimum any pivot path must reach: the root relaxation of Linear
//! Program (1) solved by the dual simplex, on the instances
//! `milp_golden.rs` pins — the paper's graphs 1 and 3 at CCR 0.775 and
//! 3.07 on a QS22 — and proven optimal by its certificate:
//! `Model::certify` checks the point and the row duals the solve returns
//! against the formulation's own rows, with no factorization (primal and
//! dual feasibility, complementary slackness, a zero duality gap). Three
//! starts are held to it: the slack basis; the basis branch and bound
//! roots its search at, `SparseLp::seeded_basis` of a seed — here the
//! best greedy mapping — whose objective must also equal the slack
//! root's; and that basis with the period bounded below by half the
//! seed's, `T ≥ ½·T_seed`, released at the optimum the way branch and
//! bound's root releases it. `milp_golden.rs` pins *how* the solver gets there (iteration
//! counts and bound bits move with any change to the update, pricing or
//! summation order); this file pins *where* it gets to — the optimum of
//! the primal LP, with the dual solution that proves it — so a change
//! that is meant to move the path is still held to an optimum.

use cellstream::core::{evaluate, Formulation, FormulationConfig, Mapping};
use cellstream::daggen::paper;
use cellstream::graph::StreamGraph;
use cellstream::heuristics::{comm_aware_greedy, greedy_cpu, greedy_mem};
use cellstream::milp::revised::VState;
use cellstream::milp::{Basis, LpOptions, LpStatus, SparseLp, SparseSolution};
use cellstream::platform::CellSpec;

/// Index into `paper::ccr_variants` of the two CCRs checked per graph,
/// the same two `milp_golden.rs` pins.
const CCR_POINTS: [usize; 2] = [0, 3];

/// Relative tolerance of the certificate, and of the seeded and shifted
/// roots' objectives against the slack root's.
const CERT_TOL: f64 = 1e-9;

/// The solver's primal feasibility tolerance: a period within it of the
/// raised bound counts as resting on it.
const FEAS_TOL: f64 = 1e-7;

/// Every pinned instance: its name, graph and formulation.
fn instances(spec: &CellSpec) -> Vec<(String, StreamGraph, Formulation)> {
    let mut out = Vec::new();
    for (label, base) in [(1, paper::graph1()), (3, paper::graph3())] {
        let variants = paper::ccr_variants(&base);
        for &point in &CCR_POINTS {
            let (ccr, g) = &variants[point];
            let form = Formulation::build(g, spec, &FormulationConfig::default());
            out.push((format!("graph {label} @ CCR {ccr:.3}"), g.clone(), form));
        }
    }
    out
}

/// Solve the root relaxation of `form` from `start(lp)`, and check the
/// answer is optimal and certified.
fn certified_root(
    name: &str,
    form: &Formulation,
    start: impl Fn(&SparseLp) -> Basis,
) -> SparseSolution {
    let lp = SparseLp::from_model(&form.model).expect("Linear Program (1) is valid");
    certified(name, form, solved(name, &lp, &start(&lp)))
}

/// `lp` solved from `basis` by the dual simplex, which must accept it.
fn solved(name: &str, lp: &SparseLp, basis: &Basis) -> SparseSolution {
    lp.solve_dual_from(basis, &LpOptions::default())
        .unwrap_or_else(|e| panic!("{name}: the start was refused ({e:?})"))
}

/// `root`, once it is checked optimal and certified against `form`.
fn certified(name: &str, form: &Formulation, root: SparseSolution) -> SparseSolution {
    assert_eq!(root.status, LpStatus::Optimal, "{name}");
    if let Err(e) = form.model.certify(&root.x, &root.duals, CERT_TOL) {
        panic!("{name}: the root at {:e} is not certified: {e}", root.objective);
    }
    root
}

/// The best feasible greedy mapping of `g`, with its period.
fn best_greedy(g: &StreamGraph, spec: &CellSpec) -> (f64, Mapping) {
    [greedy_mem(g, spec), greedy_cpu(g, spec), comm_aware_greedy(g, spec)]
        .into_iter()
        .filter_map(|m| {
            evaluate(g, spec, &m).ok().filter(|r| r.is_feasible()).map(|r| (r.period, m))
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("a greedy mapping is feasible")
}

/// Whether `a` equals the slack root's objective `slack` within
/// `CERT_TOL` relative.
fn same_optimum(a: f64, slack: f64) -> bool {
    (a - slack).abs() <= CERT_TOL * slack.abs()
}

#[test]
fn the_dual_root_reaches_the_primal_optimum() {
    let spec = CellSpec::qs22();
    for (name, _, form) in instances(&spec) {
        // every cost of Linear Program (1) is >= 0: the slack basis is
        // dual feasible
        let root = certified_root(&name, &form, SparseLp::slack_basis);
        println!("{name}: dual {:e} in {} pivots", root.objective, root.iterations);
    }
}

/// The start branch and bound uses when a seed survives: the slack basis
/// with the seed's α columns basic in their (1b) rows. It must be
/// accepted as a dual start (a refusal falls back to the slack basis in
/// the search, which would hide a wrong pick here) and reach the slack
/// root's optimum.
#[test]
fn the_seeded_root_reaches_the_same_optimum() {
    let spec = CellSpec::qs22();
    for (name, g, form) in instances(&spec) {
        let (period, seed) = best_greedy(&g, &spec);
        let x = form.encode(&spec, &seed, period);
        let lp = SparseLp::from_model(&form.model).expect("Linear Program (1) is valid");
        let n = lp.n_structural();
        let entered = lp.seeded_basis(&x).cols.iter().filter(|&&j| j < n).count();
        assert_eq!(entered, g.n_tasks(), "{name}: every task's α enters its (1b) row");
        let slack = certified_root(&name, &form, SparseLp::slack_basis);
        let seeded = certified_root(&name, &form, |lp| lp.seeded_basis(&x));
        assert!(
            same_optimum(seeded.objective, slack.objective),
            "{name}: seeded root {:e}, slack root {:e}",
            seeded.objective,
            slack.objective
        );
        println!(
            "{name}: seeded {:e} in {} pivots, slack {:e} in {}",
            seeded.objective, seeded.iterations, slack.objective, slack.iterations
        );
    }
}

/// The start branch and bound's root takes: the seeded basis with the
/// period bounded below by half the seed's (`T ≥ ½·T_seed`; `T`'s own
/// bound is 0), released at the optimum. With `T` basic above the raised
/// bound that optimum stands; with `T` on it, the LP re-solves unshifted
/// from its basis. Either way the answer must be certified against the
/// unshifted model and equal the slack root's.
#[test]
fn the_shifted_root_reaches_the_same_optimum() {
    let spec = CellSpec::qs22();
    for (name, g, form) in instances(&spec) {
        let (period, seed) = best_greedy(&g, &spec);
        let x = form.encode(&spec, &seed, period);
        let t = form.t_var().index();
        let mut lp = SparseLp::from_model(&form.model).expect("Linear Program (1) is valid");
        let (lo, hi) = lp.bounds(t);
        assert_eq!(lo, 0.0, "{name}: T's own lower bound");
        let raised = 0.5 * x[t];
        lp.set_bounds(t, raised, hi);
        let shifted = solved(&name, &lp, &lp.seeded_basis(&x));
        assert_eq!(shifted.status, LpStatus::Optimal, "{name}: a seed lies above the raised bound");
        lp.set_bounds(t, lo, hi);
        let holds =
            matches!(shifted.basis.state[t], VState::Basic(_)) && shifted.x[t] - raised > FEAS_TOL;
        let root = if holds { shifted } else { solved(&name, &lp, &shifted.basis) };
        let root = certified(&name, &form, root);
        let slack = certified_root(&name, &form, SparseLp::slack_basis);
        assert!(
            same_optimum(root.objective, slack.objective),
            "{name}: shifted root {:e}, slack root {:e}",
            root.objective,
            slack.objective
        );
        println!(
            "{name}: shifted {:e} in {} pivots ({}), T_seed/2 {raised:e}, slack {:e} in {}",
            root.objective,
            root.iterations,
            if holds { "held" } else { "released" },
            slack.objective,
            slack.iterations
        );
    }
}
