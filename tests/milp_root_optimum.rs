//! The optimum any pivot path must reach: the root relaxation of Linear
//! Program (1) solved by the dual simplex from the slack basis (the
//! branch-and-bound root path), on the instances `milp_golden.rs` pins —
//! the paper's graphs 1 and 3 at CCR 0.775 and 3.07 on a QS22 — and
//! proven optimal by its certificate: `Model::certify` checks the point
//! and the row duals the solve returns against the formulation's own
//! rows, with no factorization (primal and dual feasibility,
//! complementary slackness, a zero duality gap). `milp_golden.rs` pins
//! *how* the solver gets there (iteration counts and bound bits move
//! with any change to the update, pricing or summation order); this file
//! pins *where* it gets to — the optimum of the primal LP, with the dual
//! solution that proves it — so a change that is meant to move the path
//! is still held to an optimum.

use cellstream::core::{Formulation, FormulationConfig};
use cellstream::daggen::paper;
use cellstream::milp::{LpOptions, LpStatus, SparseLp};
use cellstream::platform::CellSpec;

/// Index into `paper::ccr_variants` of the two CCRs checked per graph,
/// the same two `milp_golden.rs` pins.
const CCR_POINTS: [usize; 2] = [0, 3];

/// Relative tolerance of the certificate.
const CERT_TOL: f64 = 1e-9;

#[test]
fn the_dual_root_reaches_the_primal_optimum() {
    let spec = CellSpec::qs22();
    let opts = LpOptions::default();
    for (label, base) in [(1, paper::graph1()), (3, paper::graph3())] {
        let variants = paper::ccr_variants(&base);
        for &point in &CCR_POINTS {
            let (ccr, g) = &variants[point];
            let form = Formulation::build(g, &spec, &FormulationConfig::default());
            let lp = SparseLp::from_model(&form.model).expect("Linear Program (1) is valid");
            let dual = lp.solve_dual_from(&lp.slack_basis(), &opts).expect(
                "every cost of Linear Program (1) is >= 0: the slack basis is dual feasible",
            );
            let name = format!("graph {label} @ CCR {ccr:.3}");
            assert_eq!(dual.status, LpStatus::Optimal, "{name}");
            println!("{name}: dual {:e} in {} pivots", dual.objective, dual.iterations);
            if let Err(e) = form.model.certify(&dual.x, &dual.duals, CERT_TOL) {
                panic!("{name}: the dual root at {:e} is not certified: {e}", dual.objective);
            }
        }
    }
}
