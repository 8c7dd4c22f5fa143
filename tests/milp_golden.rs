//! Golden pivot counts: what `planner_golden.rs` is to the heuristic
//! planners, for the MILP. `core::solve` on the paper's graphs 1 and 3
//! at two CCRs on a QS22, stopped by a 12-node cap at zero gap (never by
//! the clock), each pinned by `(nodes, lp_iterations, period.to_bits(),
//! period_bound.to_bits())` — the bound is the objective of the last LP
//! the search trusted, so its bits move with a single reordered addition.
//! The solver is deterministic, so a changed count is a changed *pivot
//! path* — a different pricing choice, ratio-test tie-break, tolerance or
//! floating-point summation order in `cellstream-milp` — never noise. A
//! kernel rewrite that claims "same pivots" must pass this file
//! unmodified. Re-record the table (the test prints it with
//! `-- --nocapture`) only when a change is meant to move the search, and
//! put the old and new rows side by side in CHANGES.md.
//!
//! These rows have only the PPE-only seed. Where its period is more than
//! twice the root LP's optimum, the root's raised lower bound on the
//! period (half the seed's) binds, and the row takes the path that
//! releases it and re-solves. Graph 1 @ 3.07 does not: with its tasks
//! beyond the local-store wall fixed off the SPEs, its root optimum is
//! its optimal period (16.97 µs, above half the seed's 22.39 µs), which
//! the search proves at the root.

use cellstream::core::{solve, SolveOptions};
use cellstream::daggen::paper;
use cellstream::milp::bb::MipOptions;
use cellstream::platform::CellSpec;
use std::time::Duration;

/// Index into `paper::ccr_variants` of the two CCRs pinned per graph:
/// the sweep's first point (0.775) and its fourth (3.07).
const CCR_POINTS: [usize; 2] = [0, 3];

/// `(nodes, lp_iterations, period bits, period-bound bits)`: graph 1 at
/// both CCRs, then graph 3.
const GOLDEN: [(u64, u64, u64, u64); 4] = [
    (12, 433, 0x3ef7792ebc071dd0, 0x3ecbef08d2b6dfa2), // graph 1 @ 0.775: 22.3859 us, bound 3.3300 us
    (1, 170, 0x3ef1cae047f1e72a, 0x3ef1cae047f1e72b), // graph 1 @ 3.070: 16.9682 us, bound 16.9682 us
    (12, 671, 0x3ef40aa0fd4efefc, 0x3ec1cc6762684af4), // graph 3 @ 0.775: 19.1131 us, bound 2.1217 us
    (12, 173, 0x3ef40aa0fd4efefc, 0x3ee63712d659b604), // graph 3 @ 3.070: 19.1131 us, bound 10.5930 us
];

#[test]
fn the_milp_takes_the_recorded_pivots() {
    let spec = CellSpec::qs22();
    let opts = SolveOptions {
        mip: MipOptions {
            rel_gap: 0.0,
            abs_gap: 0.0,
            max_nodes: 12,
            time_limit: Duration::from_secs(3600),
            ..MipOptions::default()
        },
        ..SolveOptions::default()
    };
    let mut rows = Vec::new();
    for (label, base) in [(1, paper::graph1()), (3, paper::graph3())] {
        let variants = paper::ccr_variants(&base);
        for &point in &CCR_POINTS {
            let (ccr, g) = &variants[point];
            let out = solve(g, &spec, &opts).expect("the PPE-only seed guarantees an incumbent");
            println!(
                "    ({}, {}, {:#018x}, {:#018x}), // graph {label} @ {ccr:.3}: {:.4} us, bound {:.4} us",
                out.nodes,
                out.lp_iterations,
                out.period.to_bits(),
                out.period_bound.to_bits(),
                out.period * 1e6,
                out.period_bound * 1e6
            );
            rows.push((format!("graph {label} @ CCR {ccr:.3}"), out));
        }
    }
    assert_eq!(rows.len(), GOLDEN.len());
    for ((name, out), golden) in rows.iter().zip(GOLDEN) {
        assert_eq!(
            (out.nodes, out.lp_iterations, out.period.to_bits(), out.period_bound.to_bits()),
            golden,
            "{name}: the pivot path moved; period {:e} (recorded {:e}), bound {:e} (recorded {:e})",
            out.period,
            f64::from_bits(golden.2),
            out.period_bound,
            f64::from_bits(golden.3)
        );
    }
}
