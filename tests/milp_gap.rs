//! The paper's §6 solver contract: stopped at a 5 % gap, CPLEX was
//! "always within 5 %". Here the figure portfolio's seeded MILP member
//! (`examples/paper/mod.rs`) solves the three evaluation graphs at both
//! ends of the CCR sweep (0.775 and 4.6) on the QS22 with 4 000 nodes
//! and 8 000 LP iterations a solve:
//!
//! * graph 2 at CCR 0.775 carries the paper's 5 % contract proper: the
//!   bound sits within 5 % of the seeded incumbent as soon as the root
//!   LP solves;
//! * at CCR 4.6 all three graphs reach the paper's 5 % at the root
//!   (gaps 0.0 / 1.0 / 2.1 %): there, 4–35 of a graph's tasks have §4.2
//!   buffers larger than a whole local store, and Linear Program (1)
//!   fixes them off the SPEs before the first pivot;
//! * graph 1 at CCR 0.775 stops on the node cap at a 5.7 % gap (bound
//!   ≈3.42 µs against the 3.626 µs incumbent every heuristic reaches;
//!   at 50 000 nodes `examples/tab_lp.rs` proves it optimal at
//!   3.431 µs), under a 10 % regression ceiling;
//! * graph 3 at CCR 0.775 stops on the node cap at 9.9 %, under a 20 %
//!   ceiling: its bound is where CPLEX's cutting planes would still be
//!   needed (DESIGN.md, deviation 1).
//!
//! The node cap or the gap must be the stop that binds, never the
//! clock: the time limit sits far above what a solve takes, and a solve
//! that reaches it fails.

#[path = "../examples/paper/mod.rs"]
mod paper;

use cellstream::core::SolveOptions;
use cellstream::daggen::paper as graphs;
use cellstream::graph::StreamGraph;
use cellstream::milp::{LpOptions, MipOptions, MipStatus};
use cellstream::platform::CellSpec;
use paper::{milp_plan, milp_stats};
use std::time::Duration;

const MAX_NODES: u64 = 4_000;
const MAX_LP_ITERATIONS: u64 = 8_000;

/// The gate: a solve stops within its gap ceiling.
fn gap_within(graph: &str, gap: f64, ceiling: f64) -> Result<(), String> {
    if gap <= ceiling + 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "GATE: {graph} stopped at gap {:.2}% (ceiling {:.0}%)",
            gap * 100.0,
            ceiling * 100.0
        ))
    }
}

/// Paper graph `index` (0-based) at its base CCR, 0.775.
fn at_base_ccr(index: usize) -> StreamGraph {
    graphs::at_base_ccr(&graphs::all_graphs()[index])
}

/// Paper graph `index` (0-based) at the sweep's last CCR, 4.6.
fn at_top_ccr(index: usize) -> StreamGraph {
    let (_, g) = graphs::ccr_variants(&graphs::all_graphs()[index]).pop().expect("a CCR sweep");
    g
}

/// Solve `g` and hold the stop to `ceiling`.
fn assert_stops_within(g: &StreamGraph, ceiling: f64) {
    let mip = MipOptions {
        rel_gap: 0.05,
        time_limit: Duration::from_secs(60),
        max_nodes: MAX_NODES,
        lp: LpOptions { max_iterations: MAX_LP_ITERATIONS },
        ..Default::default()
    };
    let plan = milp_plan(g, &CellSpec::qs22(), SolveOptions { mip, ..Default::default() });
    let (gap, nodes, lp_iterations, _, status) = milp_stats(&plan).expect("a MILP plan");
    eprintln!(
        "{}: {nodes} nodes, {lp_iterations} simplex iterations, gap {:.1}%, {status:?}",
        g.name(),
        gap * 100.0
    );
    assert_ne!(status, MipStatus::TimeLimit, "{}: the clock stopped the solve", g.name());
    gap_within(g.name(), gap, ceiling).unwrap_or_else(|refusal| panic!("{refusal}"));
}

#[test]
fn graph_1_stops_within_its_10_percent_ceiling() {
    assert_stops_within(&at_base_ccr(0), 0.10);
}

#[test]
fn graph_2_reaches_the_papers_5_percent() {
    assert_stops_within(&at_base_ccr(1), 0.05);
}

#[test]
fn graph_3_stops_within_its_20_percent_ceiling() {
    assert_stops_within(&at_base_ccr(2), 0.20);
}

#[test]
fn graph_1_at_ccr_4_6_reaches_the_papers_5_percent() {
    assert_stops_within(&at_top_ccr(0), 0.05);
}

#[test]
fn graph_2_at_ccr_4_6_reaches_the_papers_5_percent() {
    assert_stops_within(&at_top_ccr(1), 0.05);
}

#[test]
fn graph_3_at_ccr_4_6_reaches_the_papers_5_percent() {
    assert_stops_within(&at_top_ccr(2), 0.05);
}

#[test]
fn the_gap_gate_refuses_a_wide_or_a_nan_gap() {
    assert_eq!(gap_within("g", 0.05, 0.05), Ok(()));
    let refusal = gap_within("g", 0.0571, 0.05).unwrap_err();
    assert!(refusal.contains("g stopped at gap 5.71% (ceiling 5%)"), "{refusal}");
    assert!(gap_within("g", f64::NAN, 0.05).is_err());
}
