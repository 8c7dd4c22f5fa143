//! Frozen reconstructions of the paper's three evaluation workloads
//! (§6.2, Figure 5) and their CCR variants.
//!
//! The exact DagGen invocations behind Figure 5 were never published, so
//! these are *structural* reconstructions: the same generator family, the
//! same task counts, matching width/branching character, matching peek
//! ranges (0–1 for graph 1, 0–2 for graph 2) and the stateless/stateful
//! mix visible in the figure labels. Seeds are fixed once and recorded
//! here; the paper-figure examples (`fig6`, `fig7`, `fig8`, `tab_lp`,
//! `ablations`) always use these graphs.

use crate::cost::CostParams;
use crate::{generate, shapes, DagGenParams};
use cellstream_graph::ccr::{paper_ccr_sweep, rescale_to_ccr, DEFAULT_BW};
use cellstream_graph::StreamGraph;

/// Seed for random graph 1 (fixed once, never tuned per-experiment).
const GRAPH1_SEED: u64 = 0x5EED_0001;
/// Seed for random graph 2.
const GRAPH2_SEED: u64 = 0x5EED_0002;
/// Seed for random graph 3 (the 50-task chain).
const GRAPH3_SEED: u64 = 0x5EED_0003;

fn graph1_costs() -> CostParams {
    // Figure 5(a): peeks only 0/1.
    CostParams { p_peek: [0.6, 0.4, 0.0], ..CostParams::default() }
}

fn graph2_costs() -> CostParams {
    // Figure 5(b): peeks 0/1/2.
    CostParams { p_peek: [0.5, 0.3, 0.2], ..CostParams::default() }
}

/// Random graph 1: 50 tasks, narrow with some branching (Figure 5(a)).
pub fn graph1() -> StreamGraph {
    let params = DagGenParams {
        n: 50,
        fat: 0.45, // mean width ~3
        regular: 0.5,
        density: 0.15, // Figure 5(a) is sparse: mostly chains with some branching
        jump: 2,
        costs: graph1_costs(),
    };
    generate("random-graph-1", &params, GRAPH1_SEED).expect("valid parameters")
}

/// Random graph 2: 94 tasks, wider and denser (Figure 5(b)).
pub fn graph2() -> StreamGraph {
    let params = DagGenParams {
        n: 94,
        fat: 0.55, // mean width ~5
        regular: 0.5,
        density: 0.12, // Figure 5(b): wide but sparse
        jump: 3,
        costs: graph2_costs(),
    };
    generate("random-graph-2", &params, GRAPH2_SEED).expect("valid parameters")
}

/// Random graph 3: the 50-task chain.
pub fn graph3() -> StreamGraph {
    shapes::chain("random-graph-3", 50, &CostParams::default(), GRAPH3_SEED)
}

/// All three paper graphs, in order.
pub fn all_graphs() -> Vec<StreamGraph> {
    vec![graph1(), graph2(), graph3()]
}

/// The CCR variants of one graph: the §6.2 sweep from 0.775 to 4.6, as
/// `(ccr, rescaled graph)` pairs.
pub fn ccr_variants(g: &StreamGraph) -> Vec<(f64, StreamGraph)> {
    paper_ccr_sweep()
        .into_iter()
        .map(|target| (target, rescale_to_ccr(g, target, DEFAULT_BW)))
        .collect()
}

/// A graph rescaled to the paper's base CCR of 0.775 (used by Figures 6
/// and 7, which fix "a CCR of 0.775").
pub fn at_base_ccr(g: &StreamGraph) -> StreamGraph {
    rescale_to_ccr(g, 0.775, DEFAULT_BW)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_graph::algo;
    use cellstream_graph::ccr::ccr;

    #[test]
    fn graph1_matches_figure5a_character() {
        let g = graph1();
        assert_eq!(g.n_tasks(), 50);
        // narrow: critical path well over half the tasks' depth budget
        assert!(algo::critical_path_hops(&g) >= 8);
        // peeks only 0 or 1
        assert!(g.tasks().iter().all(|t| t.peek <= 1));
        // contains both stateful and stateless tasks, like the figure
        assert!(g.tasks().iter().any(|t| t.stateful));
        assert!(g.tasks().iter().any(|t| !t.stateful));
    }

    #[test]
    fn graph2_matches_figure5b_character() {
        let g = graph2();
        assert_eq!(g.n_tasks(), 94);
        assert!(g.tasks().iter().any(|t| t.peek == 2), "figure 5(b) has peek-2 tasks");
        assert!(g.n_edges() >= 93, "forward-connected");
    }

    #[test]
    fn graph3_is_a_chain() {
        let g = graph3();
        assert_eq!(g.n_tasks(), 50);
        assert_eq!(g.n_edges(), 49);
        assert_eq!(algo::critical_path_hops(&g), 49);
    }

    #[test]
    fn frozen_seeds_are_stable() {
        // Golden check: the graphs must never silently change, or every
        // recorded experiment comparison breaks.
        let g = graph1();
        let again = graph1();
        assert_eq!(g, again);
    }

    #[test]
    fn variants_hit_paper_ccrs() {
        let g = graph1();
        let variants = ccr_variants(&g);
        assert_eq!(variants.len(), 6);
        assert!((variants[0].0 - 0.775).abs() < 1e-12);
        assert!((variants[5].0 - 4.6).abs() < 1e-12);
        for (target, vg) in &variants {
            let measured = ccr(vg).ccr;
            assert!((measured - target).abs() < 1e-6, "target {target} got {measured}");
            // topology untouched
            assert_eq!(vg.n_tasks(), g.n_tasks());
            assert_eq!(vg.n_edges(), g.n_edges());
        }
    }

    #[test]
    fn base_ccr_is_0775() {
        let g = at_base_ccr(&graph2());
        assert!((ccr(&g).ccr - 0.775).abs() < 1e-6);
    }
}
