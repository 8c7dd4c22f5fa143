//! Communication-aware greedy (extension heuristic, paper §7).
//!
//! The paper's greedies fail because they ignore data transfers. This
//! variant keeps their one-pass, no-backtracking shape but scores every
//! candidate placement with the **incremental evaluator**
//! ([`cellstream_core::EvalState`]): all tasks start on the
//! PPE (the always-feasible baseline), then each task is visited once in
//! topological order and relocated to the PE that minimises the *full
//! mapping's* period — interface bandwidth, memory reads/writes, compute
//! load, local-store and DMA feasibility all count, exactly as the
//! verifier sees them. Staying on the PPE is always among the scored
//! candidates, so the period is monotone non-increasing along the pass:
//! the result is feasible and never worse than PPE-only, by construction.
//!
//! Each probe is an O(degree) `score_move`, so the whole pass is
//! O(K · n · degree) — the same shape as the old hand-rolled partial
//! accumulator version, but scoring the true period instead of a
//! truncated approximation of it.

use cellstream_core::{EvalState, Mapping, Move};
use cellstream_graph::StreamGraph;
use cellstream_platform::{CellSpec, PeId};

/// One-pass greedy that minimises the mapped period at each step.
pub fn comm_aware_greedy(g: &StreamGraph, spec: &CellSpec) -> Mapping {
    let ppe_only = Mapping::all_on(g, spec.pe(0));
    let mut state = EvalState::new(g, spec, &ppe_only).expect("PPE-only is structurally valid");

    for &t in g.topo_order() {
        let mut best: Option<(PeId, f64)> = None;
        for pe in spec.pes() {
            // a no-op relocate scores as the current period, so "stay put"
            // is covered by the same probe
            let score = state.score_move(Move::Relocate { task: t, to: pe });
            // strict `<` keeps the earliest PE on ties → deterministic
            if best.as_ref().is_none_or(|&(_, b)| score < b) {
                best = Some((pe, score));
            }
        }
        let (pe, _) = best.expect("the current PE is always scored");
        state.apply(Move::Relocate { task: t, to: pe });
    }
    state.mapping()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_core::evaluate;
    use cellstream_daggen::{chain, CostParams};

    #[test]
    fn comm_aware_feasible_and_not_worse_than_ppe_only() {
        for seed in [1, 5, 9] {
            let g = chain("c", 12, &CostParams::default(), seed);
            let spec = CellSpec::qs22();
            let m = comm_aware_greedy(&g, &spec);
            let r = evaluate(&g, &spec, &m).unwrap();
            assert!(r.is_feasible(), "seed {seed}: {:?}", r.violations);
            let ppe = evaluate(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
            assert!(
                r.period <= ppe.period + 1e-12,
                "seed {seed}: {} vs PPE-only {}",
                r.period,
                ppe.period
            );
        }
    }

    #[test]
    fn keeps_heavy_communicators_together() {
        use cellstream_graph::{StreamGraph, TaskSpec};
        // two tasks exchanging a huge datum: cutting the edge would make
        // the interfaces the bottleneck, so they must stay co-mapped
        let mut b = StreamGraph::builder("pair");
        let a = b.add_task(TaskSpec::new("a").ppe_cost(1e-6).spe_cost(0.9e-6));
        let z = b.add_task(TaskSpec::new("z").ppe_cost(1e-6).spe_cost(0.9e-6));
        b.add_edge(a, z, 2.0e6).unwrap(); // 80us on the wire >> 1us compute
        let g = b.build().unwrap();
        let spec = CellSpec::with_spes(2);
        let m = comm_aware_greedy(&g, &spec);
        assert_eq!(
            m.pe_of(cellstream_graph::TaskId(0)),
            m.pe_of(cellstream_graph::TaskId(1)),
            "heavy edge must not be cut: {m}"
        );
    }

    #[test]
    fn respects_local_store() {
        let g = chain("c", 30, &CostParams::default(), 13);
        let spec = CellSpec::ps3();
        let m = comm_aware_greedy(&g, &spec);
        let r = evaluate(&g, &spec, &m).unwrap();
        assert!(r.is_feasible(), "{:?}", r.violations);
    }

    #[test]
    fn respects_dma_limits_too() {
        use cellstream_graph::{StreamGraph, TaskSpec};
        // 20 PPE-friendly producers feeding one SPE-friendly sink: naively
        // offloading the sink would need 20 concurrent incoming DMAs (> 16)
        let mut b = StreamGraph::builder("fan");
        let producers: Vec<_> = (0..20)
            .map(|i| b.add_task(TaskSpec::new(format!("p{i}")).ppe_cost(1e-7).spe_cost(1e-5)))
            .collect();
        let sink = b.add_task(TaskSpec::new("sink").ppe_cost(1e-4).spe_cost(1e-6));
        for &p in &producers {
            b.add_edge(p, sink, 8.0).unwrap();
        }
        let g = b.build().unwrap();
        let spec = CellSpec::with_spes(2);
        let m = comm_aware_greedy(&g, &spec);
        let r = evaluate(&g, &spec, &m).unwrap();
        assert!(r.is_feasible(), "{:?}", r.violations);
    }

    #[test]
    fn deterministic() {
        let g = chain("c", 15, &CostParams::default(), 3);
        let spec = CellSpec::qs22();
        assert_eq!(comm_aware_greedy(&g, &spec), comm_aware_greedy(&g, &spec));
    }
}
