//! The pump's dirty rule against its oracle. The engine's pump visits
//! only the edges, memory reads and PEs an event marked; in debug builds
//! every pump is followed by a scan of all of them, which must find
//! nothing left to admit or start — a missing mark fails that assertion
//! inside `simulate`. This suite feeds it what the hand-written tests do
//! not: random `daggen` graphs (sources read memory, sinks write it) under
//! random and PPE-heavy mappings, on a stock QS22 and on a two-SPE Cell
//! whose two DMA slots and one proxy slot fill up, under both the ideal
//! and the calibrated configuration. In release builds the oracle is
//! compiled out and what is left is that every run completes.

use cellstream_core::Mapping;
use cellstream_daggen::{generate, CostParams, DagGenParams};
use cellstream_platform::{CellSpec, PeId};
use cellstream_sim::{simulate, SimConfig};
use proptest::prelude::*;

/// A Cell whose DMA queues fill up on small graphs: two SPEs, two
/// incoming DMA slots each, one SPE-to-PPE proxy slot.
fn tight_cell() -> CellSpec {
    CellSpec::builder().spes(2).dma_in_limit(2).dma_ppe_limit(1).build().expect("a valid machine")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_pump_leaves_work_unmarked(
        seed in 0u64..10_000,
        n in 4usize..28,
        picks in collection::vec((0.0f64..1.0, 0usize..1024), 28..29),
        ppe_heavy in any::<bool>(),
        tight in any::<bool>(),
        calibrated in any::<bool>(),
    ) {
        let g = generate("oracle", &DagGenParams {
            n, fat: 0.6, regular: 0.5, density: 0.4, jump: 2,
            costs: CostParams::default(),
        }, seed).unwrap();
        let spec = if tight { tight_cell() } else { CellSpec::qs22() };
        // a PPE-heavy mapping keeps three tasks in four on the PPE, so
        // most cut edges run between an SPE and the PPE
        let ppe_share = if ppe_heavy { 0.75 } else { 0.0 };
        let assignment = g.task_ids().zip(&picks).map(|(_, &(u, pe))| {
            if u < ppe_share { PeId(0) } else { spec.pe(pe % spec.n_pes()) }
        }).collect();
        let m = Mapping::new(&g, &spec, assignment).unwrap();
        let config = if calibrated { SimConfig::calibrated() } else { SimConfig::ideal() };
        let trace = simulate(&g, &spec, &m, &config, 40);
        prop_assert!(trace.is_ok(), "{:?}", trace.err());
        prop_assert_eq!(trace.unwrap().completions.len(), 40);
    }
}
