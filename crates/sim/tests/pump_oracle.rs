//! The pump's dirty rule against its oracles. The engine's pump visits
//! only the edges, memory reads, tasks and PEs an event marked; in debug
//! builds every pump is followed by a scan of all of them, which must
//! find nothing left to admit or start, and every pick from a PE's ready
//! queue is held to a full scan of the PE's tasks — a missing mark fails
//! one of those assertions inside `simulate`. This suite feeds them what
//! the hand-written tests do not: random `daggen` graphs (sources read
//! memory, sinks write it) under random and PPE-heavy mappings, paper
//! graph 1 with all fifty tasks in the PPE's queue, and the audio and
//! video apps (peeks, memory reads and writes) under random mappings, on
//! a stock QS22 and on a two-SPE Cell whose two DMA slots and one proxy
//! slot fill up, under both the ideal and the calibrated configuration.
//! In release builds the oracles are compiled out and what is left is
//! that every run completes.

use cellstream_apps::{audio, video};
use cellstream_core::Mapping;
use cellstream_daggen::{generate, paper, CostParams, DagGenParams};
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

/// Paper graph 1 with every task on the PPE: each pick pops one of up
/// to fifty queued tasks, and every edge is co-mapped, so only the
/// `ComputeDone` rules mark anything.
#[test]
fn a_ppe_only_mapping_of_paper_graph_1_runs_from_one_queue() {
    let spec = CellSpec::qs22();
    for (ccr, g) in paper::ccr_variants(&paper::graph1()) {
        let m = Mapping::new(&g, &spec, vec![PeId(0); g.n_tasks()]).unwrap();
        for config in [SimConfig::ideal(), SimConfig::calibrated()] {
            let trace = simulate(&g, &spec, &m, &config, 60);
            assert!(trace.is_ok(), "CCR {ccr}: {:?}", trace.err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The apps' tasks peek ahead and read and write main memory, so a
    /// finished read or write is what unblocks them; on the tight Cell
    /// those transfers also wait for DMA slots.
    #[test]
    fn apps_under_tight_dma_slots_leave_no_work_unmarked(
        video_app in any::<bool>(),
        picks in collection::vec(0usize..1024, 16..17),
        tight in any::<bool>(),
        calibrated in any::<bool>(),
    ) {
        let g = if video_app { video::graph() } else { audio::graph() }.unwrap();
        let spec = if tight { tight_cell() } else { CellSpec::qs22() };
        let assignment = g.task_ids().zip(&picks).map(|(_, &pe)| spec.pe(pe % spec.n_pes())).collect();
        let m = Mapping::new(&g, &spec, assignment).unwrap();
        let config = if calibrated { SimConfig::calibrated() } else { SimConfig::ideal() };
        let trace = simulate(&g, &spec, &m, &config, 40);
        prop_assert!(trace.is_ok(), "{:?}", trace.err());
        prop_assert_eq!(trace.unwrap().completions.len(), 40);
    }
}
