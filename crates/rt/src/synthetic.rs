//! Synthetic kernels: run *any* task graph on the threaded emulator by
//! turning each task's model cost into a calibrated busy-spin.
//!
//! This is how the paper's random DagGen applications were executed on
//! the real hardware — the graphs carry costs, not code. The scale
//! factor exists because model costs are sub-microsecond while busy-wait
//! timers on commodity OSes are only trustworthy above ~1 µs; scaling
//! every cost by the same factor preserves all ratios (and therefore all
//! scheduling behaviour) while keeping the emulation measurable.

use crate::kernels::{Kernel, SpinKernel};
use cellstream_graph::StreamGraph;
use cellstream_platform::PeKind;
use std::sync::Arc;

/// Build one kernel per task that spins for `scale × w(task, host)`.
///
/// The host kind must be decided per task up front (kernels are pinned
/// to the mapping's PE kind): pass the mapping-derived kind for each
/// task.
fn synthetic_kernels(g: &StreamGraph, host_kind: &[PeKind], scale: f64) -> Vec<Arc<dyn Kernel>> {
    assert_eq!(host_kind.len(), g.n_tasks(), "one host kind per task");
    assert!(scale > 0.0 && scale.is_finite());
    g.task_ids()
        .map(|t| {
            let w = g.task(t).cost_on(host_kind[t.index()]);
            Arc::new(SpinKernel::new(w * scale)) as Arc<dyn Kernel>
        })
        .collect()
}

/// Convenience: synthetic kernels for a concrete mapping.
pub fn synthetic_kernels_for_mapping(
    g: &StreamGraph,
    spec: &cellstream_platform::CellSpec,
    mapping: &cellstream_core::Mapping,
    scale: f64,
) -> Vec<Arc<dyn Kernel>> {
    let kinds: Vec<PeKind> = g.task_ids().map(|t| spec.kind_of(mapping.pe_of(t))).collect();
    synthetic_kernels(g, &kinds, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, RtConfig};
    use cellstream_core::Mapping;
    use cellstream_daggen::{chain, CostParams};
    use cellstream_platform::{CellSpec, PeId};

    #[test]
    fn synthetic_kernels_cover_all_tasks() {
        let g = chain("s", 5, &CostParams::default(), 3);
        let kinds = vec![PeKind::Ppe; 5];
        let kernels = synthetic_kernels(&g, &kinds, 10.0);
        assert_eq!(kernels.len(), 5);
    }

    #[test]
    fn synthetic_run_executes_and_scales_with_cost() {
        // one heavy task (10ms total) must dominate wall time
        use cellstream_graph::{StreamGraph, TaskSpec};
        let mut b = StreamGraph::builder("heavy");
        let a = b.add_task(TaskSpec::new("a").uniform_cost(10e-6));
        let z = b.add_task(TaskSpec::new("z").uniform_cost(0.1e-6));
        b.add_edge(a, z, 64.0).unwrap();
        let g = b.build().unwrap();
        let spec = CellSpec::with_spes(1);
        let m = Mapping::new(&g, &spec, vec![PeId(0), PeId(1)]).unwrap();
        let kernels = synthetic_kernels_for_mapping(&g, &spec, &m, 100.0); // 1 ms/instance
        let n = 20;
        let stats = run(&g, &spec, &m, &kernels, &RtConfig { n_instances: n }).unwrap();
        assert!(stats.processed.iter().all(|&c| c == n));
        // 20 instances x 1ms >= 20 ms of busy work on the bottleneck PE
        assert!(stats.wall.as_secs_f64() >= 0.018, "wall {:?}", stats.wall);
    }

    #[test]
    #[should_panic(expected = "one host kind per task")]
    fn kind_table_length_checked() {
        let g = chain("s", 3, &CostParams::default(), 1);
        let _ = synthetic_kernels(&g, &[PeKind::Ppe], 1.0);
    }
}
