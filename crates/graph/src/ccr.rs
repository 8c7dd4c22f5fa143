//! Communication-to-computation ratio (CCR) tooling.
//!
//! Paper §6.2: *"We compute the CCR of a scenario as the total number of
//! transferred elements divided by the number of operations on these
//! elements. In the experiments, the CCR goes from 0.775
//! (computation-intensive scenario) to 4.6 (communication-intensive
//! scenario)."*
//!
//! The paper never states the element/operation unit conversion, so this
//! reproduction pins one:
//!
//! ```text
//!            (total bytes per instance) / BYTES_PER_ELEMENT
//!   CCR  =  ─────────────────────────────────────────────────
//!            (compute seconds per instance) · EFFECTIVE_OP_RATE
//! ```
//!
//! with one *element* = one 4-byte word and an *effective operation rate*
//! of 10 Gop/s — the sustained (not peak) rate of Cell-era streaming
//! kernels, whose single-precision peak was 25.6 Gflop/s per SPE. The
//! two constants fold into a single reference bandwidth
//! [`DEFAULT_BW`] `= 4 B × 10 G/s = 40 GB/s`: a graph at CCR `c` moves
//! `c · 40 GB` per aggregate compute-second. `CCR < 1` is
//! computation-dominated, `CCR > 1` communication-dominated, exactly the
//! reading the paper gives its 0.775–4.6 sweep. DESIGN.md §2.2 places
//! the convention; `tests/paper_claims.rs` pins the Figure 8 trend it
//! yields (speed-up falling from CCR 0.775 to 4.6).
//!
//! "Bytes moved" counts both inter-task data (`data_{k,l}`) and
//! main-memory traffic (`read_k`, `write_k`) since both occupy the same
//! interfaces (paper §2.1: "memory accesses have to be counted as
//! communications").

use crate::edge::Edge;
use crate::graph::StreamGraph;
use crate::task::Task;

/// The byte↔operation conversion of the CCR convention:
/// 4 bytes/element × 10 G effective operations/s = 40 GB per
/// compute-second. (Distinct from the 25 GB/s *interface* bandwidth of
/// the platform model — this constant defines workload intensity, not
/// link capacity.)
pub const DEFAULT_BW: f64 = 40e9;

/// Breakdown of a CCR measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcrReport {
    /// Bytes per instance moved across inter-task edges.
    pub edge_bytes: f64,
    /// Bytes per instance moved to/from main memory.
    pub memory_bytes: f64,
    /// PE-averaged compute seconds per instance (`Σ (wPPE+wSPE)/2`).
    pub compute_seconds: f64,
    /// Interface bandwidth used for the ratio (bytes/s).
    pub bandwidth: f64,
    /// The ratio itself.
    pub ccr: f64,
}

/// Measure the CCR of a graph against a given interface bandwidth.
fn ccr_with(g: &StreamGraph, bandwidth: f64) -> CcrReport {
    assert!(bandwidth > 0.0, "bandwidth must be positive");
    let edge_bytes = g.total_edge_bytes();
    let memory_bytes = g.total_memory_bytes();
    let compute_seconds: f64 = g.tasks().iter().map(|t| 0.5 * (t.w_ppe + t.w_spe)).sum();
    let comm_seconds = (edge_bytes + memory_bytes) / bandwidth;
    CcrReport {
        edge_bytes,
        memory_bytes,
        compute_seconds,
        bandwidth,
        ccr: comm_seconds / compute_seconds,
    }
}

/// Measure the CCR under the default element/operation convention.
pub fn ccr(g: &StreamGraph) -> CcrReport {
    ccr_with(g, DEFAULT_BW)
}

/// Rescale every byte count (edge data, reads, writes) by a common factor
/// so that the graph's CCR becomes `target`. Compute costs, topology and
/// peeks are untouched — this is exactly how the paper derives its six
/// "variants of different communication-to-computation ratio" from each
/// base graph.
///
/// Panics if the graph moves zero bytes (the CCR of a communication-free
/// graph cannot be raised by scaling).
pub fn rescale_to_ccr(g: &StreamGraph, target: f64, bandwidth: f64) -> StreamGraph {
    assert!(target > 0.0, "target CCR must be positive");
    let now = ccr_with(g, bandwidth);
    assert!(now.edge_bytes + now.memory_bytes > 0.0, "cannot rescale a graph that moves no bytes");
    let factor = target / now.ccr;
    g.with_scaled(
        |t: &Task| {
            let mut t = t.clone();
            t.read_bytes *= factor;
            t.write_bytes *= factor;
            t
        },
        |e: &Edge| {
            let mut e = *e;
            e.data_bytes *= factor;
            e
        },
    )
}

/// The six CCR values swept in §6.2/Figure 8, evenly spaced from the
/// paper's reported extremes 0.775 to 4.6.
pub fn paper_ccr_sweep() -> [f64; 6] {
    let lo = 0.775;
    let hi = 4.6;
    let mut out = [0.0; 6];
    for (i, v) in out.iter_mut().enumerate() {
        *v = lo + (hi - lo) * i as f64 / 5.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    fn two_task_graph() -> StreamGraph {
        let mut b = StreamGraph::builder("g");
        let a = b.add_task(TaskSpec::new("a").ppe_cost(2e-6).spe_cost(2e-6).reads(1000.0));
        let c = b.add_task(TaskSpec::new("c").ppe_cost(2e-6).spe_cost(2e-6).writes(500.0));
        b.add_edge(a, c, 25_000.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn ccr_is_comm_time_over_compute_time() {
        let g = two_task_graph();
        let r = ccr_with(&g, 25e9);
        // bytes: 25000 edge + 1500 memory = 26500 -> 1.06 us on the wire
        // compute: 4 us
        assert!((r.edge_bytes - 25_000.0).abs() < 1e-9);
        assert!((r.memory_bytes - 1500.0).abs() < 1e-9);
        assert!((r.compute_seconds - 4e-6).abs() < 1e-18);
        let expect = (26_500.0 / 25e9) / 4e-6;
        assert!((r.ccr - expect).abs() < 1e-12, "{} vs {}", r.ccr, expect);
    }

    #[test]
    fn rescale_hits_target_exactly() {
        let g = two_task_graph();
        for target in paper_ccr_sweep() {
            let scaled = rescale_to_ccr(&g, target, 25e9);
            let got = ccr_with(&scaled, 25e9).ccr;
            assert!((got - target).abs() < 1e-9, "target {target}, got {got}");
            // compute costs untouched
            assert_eq!(scaled.task(crate::TaskId(0)).w_ppe, 2e-6);
        }
    }

    #[test]
    fn rescale_preserves_byte_proportions() {
        let g = two_task_graph();
        let scaled = rescale_to_ccr(&g, 4.6, 25e9);
        let ratio = scaled.edge(crate::EdgeId(0)).data_bytes / g.edge(crate::EdgeId(0)).data_bytes;
        let t0_ratio =
            scaled.task(crate::TaskId(0)).read_bytes / g.task(crate::TaskId(0)).read_bytes;
        assert!((ratio - t0_ratio).abs() < 1e-9);
    }

    #[test]
    fn sweep_matches_paper_extremes() {
        let sweep = paper_ccr_sweep();
        assert!((sweep[0] - 0.775).abs() < 1e-12);
        assert!((sweep[5] - 4.6).abs() < 1e-12);
        for w in sweep.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "moves no bytes")]
    fn rescale_rejects_communication_free_graph() {
        let mut b = StreamGraph::builder("dry");
        b.add_task(TaskSpec::new("only"));
        let g = b.build().unwrap();
        let _ = rescale_to_ccr(&g, 1.0, 25e9);
    }
}
