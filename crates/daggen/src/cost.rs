//! Streaming attribute distributions for generated tasks and edges.

use cellstream_graph::{StreamGraph, TaskSpec};
use rand::rngs::StdRng;
use rand::Rng;

/// Distributions from which task costs, peeks and payloads are drawn.
///
/// The defaults are chosen (DESIGN.md §6.2; the graphs they draw are
/// pinned by `tests/paper_claims.rs`) so that the paper's
/// CCR sweep interacts with all four resource classes of the Cell model
/// at once — compute, interface bandwidth, local-store capacity and DMA
/// slots — which is the regime the paper's §6.4 figures live in:
///
/// * `wPPE` is log-uniform in `[w_min, w_max]`;
/// * with probability `p_vector` a task is *vector-friendly*: its SPE
///   affinity (`wPPE/wSPE`) is uniform in `vector_affinity`; otherwise it
///   is *control-heavy* with affinity in `control_affinity` (< 1 ⇒ slower
///   on SPEs), reproducing the unrelated-machine mix of §2.1;
/// * `peek` is 0/1/2 with probabilities `p_peek` (Figure 5 shows peeks up
///   to 2); `stateful` with probability `p_stateful`;
/// * edge payloads are log-uniform in `[data_min, data_max]` bytes — CCR
///   rescaling multiplies them afterwards;
/// * stream sources `read` one payload-sized datum from main memory per
///   instance and sinks `write` one, so the stream enters and leaves the
///   Cell through the memory interface as on real hardware.
#[derive(Debug, Clone)]
pub struct CostParams {
    /// Lower bound of `wPPE` (seconds).
    pub w_min: f64,
    /// Upper bound of `wPPE` (seconds).
    pub w_max: f64,
    /// Probability a task is vector-friendly.
    pub p_vector: f64,
    /// SPE affinity range for vector-friendly tasks (values > 1).
    pub vector_affinity: (f64, f64),
    /// SPE affinity range for control-heavy tasks (values ≤ 1).
    pub control_affinity: (f64, f64),
    /// Probabilities of peek = 0, 1, 2 (must sum to 1).
    pub p_peek: [f64; 3],
    /// Probability a task is stateful.
    pub p_stateful: f64,
    /// Edge payload bounds in bytes (log-uniform).
    pub data_min: f64,
    /// Upper payload bound in bytes.
    pub data_max: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            // Sub-microsecond task costs: fine-grained stream filters, as
            // in the paper ("one instance consists only of a few bytes").
            // Jointly with the CCR convention this puts per-edge payloads
            // at a few kB once a graph is rescaled to CCR 0.775, so local
            // stores hold ~4 tasks each — the §6.3 regime where memory is
            // "one of the most significant factors".
            w_min: 0.12e-6,
            w_max: 1.2e-6,
            p_vector: 0.7,
            vector_affinity: (1.8, 3.5),
            control_affinity: (0.5, 0.95),
            p_peek: [0.6, 0.3, 0.1],
            p_stateful: 0.2,
            // A wide (16:1) payload spread: CCR rescaling preserves the
            // spread while setting the mean, and the spread is what lets
            // the MILP cherry-pick small-buffer tasks for the SPEs — the
            // knapsack quality gap behind Figure 7.
            data_min: 2.0 * 1024.0,
            data_max: 32.0 * 1024.0,
        }
    }
}

impl CostParams {
    /// Draw one task specification.
    pub fn draw_task(&self, rng: &mut StdRng, name: String) -> TaskSpec {
        let w_ppe = log_uniform(rng, self.w_min, self.w_max);
        let affinity = if rng.gen_bool(self.p_vector) {
            rng.gen_range(self.vector_affinity.0..=self.vector_affinity.1)
        } else {
            rng.gen_range(self.control_affinity.0..=self.control_affinity.1)
        };
        let w_spe = w_ppe / affinity;
        let r: f64 = rng.gen();
        let peek = if r < self.p_peek[0] {
            0
        } else if r < self.p_peek[0] + self.p_peek[1] {
            1
        } else {
            2
        };
        let mut spec = TaskSpec::new(name).ppe_cost(w_ppe).spe_cost(w_spe).peek(peek);
        if rng.gen_bool(self.p_stateful) {
            spec = spec.stateful();
        }
        spec
    }

    /// Draw one edge payload in bytes.
    pub fn draw_edge_bytes(&self, rng: &mut StdRng) -> f64 {
        log_uniform(rng, self.data_min, self.data_max).round()
    }

    /// Post-pass: give every source task a main-memory `read` and every
    /// sink a `write` equal to the mean payload of its adjacent edges (the
    /// stream has to come from and go to somewhere).
    pub fn attach_memory_traffic(&self, g: &StreamGraph) -> StreamGraph {
        let mean_payload = |edges: &[cellstream_graph::EdgeId]| -> f64 {
            if edges.is_empty() {
                (self.data_min + self.data_max) / 2.0
            } else {
                edges.iter().map(|&e| g.edge(e).data_bytes).sum::<f64>() / edges.len() as f64
            }
        };
        let mut b = StreamGraph::builder(g.name().to_string());
        for t in g.task_ids() {
            let task = g.task(t);
            let mut spec = TaskSpec {
                name: task.name.clone(),
                w_ppe: task.w_ppe,
                w_spe: task.w_spe,
                peek: task.peek,
                read_bytes: task.read_bytes,
                write_bytes: task.write_bytes,
                stateful: task.stateful,
            };
            if g.in_edges(t).is_empty() {
                spec.read_bytes = mean_payload(g.out_edges(t)).round();
            }
            if g.out_edges(t).is_empty() {
                spec.write_bytes = mean_payload(g.in_edges(t)).round();
            }
            b.add_task(spec);
        }
        for e in g.edges() {
            b.add_edge(e.src, e.dst, e.data_bytes).expect("copy of valid graph");
        }
        b.build().expect("copy of valid graph")
    }
}

fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    assert!(lo > 0.0 && hi >= lo);
    let (a, b) = (lo.ln(), hi.ln());
    (rng.gen_range(a..=b)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn drawn_tasks_within_distributions() {
        let p = CostParams::default();
        let mut rng = StdRng::seed_from_u64(5);
        let mut saw_vector = false;
        let mut saw_control = false;
        for i in 0..400 {
            let t = p.draw_task(&mut rng, format!("t{i}"));
            assert!(t.w_ppe >= p.w_min * 0.999 && t.w_ppe <= p.w_max * 1.001);
            let aff = t.w_ppe / t.w_spe;
            if aff > 1.0 {
                saw_vector = true;
                assert!(aff <= p.vector_affinity.1 * 1.001);
            } else {
                saw_control = true;
                assert!(aff >= p.control_affinity.0 * 0.999);
            }
            assert!(t.peek <= 2);
        }
        assert!(saw_vector && saw_control, "both affinity classes should appear");
    }

    #[test]
    fn edge_bytes_in_range() {
        let p = CostParams::default();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..200 {
            let d = p.draw_edge_bytes(&mut rng);
            assert!(d >= p.data_min - 1.0 && d <= p.data_max + 1.0);
        }
    }

    #[test]
    fn memory_traffic_on_boundaries_only() {
        let g = crate::chain("c", 4, &CostParams::default(), 9);
        // chain() already attaches traffic: source reads, sink writes
        let src = g.sources().next().unwrap();
        let sink = g.sinks().next().unwrap();
        assert!(g.task(src).read_bytes > 0.0);
        assert!(g.task(sink).write_bytes > 0.0);
        for t in g.task_ids() {
            if t != src && t != sink {
                assert_eq!(g.task(t).read_bytes, 0.0);
                assert_eq!(g.task(t).write_bytes, 0.0);
            }
        }
    }
}
