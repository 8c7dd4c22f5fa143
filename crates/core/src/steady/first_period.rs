//! `firstPeriod` computation (paper §4.2).
//!
//! In the periodic steady-state schedule, the first instance of task `Tk`
//! is processed in period `firstPeriod(Tk)`:
//!
//! ```text
//! firstPeriod(Tk) = 0                                    if Tk has no predecessor
//!                 = max_{D_{j,k}} firstPeriod(Tj) + peek_k + 2   otherwise
//! ```
//!
//! Rationale (quoting the paper): *"All predecessors of an instance of
//! task Tk are processed after max(firstPeriod(Tj)) + 1 periods. We have
//! also to wait for peek_k additional periods if some following instances
//! are needed, plus one period for the communication."*
//!
//! > **Fidelity note.** The paper's worked example (Figure 3: a task `T3`
//! > with `peek = 1` whose predecessor has `firstPeriod = 0`) states
//! > `firstPeriod(T3) = 4`, but the printed recurrence evaluates to
//! > `0 + 1 + 2 = 3`. We implement the recurrence *exactly as printed* —
//! > it is the formula the buffer sizes (and therefore constraint (1i))
//! > are built on; the off-by-one in the prose example does not affect
//! > any reported result because every quantity downstream only uses
//! > *differences* of `firstPeriod` along edges, which the recurrence
//! > defines consistently.
//!
//! `firstPeriod` is **mapping-independent**: the paper deliberately
//! charges one communication period on every edge even between co-mapped
//! tasks ("we let this optimization for future work"). That is what makes
//! the buffer sizes constants of the graph, and constraint (1i) linear.
//! The co-mapping optimisation the paper defers is implemented as an
//! opt-in ablation in the `ablations` example (see DESIGN.md).

use cellstream_graph::StreamGraph;

/// Compute `firstPeriod` for every task, indexed by task id.
///
/// ```
/// use cellstream_daggen::shapes::figure3;
/// use cellstream_core::steady::first_periods;
///
/// let g = figure3(); // T1 -> T2, T1 -> T3 with peek(T3) = 1
/// let fp = first_periods(&g);
/// assert_eq!(fp, vec![0, 2, 3]); // recurrence as printed in the paper
/// ```
pub fn first_periods(g: &StreamGraph) -> Vec<u64> {
    let mut fp = vec![0u64; g.n_tasks()];
    for &t in g.topo_order() {
        let preds_max = g.predecessors(t).map(|p| fp[p.index()]).max();
        fp[t.index()] = match preds_max {
            None => 0,
            Some(m) => m + g.task(t).peek as u64 + 2,
        };
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_daggen::{chain, CostParams};
    use cellstream_graph::{StreamGraph, TaskSpec};

    #[test]
    fn sources_start_at_zero() {
        let g = chain("c", 5, &CostParams::default(), 3);
        let fp = first_periods(&g);
        assert_eq!(fp[0], 0);
    }

    #[test]
    fn chain_without_peek_steps_by_two() {
        let mut b = StreamGraph::builder("c");
        let ids: Vec<_> = (0..4).map(|i| b.add_task(TaskSpec::new(format!("t{i}")))).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 8.0).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(first_periods(&g), vec![0, 2, 4, 6]);
    }

    #[test]
    fn peek_adds_extra_periods() {
        let mut b = StreamGraph::builder("c");
        let a = b.add_task(TaskSpec::new("a"));
        let z = b.add_task(TaskSpec::new("z").peek(3));
        b.add_edge(a, z, 8.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(first_periods(&g), vec![0, 5]); // 0 + 3 + 2
    }

    #[test]
    fn join_takes_slowest_branch() {
        // a -> b -> d and a -> d: d must wait for b's output
        let mut b = StreamGraph::builder("j");
        let a = b.add_task(TaskSpec::new("a"));
        let mid = b.add_task(TaskSpec::new("b"));
        let d = b.add_task(TaskSpec::new("d"));
        b.add_edge(a, mid, 1.0).unwrap();
        b.add_edge(mid, d, 1.0).unwrap();
        b.add_edge(a, d, 1.0).unwrap();
        let g = b.build().unwrap();
        let fp = first_periods(&g);
        assert_eq!(fp, vec![0, 2, 4]); // max(0, 2) + 0 + 2
    }

    #[test]
    fn strictly_increasing_along_edges() {
        let g = cellstream_daggen::paper::graph2();
        let fp = first_periods(&g);
        for e in g.edges() {
            assert!(
                fp[e.dst.index()] >= fp[e.src.index()] + 2,
                "firstPeriod must grow by at least 2 along every edge"
            );
        }
    }

    #[test]
    fn disconnected_components_independent() {
        let mut b = StreamGraph::builder("two");
        let a = b.add_task(TaskSpec::new("a"));
        let z = b.add_task(TaskSpec::new("z"));
        let c = b.add_task(TaskSpec::new("c"));
        b.add_edge(a, z, 1.0).unwrap();
        let _ = c;
        let g = b.build().unwrap();
        assert_eq!(first_periods(&g), vec![0, 2, 0]);
    }
}
