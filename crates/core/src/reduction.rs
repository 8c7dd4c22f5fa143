//! The NP-completeness reduction of paper §3.2, as executable code.
//!
//! `Cell-Mapping` is NP-complete by reduction from Minimum Multiprocessor
//! Scheduling on two machines: given tasks with per-machine lengths
//! `l(k, 1)`, `l(k, 2)` and a bound `B'`, build a Cell instance with one
//! PPE (machine 1), one SPE (machine 2), a chain application with
//! `wPPE(Tk) = l(k,1)`, `wSPE(Tk) = l(k,2)` and **zero-byte** data
//! (`data = 0`), and ask for throughput `≥ 1/B'`.
//!
//! The test-suite certifies both directions of the proof on random
//! instances: the optimal Cell period equals the optimal two-machine
//! makespan.

use cellstream_graph::{GraphError, StreamGraph, TaskSpec};
use cellstream_platform::{CellSpec, CellSpecBuilder};

/// An instance of Minimum Multiprocessor Scheduling restricted to two
/// machines (unrelated speeds): `lengths[k] = [l(k, machine1), l(k, machine2)]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoMachineInstance {
    /// Per-task lengths on each machine.
    pub lengths: Vec<[f64; 2]>,
}

impl TwoMachineInstance {
    /// Optimal makespan by exhaustive enumeration (2^n subsets).
    /// Only for test-sized instances.
    // check:allow(unused-pub): the exhaustive 2-PARTITION oracle the
    // reduction's tests compare the Cell optimum against
    pub fn optimal_makespan(&self) -> f64 {
        let n = self.lengths.len();
        assert!(n <= 24, "exhaustive makespan only for small instances");
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << n) {
            let mut m1 = 0.0;
            let mut m2 = 0.0;
            for (k, l) in self.lengths.iter().enumerate() {
                if mask & (1 << k) != 0 {
                    m1 += l[0];
                } else {
                    m2 += l[1];
                }
            }
            best = best.min(m1.max(m2));
        }
        best
    }
}

/// Build the Cell-Mapping instance `I2` of the proof: a chain application
/// with zero-size data on a 1-PPE + 1-SPE platform.
// check:allow(unused-pub): the executable §3.2 reduction, kept as the
// 2-PARTITION oracle a hardness or interval-mapping check compares against
pub fn reduce(instance: &TwoMachineInstance) -> Result<(StreamGraph, CellSpec), GraphError> {
    let mut b = StreamGraph::builder("reduction");
    let ids: Vec<_> = instance
        .lengths
        .iter()
        .enumerate()
        .map(|(k, l)| {
            b.add_task(TaskSpec::new(format!("T{}", k + 1)).ppe_cost(l[0]).spe_cost(l[1]))
        })
        .collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1], 0.0)?; // "communication costs are neglected"
    }
    let g = b.build()?;
    let spec = CellSpecBuilder::default().ppes(1).spes(1).build().expect("1+1 platform is valid");
    Ok((g, spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::optimal_mapping;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn reduction_builds_chain_with_zero_data() {
        let inst = TwoMachineInstance { lengths: vec![[1.0, 2.0], [3.0, 1.0], [2.0, 2.0]] };
        let (g, spec) = reduce(&inst).unwrap();
        assert_eq!(g.n_tasks(), 3);
        assert_eq!(g.n_edges(), 2);
        assert!(g.edges().iter().all(|e| e.data_bytes == 0.0));
        assert_eq!(spec.n_pes(), 2);
    }

    #[test]
    fn optimal_cell_period_equals_optimal_makespan() {
        // The heart of Theorem 1: solutions transfer both ways, so the
        // optima agree.
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..10 {
            let n = rng.gen_range(2..=8);
            let inst = TwoMachineInstance {
                lengths: (0..n)
                    .map(|_| [rng.gen_range(0.5..5.0), rng.gen_range(0.5..5.0)])
                    .collect(),
            };
            let makespan = inst.optimal_makespan();
            let (g, spec) = reduce(&inst).unwrap();
            let (_, period) = optimal_mapping(&g, &spec).expect("always feasible");
            assert!(
                (period - makespan).abs() < 1e-9,
                "trial {trial}: period {period} vs makespan {makespan}"
            );
        }
    }

    #[test]
    fn milp_certifies_the_reduction_too() {
        // Same equality through the MILP path (exact gap).
        let inst =
            TwoMachineInstance { lengths: vec![[2.0, 1.0], [1.0, 3.0], [2.5, 2.5], [0.5, 4.0]] };
        let makespan = inst.optimal_makespan();
        let (g, spec) = reduce(&inst).unwrap();
        let opts = crate::solve::SolveOptions {
            mip: cellstream_milp::bb::MipOptions { rel_gap: 0.0, ..Default::default() },
            ..Default::default()
        };
        let out = crate::solve::solve(&g, &spec, &opts).unwrap();
        assert!(
            (out.period - makespan).abs() < 1e-9,
            "MILP {} vs makespan {}",
            out.period,
            makespan
        );
    }
}
