//! Task → processing-element mappings (paper §3.1).
//!
//! The paper restricts itself to *single-assignment* mappings: all
//! instances of a task run on the same PE. (General, replicated mappings
//! are possible in steady-state scheduling \[4\] but need complex flow
//! control and larger buffers — unaffordable with 256 kB local stores.)

use cellstream_graph::{StreamGraph, TaskId};
use cellstream_platform::{CellSpec, PeId};
use std::fmt;

/// Errors constructing a mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// Assignment vector length does not match the task count.
    WrongLength {
        /// Expected number of tasks.
        expected: usize,
        /// Provided vector length.
        got: usize,
    },
    /// A task is assigned to a PE outside the platform.
    UnknownPe(TaskId, PeId),
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::WrongLength { expected, got } => {
                write!(f, "mapping covers {got} tasks, graph has {expected}")
            }
            MappingError::UnknownPe(t, pe) => write!(f, "{t} mapped to non-existent {pe}"),
        }
    }
}

impl std::error::Error for MappingError {}

/// A single-assignment mapping: `assignment[k]` is the PE processing every
/// instance of task `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    assignment: Vec<PeId>,
}

serde::impl_json_struct!(Mapping { assignment });

impl Mapping {
    /// Build from an explicit assignment vector, validated against the
    /// graph and platform.
    pub fn new(
        g: &StreamGraph,
        spec: &CellSpec,
        assignment: Vec<PeId>,
    ) -> Result<Self, MappingError> {
        let m = Mapping { assignment };
        m.validate(g, spec)?;
        Ok(m)
    }

    /// Check this mapping against a graph and platform without cloning the
    /// assignment: length must match the task count, every PE must exist.
    /// This is what `evaluate` and `EvalState::new` run on deserialised
    /// mappings — allocation-free, O(K).
    pub fn validate(&self, g: &StreamGraph, spec: &CellSpec) -> Result<(), MappingError> {
        if self.assignment.len() != g.n_tasks() {
            return Err(MappingError::WrongLength {
                expected: g.n_tasks(),
                got: self.assignment.len(),
            });
        }
        for (k, &pe) in self.assignment.iter().enumerate() {
            if pe.index() >= spec.n_pes() {
                return Err(MappingError::UnknownPe(TaskId(k), pe));
            }
        }
        Ok(())
    }

    /// Everything on one PE (the PPE-only baseline of §6.4.2 when `pe` is
    /// the PPE).
    pub fn all_on(g: &StreamGraph, pe: PeId) -> Self {
        Mapping { assignment: vec![pe; g.n_tasks()] }
    }

    /// The PE of a task.
    pub fn pe_of(&self, t: TaskId) -> PeId {
        self.assignment[t.index()]
    }

    /// The raw assignment slice.
    pub fn assignment(&self) -> &[PeId] {
        &self.assignment
    }

    /// Tasks mapped on `pe`, in id order.
    pub fn tasks_on(&self, pe: PeId) -> impl Iterator<Item = TaskId> + '_ {
        self.assignment.iter().enumerate().filter(move |&(_, &p)| p == pe).map(|(k, _)| TaskId(k))
    }

    /// Number of tasks mapped on `pe`.
    pub fn count_on(&self, pe: PeId) -> usize {
        self.assignment.iter().filter(|&&p| p == pe).count()
    }

    /// `true` if the edge crosses between two different PEs (and hence
    /// costs bandwidth and a DMA slot).
    fn is_cut(&self, g: &StreamGraph, e: cellstream_graph::EdgeId) -> bool {
        let edge = g.edge(e);
        self.pe_of(edge.src) != self.pe_of(edge.dst)
    }

    /// Number of cut edges.
    pub fn n_cut_edges(&self, g: &StreamGraph) -> usize {
        g.edge_ids().filter(|&e| self.is_cut(g, e)).count()
    }

    /// Rebind one task (used by local-search heuristics). Panics on
    /// out-of-range task ids — mappings and graphs travel together.
    pub fn with_move(&self, t: TaskId, pe: PeId) -> Self {
        let mut next = self.clone();
        next.assignment[t.index()] = pe;
        next
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (k, pe) in self.assignment.iter().enumerate() {
            if k > 0 {
                write!(f, " ")?;
            }
            write!(f, "T{k}→{pe}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_daggen::{chain, CostParams};

    #[test]
    fn validation_rejects_bad_lengths_and_pes() {
        let g = chain("c", 3, &CostParams::default(), 1);
        let spec = CellSpec::with_spes(2);
        assert!(matches!(
            Mapping::new(&g, &spec, vec![PeId(0)]),
            Err(MappingError::WrongLength { expected: 3, got: 1 })
        ));
        assert!(matches!(
            Mapping::new(&g, &spec, vec![PeId(0), PeId(9), PeId(0)]),
            Err(MappingError::UnknownPe(TaskId(1), PeId(9)))
        ));
        assert!(Mapping::new(&g, &spec, vec![PeId(0), PeId(2), PeId(1)]).is_ok());
    }

    #[test]
    fn tasks_on_and_counts() {
        let g = chain("c", 4, &CostParams::default(), 1);
        let spec = CellSpec::with_spes(2);
        let m = Mapping::new(&g, &spec, vec![PeId(0), PeId(1), PeId(1), PeId(2)]).unwrap();
        assert_eq!(m.count_on(PeId(1)), 2);
        assert_eq!(m.tasks_on(PeId(1)).collect::<Vec<_>>(), vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn cut_edges_counted() {
        let g = chain("c", 4, &CostParams::default(), 1);
        let spec = CellSpec::with_spes(2);
        let m = Mapping::new(&g, &spec, vec![PeId(0), PeId(0), PeId(1), PeId(1)]).unwrap();
        assert_eq!(m.n_cut_edges(&g), 1);
        let all = Mapping::all_on(&g, PeId(0));
        assert_eq!(all.n_cut_edges(&g), 0);
    }

    #[test]
    fn with_move_is_pure() {
        let g = chain("c", 3, &CostParams::default(), 1);
        let m = Mapping::all_on(&g, PeId(0));
        let m2 = m.with_move(TaskId(1), PeId(2));
        assert_eq!(m.pe_of(TaskId(1)), PeId(0));
        assert_eq!(m2.pe_of(TaskId(1)), PeId(2));
    }

    #[test]
    fn serde_round_trip() {
        let g = chain("c", 3, &CostParams::default(), 1);
        let spec = CellSpec::ps3();
        let m = Mapping::new(&g, &spec, vec![PeId(0), PeId(3), PeId(6)]).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: Mapping = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
