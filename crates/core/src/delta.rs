//! Migration cost between two mappings — the price of *changing* a plan.
//!
//! The paper computes one mapping offline and never revisits it; an
//! online serving layer replans whenever an application arrives,
//! departs, or changes rate. Adopting a new mapping is not free: every
//! task that changes host must have its state and in-flight stream
//! buffers copied across the EIB while the steady state drains and
//! refills. [`MappingDelta`] quantifies that price by diffing two
//! mappings — possibly of **different** workload versions, so tasks are
//! matched by their composed *name* (`"app/task"`, stable across
//! `Workload` recompositions) rather than by positional [`TaskId`].
//!
//! The cost model: a moved task `T_k` must transfer its local-store
//! working set — the buffers of all its incident edges,
//! `buff(k) = Σ_{(j,k)} buff(j,k) + Σ_{(k,l)} buff(k,l)` (paper §4.2,
//! the same figure that counts against the 256 kB local store) — from
//! the old host to the new one. Tasks entering the workload have no
//! state to move and tasks leaving discard theirs, so only *moved*
//! survivors pay. [`MappingDelta::migration_time`] converts the total
//! byte count into seconds over the EIB, the bus every PE-to-PE copy
//! crosses.

use crate::mapping::Mapping;
use crate::steady::buffers::BufferPlan;
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_platform::{CellSpec, PeId};
use std::collections::HashMap;
use std::fmt;

/// One surviving task that changes host.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskMove {
    /// Composed task name (`"app/task"` for workload graphs).
    pub task: String,
    /// Task id in the **new** graph.
    pub new_id: TaskId,
    /// Old host.
    pub from: PeId,
    /// New host.
    pub to: PeId,
    /// Bytes of state + stream buffers that cross the EIB for this move
    /// (the task's §4.2 buffer working set, sized on the new graph).
    pub bytes: f64,
}

/// The difference between two mappings, task-name matched so it stays
/// meaningful across workload admissions and retirements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MappingDelta {
    /// Surviving tasks whose host changed, in new-graph id order.
    pub moved: Vec<TaskMove>,
    /// Tasks only present in the new mapping (admitted applications):
    /// placed fresh, no migration cost.
    pub placed: Vec<String>,
    /// Tasks only present in the old mapping (retired applications):
    /// their state is discarded, no migration cost.
    pub dropped: Vec<String>,
    /// Total migration traffic: `Σ` over moved tasks of their buffer
    /// working set, in bytes.
    pub migration_bytes: f64,
}

impl MappingDelta {
    /// Diff `old` (a mapping of `old_g`) against `new` (a mapping of
    /// `new_g`). The graphs may be different versions of a mutating
    /// workload; tasks are matched by name.
    pub fn between(
        old_g: &StreamGraph,
        old_m: &Mapping,
        new_g: &StreamGraph,
        new_m: &Mapping,
    ) -> MappingDelta {
        assert_eq!(old_m.assignment().len(), old_g.n_tasks(), "old mapping/graph mismatch");
        assert_eq!(new_m.assignment().len(), new_g.n_tasks(), "new mapping/graph mismatch");
        let old_by_name: HashMap<&str, TaskId> =
            old_g.tasks().iter().enumerate().map(|(i, t)| (t.name.as_str(), TaskId(i))).collect();
        let plan = BufferPlan::new(new_g);

        let mut delta = MappingDelta::default();
        let mut survived = vec![false; old_g.n_tasks()];
        for (i, task) in new_g.tasks().iter().enumerate() {
            let new_id = TaskId(i);
            match old_by_name.get(task.name.as_str()) {
                Some(&old_id) => {
                    survived[old_id.index()] = true;
                    let (from, to) = (old_m.pe_of(old_id), new_m.pe_of(new_id));
                    if from != to {
                        let bytes = plan.for_task(new_id);
                        delta.migration_bytes += bytes;
                        delta.moved.push(TaskMove {
                            task: task.name.clone(),
                            new_id,
                            from,
                            to,
                            bytes,
                        });
                    }
                }
                None => delta.placed.push(task.name.clone()),
            }
        }
        for (i, s) in survived.iter().enumerate() {
            if !s {
                delta.dropped.push(old_g.tasks()[i].name.clone());
            }
        }
        delta
    }

    /// The no-change delta (same graph, same mapping).
    pub fn is_empty(&self) -> bool {
        self.moved.is_empty() && self.placed.is_empty() && self.dropped.is_empty()
    }

    /// Number of surviving tasks that change host.
    pub fn n_moved(&self) -> usize {
        self.moved.len()
    }

    /// Seconds the migration traffic occupies the EIB:
    /// `migration_bytes / eib_bw`. The one-off cost a replanner weighs
    /// against the per-round period gain of the new mapping.
    pub fn migration_time(&self, spec: &CellSpec) -> f64 {
        if self.migration_bytes == 0.0 {
            return 0.0;
        }
        self.migration_bytes / spec.eib_bw().as_bytes_per_s()
    }
}

impl fmt::Display for MappingDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} moved ({:.1} KiB), {} placed, {} dropped",
            self.moved.len(),
            self.migration_bytes / 1024.0,
            self.placed.len(),
            self.dropped.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_graph::{StreamGraph, TaskSpec, Workload};
    use cellstream_platform::CellSpec;

    fn two_stage(name: &str, bytes: f64) -> StreamGraph {
        let mut b = StreamGraph::builder(name);
        let s = b.add_task(TaskSpec::new("s").uniform_cost(1e-6));
        let t = b.add_task(TaskSpec::new("t").uniform_cost(1e-6));
        b.add_edge(s, t, bytes).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn identical_mappings_have_empty_delta() {
        let g = two_stage("a", 256.0);
        let spec = CellSpec::ps3();
        let m = Mapping::all_on(&g, PeId(0));
        let d = MappingDelta::between(&g, &m, &g, &m);
        assert!(d.is_empty());
        assert_eq!(d.migration_bytes, 0.0);
        assert_eq!(d.migration_time(&spec), 0.0);
    }

    #[test]
    fn moves_carry_the_buffer_working_set() {
        let g = two_stage("a", 256.0);
        let spec = CellSpec::ps3();
        let old = Mapping::all_on(&g, PeId(0));
        let new = Mapping::new(&g, &spec, vec![PeId(1), PeId(0)]).unwrap();
        let d = MappingDelta::between(&g, &old, &g, &new);
        assert_eq!(d.n_moved(), 1);
        assert_eq!(d.moved[0].task, "s");
        assert_eq!((d.moved[0].from, d.moved[0].to), (PeId(0), PeId(1)));
        // the moved task's working set is its edge buffer (cross-PE edge:
        // firstPeriod span ≥ 1 slot of 256 bytes)
        let plan = BufferPlan::new(&g);
        assert_eq!(d.migration_bytes, plan.for_task(TaskId(0)));
        assert!(d.migration_bytes >= 256.0);
        assert!(d.migration_time(&spec) > 0.0);
        assert!(
            (d.migration_time(&spec) - d.migration_bytes / spec.eib_bw().as_bytes_per_s()).abs()
                < 1e-18
        );
    }

    #[test]
    fn cross_version_diff_matches_by_name() {
        // workload {a} -> workload {a, b}: a's surviving task moves,
        // b's tasks are placed fresh
        let a = two_stage("a", 128.0);
        let b = two_stage("b", 64.0);
        let spec = CellSpec::ps3();
        let old_w = Workload::compose("w", &[&a]).unwrap();
        let mut new_w = old_w.clone();
        new_w.add(&b, 1.0).unwrap();

        let old_m = Mapping::all_on(old_w.graph(), PeId(0));
        // in the new composition: a/s stays on PE0, a/t moves to PE2,
        // b/* placed on PE1
        let new_m =
            Mapping::new(new_w.graph(), &spec, vec![PeId(0), PeId(2), PeId(1), PeId(1)]).unwrap();
        let d = MappingDelta::between(old_w.graph(), &old_m, new_w.graph(), &new_m);
        assert_eq!(d.n_moved(), 1);
        assert_eq!(d.moved[0].task, "a/t");
        assert_eq!(d.placed, vec!["b/s".to_owned(), "b/t".to_owned()]);
        assert!(d.dropped.is_empty());

        // and the reverse direction (retirement) drops b's tasks
        let back = MappingDelta::between(new_w.graph(), &new_m, old_w.graph(), &old_m);
        assert_eq!(back.dropped, vec!["b/s".to_owned(), "b/t".to_owned()]);
        assert_eq!(back.n_moved(), 1, "a/t moves back");
        assert!(back.placed.is_empty());
    }

    #[test]
    fn renamed_app_still_name_matches() {
        // the serving layer uniquifies duplicate admissions via
        // `StreamGraph::renamed("a#1")`; diffs across later workload
        // versions must keep matching the renamed tasks by name
        let a = two_stage("a", 128.0);
        let dup = a.renamed("a#1");
        let mut old_w = Workload::compose("w", &[&a]).unwrap();
        old_w.add(&dup, 1.0).unwrap();
        let old_m = Mapping::all_on(old_w.graph(), PeId(0));

        // retire the original; the renamed copy survives in place
        let mut new_w = old_w.clone();
        let id = new_w.app_id("a").unwrap();
        new_w.retire(id).unwrap();
        let new_m = Mapping::all_on(new_w.graph(), PeId(0));

        let d = MappingDelta::between(old_w.graph(), &old_m, new_w.graph(), &new_m);
        assert!(d.placed.is_empty(), "a#1 tasks name-match, not placed fresh: {d}");
        assert!(d.moved.is_empty(), "renamed survivors stayed put: {d}");
        assert_eq!(d.dropped, vec!["a/s".to_owned(), "a/t".to_owned()]);
        assert_eq!(d.migration_bytes, 0.0);
    }

    #[test]
    fn zero_byte_working_set_migrates_for_free() {
        // a zero-byte edge is legal and yields an empty working set:
        // the move is recorded but costs nothing on the EIB
        let g = two_stage("a", 0.0);
        let spec = CellSpec::ps3();
        let old = Mapping::all_on(&g, PeId(0));
        let new = Mapping::new(&g, &spec, vec![PeId(1), PeId(0)]).unwrap();
        let d = MappingDelta::between(&g, &old, &g, &new);
        assert_eq!(d.n_moved(), 1);
        assert_eq!(d.moved[0].bytes, 0.0);
        assert_eq!(d.migration_bytes, 0.0);
        assert_eq!(d.migration_time(&spec), 0.0);
    }

    #[test]
    fn display_is_compact() {
        let g = two_stage("a", 256.0);
        let spec = CellSpec::ps3();
        let old = Mapping::all_on(&g, PeId(0));
        let new = Mapping::new(&g, &spec, vec![PeId(1), PeId(0)]).unwrap();
        let d = MappingDelta::between(&g, &old, &g, &new);
        let s = d.to_string();
        assert!(s.contains("1 moved"), "{s}");
    }

    use cellstream_platform::PeId;
}
