//! Periodic steady-state schedule construction (paper §3.1, Figure 3(b)).
//!
//! Given a feasible mapping with period `T`, the schedule is fully
//! determined: instance `i` of task `Tk` is processed during period
//! `firstPeriod(Tk) + i`, i.e. in the window
//! `[(firstPeriod(Tk) + i)·T, (firstPeriod(Tk) + i + 1)·T)`, and within a
//! period every PE runs its tasks back-to-back in topological order.
//! Communications are *not* individually scheduled — the bounded-multiport
//! model lets every transfer of a period proceed concurrently as long as
//! per-interface average bandwidth suffices (§3.1: "we do not need to
//! precisely schedule the communications inside a period").

use crate::eval::MappingReport;
use crate::mapping::Mapping;
use crate::steady::first_period::first_periods;
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_platform::{CellSpec, PeId};

/// One task's slot inside the period of one PE.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// The task.
    pub task: TaskId,
    /// Host PE.
    pub pe: PeId,
    /// Start offset within the period (seconds).
    pub offset: f64,
    /// Processing time on the host PE (seconds).
    pub duration: f64,
}

/// A complete periodic schedule.
#[derive(Debug, Clone)]
pub struct PeriodicSchedule {
    /// Steady-state period `T` in seconds.
    pub period: f64,
    /// Per-task slot, indexed by task id.
    pub slots: Vec<Slot>,
    /// `firstPeriod` per task.
    pub first_period: Vec<u64>,
    /// Number of warm-up periods before every task is active
    /// (`max firstPeriod + 1`).
    pub warmup_periods: u64,
}

impl PeriodicSchedule {
    /// Build the schedule implied by `mapping` (with `report` supplying
    /// the period and loads — pass the output of [`crate::eval::evaluate`]).
    pub fn build(
        g: &StreamGraph,
        spec: &CellSpec,
        mapping: &Mapping,
        report: &MappingReport,
    ) -> PeriodicSchedule {
        let fp = first_periods(g);
        let period = report.period;
        let mut next_offset = vec![0.0f64; spec.n_pes()];
        let mut slots: Vec<Option<Slot>> = vec![None; g.n_tasks()];
        // topological order => a PE's intra-period order respects local deps
        for &t in g.topo_order() {
            let pe = mapping.pe_of(t);
            let duration = g.task(t).cost_on(spec.kind_of(pe));
            slots[t.index()] =
                Some(Slot { task: t, pe, offset: next_offset[pe.index()], duration });
            next_offset[pe.index()] += duration;
        }
        let warmup = fp.iter().copied().max().unwrap_or(0) + 1;
        PeriodicSchedule {
            period,
            slots: slots.into_iter().map(|s| s.expect("every task scheduled")).collect(),
            first_period: fp,
            warmup_periods: warmup,
        }
    }

    /// Absolute start time of instance `i` of a task.
    fn instance_start(&self, t: TaskId, instance: u64) -> f64 {
        let slot = &self.slots[t.index()];
        (self.first_period[t.index()] + instance) as f64 * self.period + slot.offset
    }

    /// Absolute completion time of instance `i` of a task.
    fn instance_end(&self, t: TaskId, instance: u64) -> f64 {
        self.instance_start(t, instance) + self.slots[t.index()].duration
    }

    /// Time at which the last of `n` instances leaves the pipeline
    /// (maximum completion over sink tasks), in the idealised model.
    pub fn makespan(&self, g: &StreamGraph, n_instances: u64) -> f64 {
        assert!(n_instances > 0);
        g.sinks().map(|t| self.instance_end(t, n_instances - 1)).fold(0.0, f64::max)
    }

    /// Utilisation of a PE: busy fraction of the period.
    pub fn utilisation(&self, pe: PeId) -> f64 {
        let busy: f64 = self.slots.iter().filter(|s| s.pe == pe).map(|s| s.duration).sum();
        busy / self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use cellstream_daggen::{chain, CostParams};
    use cellstream_platform::CellSpec;

    fn setup() -> (cellstream_graph::StreamGraph, CellSpec, Mapping, PeriodicSchedule) {
        let g = chain("c", 4, &CostParams::default(), 5);
        let spec = CellSpec::with_spes(2);
        let m = Mapping::new(&g, &spec, vec![PeId(0), PeId(1), PeId(1), PeId(2)]).unwrap();
        let report = evaluate(&g, &spec, &m).unwrap();
        let sched = PeriodicSchedule::build(&g, &spec, &m, &report);
        (g, spec, m, sched)
    }

    #[test]
    fn slots_pack_back_to_back_per_pe() {
        let (g, spec, m, sched) = setup();
        for pe in spec.pes() {
            let mut slots: Vec<_> = sched.slots.iter().filter(|s| s.pe == pe).collect();
            slots.sort_by(|a, b| a.offset.total_cmp(&b.offset));
            let mut cursor = 0.0;
            for s in slots {
                assert!((s.offset - cursor).abs() < 1e-12, "gap before {:?}", s.task);
                cursor += s.duration;
            }
            // total busy time fits in the period
            assert!(cursor <= sched.period + 1e-12);
        }
        let _ = (g, m);
    }

    #[test]
    fn instance_times_step_by_period() {
        let (_, _, _, sched) = setup();
        let t = TaskId(2);
        let d = sched.instance_start(t, 5) - sched.instance_start(t, 4);
        assert!((d - sched.period).abs() < 1e-12);
    }

    #[test]
    fn dependencies_respected_across_periods() {
        // instance i of a consumer starts at least one full period after
        // the producing instance completes (communication period).
        let (g, _, _, sched) = setup();
        for e in g.edges() {
            let peek = g.task(e.dst).peek as u64;
            for i in 0..3 {
                let consumer_start = sched.instance_start(e.dst, i);
                // needs instances i..=i+peek of the producer
                let latest_needed = sched.instance_end(e.src, i + peek);
                assert!(
                    consumer_start >= latest_needed - 1e-12,
                    "edge {} instance {i}: consumer starts {consumer_start}, needs {latest_needed}",
                    e
                );
            }
        }
    }

    #[test]
    fn warmup_covers_deepest_task() {
        let (g, _, _, sched) = setup();
        let max_fp = *sched.first_period.iter().max().unwrap();
        assert_eq!(sched.warmup_periods, max_fp + 1);
        let _ = g;
    }

    #[test]
    fn makespan_grows_linearly_in_steady_state() {
        let (g, _, _, sched) = setup();
        let m1 = sched.makespan(&g, 1000);
        let m2 = sched.makespan(&g, 2000);
        assert!(((m2 - m1) - 1000.0 * sched.period).abs() < 1e-9);
    }

    #[test]
    fn utilisation_at_most_one() {
        let (_, spec, _, sched) = setup();
        for pe in spec.pes() {
            let u = sched.utilisation(pe);
            assert!((0.0..=1.0 + 1e-12).contains(&u), "{pe}: {u}");
        }
    }
}
