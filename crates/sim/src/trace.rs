//! Run traces: per-instance completion times and throughput curves.
//!
//! This is the raw material of Figure 6 ("Throughput achieved depending on
//! the number of instances"): the cumulative throughput after `i`
//! instances is `i / t_i`, which ramps up through the pipeline fill and
//! converges to the steady-state rate.
//!
//! Traces also carry **per-sink** completion times, so a composed
//! multi-application workload can attribute measured throughput to each
//! application from its own sinks ([`RunTrace::per_app_throughput`]).

use cellstream_graph::{TaskId, Workload};

/// The result of a simulation run.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// `completions[i]` = time at which instance `i` left the pipeline
    /// (max over sink tasks). Strictly increasing.
    pub completions: Vec<f64>,
    /// Per-sink completion times: `(sink task id, times)` with `times[i]`
    /// the completion of instance `i` at that sink. This is what lets a
    /// multi-application trace attribute throughput to each application
    /// ([`RunTrace::per_app_throughput`]) instead of only reporting the
    /// composed aggregate.
    pub sink_completions: Vec<(TaskId, Vec<f64>)>,
    /// Total simulation events processed (cost metric): compute
    /// completions, transfer starts and transfer completions, each a live
    /// one; a completion that a re-share re-predicted was never queued.
    /// A jumped cycle's events are not counted.
    pub events: u64,
    /// Bytes that entered each PE's incoming interface over the run.
    pub bytes_in: Vec<f64>,
    /// Bytes that left each PE's outgoing interface over the run.
    pub bytes_out: Vec<f64>,
    /// The periodic steady state the run found, as `(c, Δt)`: its state
    /// repeated after `c` full completions and `Δt` seconds (see
    /// [`crate::engine`]). `None` when it never repeated.
    pub cycle: Option<(u64, f64)>,
}

impl RunTrace {
    /// Number of instances completed.
    pub fn n_instances(&self) -> usize {
        self.completions.len()
    }

    /// Total simulated time.
    pub fn total_time(&self) -> f64 {
        *self.completions.last().expect("non-empty trace")
    }

    /// Cumulative throughput after each instance: `(i+1) / t_i`.
    pub fn cumulative_throughput(&self) -> Vec<f64> {
        self.completions.iter().enumerate().map(|(i, &t)| (i + 1) as f64 / t).collect()
    }

    /// The Figure 6 curve, downsampled: `(instance_count, cumulative
    /// throughput)` at `points` roughly equally spaced instance counts.
    pub fn throughput_curve(&self, points: usize) -> Vec<(u64, f64)> {
        assert!(points >= 2);
        let n = self.completions.len();
        let cum = self.cumulative_throughput();
        let mut out = Vec::with_capacity(points);
        for p in 0..points {
            let idx = ((p as f64 / (points - 1) as f64) * (n - 1) as f64).round() as usize;
            out.push(((idx + 1) as u64, cum[idx]));
        }
        out.dedup_by_key(|&mut (i, _)| i);
        out
    }

    /// Steady-state throughput: `c / Δt` when the run found its
    /// [`cycle`](Self::cycle), which is exact and free of the fill and the
    /// drain. Otherwise it is measured over the `[0.5·n, 0.85·n]` instance
    /// window, which excludes the pipeline-fill transient at the start
    /// and most of the drain speed-up at the end (once sources run out of
    /// stream, periods shorten). On a deep pipeline the drain reaches into
    /// the window: graph 3's sources run ~140 instances ahead of its sink,
    /// so a 200-instance window reads up to twice the steady rate.
    pub fn steady_state_throughput(&self) -> f64 {
        if let Some((c, dt)) = self.cycle {
            return c as f64 / dt;
        }
        let n = self.completions.len();
        assert!(n >= 8, "need a few instances to estimate steady state");
        let lo = n / 2;
        let hi = ((n as f64 * 0.85) as usize).clamp(lo + 1, n - 1);
        let dt = self.completions[hi] - self.completions[lo];
        (hi - lo) as f64 / dt
    }

    /// Completion times of one sink task, when recorded.
    pub fn sink_times(&self, t: TaskId) -> Option<&[f64]> {
        self.sink_completions.iter().find(|(s, _)| *s == t).map(|(_, ts)| ts.as_slice())
    }

    /// Steady-state throughput of a subset of sinks: `c / Δt` when the
    /// run found its [`cycle`](Self::cycle), in which every sink completes
    /// `c` instances. Otherwise instance `i` of the subset completes when
    /// *all* listed sinks finish it, measured over the same
    /// `[0.5·n, 0.85·n]` window as
    /// [`steady_state_throughput`](Self::steady_state_throughput).
    /// Degenerate runs (fewer than 8 instances, or a zero-work pipeline
    /// whose window has zero width) report `0.0`, mirroring the
    /// evaluator's `throughput_of` guard. Panics only on a sink id that
    /// was never recorded (a cross-graph mix-up).
    fn sink_group_throughput(&self, sinks: &[TaskId]) -> f64 {
        assert!(!sinks.is_empty(), "need at least one sink");
        let times: Vec<&[f64]> = sinks
            .iter()
            .map(|&s| self.sink_times(s).unwrap_or_else(|| panic!("{s} is not a recorded sink")))
            .collect();
        if let Some((c, dt)) = self.cycle {
            return c as f64 / dt;
        }
        let n = times.iter().map(|t| t.len()).min().expect("non-empty sink set");
        if n < 8 {
            // too few instances for a steady-state estimate; follow the
            // evaluator's degenerate-case convention (0, not a panic —
            // this sits behind Result-returning session APIs)
            return 0.0;
        }
        let joint = |i: usize| times.iter().map(|t| t[i]).fold(0.0f64, f64::max);
        let lo = n / 2;
        let hi = ((n as f64 * 0.85) as usize).clamp(lo + 1, n - 1);
        let dt = joint(hi) - joint(lo);
        if dt > 0.0 {
            // zero-work pipelines complete everything at t = 0: report 0
            // like `throughput_of`, never inf
            (hi - lo) as f64 / dt
        } else {
            0.0
        }
    }

    /// Measured steady-state throughput of each application of a composed
    /// [`Workload`], in **application instances per second**: the rate at
    /// which the application's own sinks complete composed rounds, scaled
    /// by its weight (one round processes `w_i` instances of `A_i`).
    ///
    /// The trace must come from simulating `w.graph()`.
    pub fn per_app_throughput(&self, w: &Workload) -> Vec<f64> {
        w.app_ids().map(|a| self.sink_group_throughput(w.sinks_of(a)) * w.app(a).weight).collect()
    }

    /// Average utilisation of each PE's incoming interface over the run
    /// (fraction of `bw`), from the per-PE byte totals.
    pub fn in_utilisation(&self, bw_bytes_per_s: f64) -> Vec<f64> {
        let t = self.total_time();
        self.bytes_in.iter().map(|&b| b / (bw_bytes_per_s * t)).collect()
    }

    /// Average utilisation of each PE's outgoing interface over the run.
    pub fn out_utilisation(&self, bw_bytes_per_s: f64) -> Vec<f64> {
        let t = self.total_time();
        self.bytes_out.iter().map(|&b| b / (bw_bytes_per_s * t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_trace(period: f64, warmup: f64, n: usize) -> RunTrace {
        let completions: Vec<f64> = (0..n).map(|i| warmup + period * (i + 1) as f64).collect();
        RunTrace {
            sink_completions: vec![(TaskId(0), completions.clone())],
            completions,
            events: 0,
            bytes_in: Vec::new(),
            bytes_out: Vec::new(),
            cycle: None,
        }
    }

    #[test]
    fn steady_state_recovers_period() {
        let tr = linear_trace(0.01, 0.5, 1000);
        let rho = tr.steady_state_throughput();
        assert!((rho - 100.0).abs() < 1e-6, "{rho}");
    }

    #[test]
    fn cumulative_ramps_up_to_steady() {
        // warm-up delays early instances, so cumulative throughput starts
        // low and climbs toward 1/period
        let tr = linear_trace(0.01, 1.0, 2000);
        let cum = tr.cumulative_throughput();
        assert!(cum[0] < cum[1999]);
        assert!(cum[1999] < 100.0); // never exceeds the steady rate
        assert!(cum[1999] > 90.0); // but approaches it
    }

    #[test]
    fn sink_group_throughput_degenerates_to_zero_not_panic() {
        // short runs and zero-work pipelines report 0 (the throughput_of
        // convention), because this sits behind Result-returning APIs
        let short = linear_trace(0.01, 0.0, 4);
        assert_eq!(short.sink_group_throughput(&[TaskId(0)]), 0.0);
        let zero_work = RunTrace {
            completions: vec![0.0; 20],
            sink_completions: vec![(TaskId(0), vec![0.0; 20])],
            events: 0,
            bytes_in: Vec::new(),
            bytes_out: Vec::new(),
            cycle: None,
        };
        assert_eq!(zero_work.sink_group_throughput(&[TaskId(0)]), 0.0);
    }

    #[test]
    fn curve_downsamples_monotonically() {
        let tr = linear_trace(0.01, 1.0, 500);
        let curve = tr.throughput_curve(20);
        assert!(curve.len() <= 20 && curve.len() >= 2);
        assert_eq!(curve[0].0, 1);
        assert_eq!(curve.last().unwrap().0, 500);
        for w in curve.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }
}
