//! Evaluation of multi-application workloads.
//!
//! A composed [`Workload`] is scheduled as one graph (see
//! `cellstream_graph::workload` for the composition semantics): the
//! shared round has period `T`, and application `A_i` with weight `w_i`
//! runs at per-instance period `T_i = T / w_i` and throughput
//! `ρ_i = w_i / T`. This module splits the aggregate
//! [`MappingReport`] back into per-application numbers, so callers can
//! assert model-vs-simulation agreement **per application** and report
//! the objective `max_i w_i · T_i` (which equals `T` by construction —
//! minimising the composed period is exactly minimising the maximum
//! weighted per-application period).

use crate::avail::Availability;
use crate::eval::{evaluate_with, throughput_of, MappingReport};
use crate::mapping::{Mapping, MappingError};
use cellstream_graph::{AppId, Workload};
use cellstream_platform::CellSpec;
use std::fmt;

/// One application's share of a workload evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AppReport {
    /// Application name.
    pub app: String,
    /// Its throughput weight `w_i` (instances per composed round).
    pub weight: f64,
    /// Per-instance steady-state period `T_i = T / w_i` (seconds).
    pub period: f64,
    /// Per-instance throughput `ρ_i = w_i / T` (instances per second):
    /// the **guarantee** the co-schedule promises under full contention
    /// (every application running at the synchronised round rate).
    pub throughput: f64,
    /// The **predicted** steady-state throughput on a work-conserving
    /// machine (instances per second): the weighted max-min fair rate
    /// under the per-resource occupation constraints
    /// `Σ_i f_i · occ_i(r) ≤ 1`, computed by progressive filling.
    /// Applications coupled to the composed bottleneck get exactly the
    /// guarantee; applications whose binding resources are private rise
    /// to their isolated bound. This is what the ideal simulator
    /// measures (its task scheduler favours laggards, which realises
    /// max-min fairness) — per-app model-vs-sim agreement is asserted
    /// against this number.
    pub fair_throughput: f64,
    /// Weighted period `w_i · T_i` — the objective term; equals the
    /// composed period for every application.
    pub weighted_period: f64,
    /// The application's **isolated** per-instance period under this
    /// mapping: the §3.2 occupation maximum restricted to its own tasks
    /// and edges, divided by its weight. This is the best the
    /// application could do on this placement if every co-resident
    /// application idled, so `isolated_period ≤ period` always. The
    /// simulated per-app throughput lands in
    /// `[throughput, 1 / isolated_period]`: apps coupled to the composed
    /// bottleneck (sharing a binding resource) run at the round
    /// guarantee, apps with private bottlenecks reclaim the slack up to
    /// the isolated bound.
    pub isolated_period: f64,
    /// Compute seconds per composed round this application loads onto
    /// the machine under the evaluated mapping (Σ over its tasks of the
    /// cost on the assigned PE kind).
    pub compute_seconds: f64,
}

impl fmt::Display for AppReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: period {:.3} us, throughput {:.0}/s (weight {})",
            self.app,
            self.period * 1e6,
            self.throughput,
            self.weight
        )
    }
}

/// Full evaluation of a mapping of a composed workload: the aggregate
/// shared-PE report plus the per-application split.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The §3.2 verifier's verdict on the composed graph.
    pub aggregate: MappingReport,
    /// Per-application periods/throughputs, indexed by [`AppId`].
    pub per_app: Vec<AppReport>,
}

impl WorkloadReport {
    /// `true` iff constraints (1i)–(1k) all hold on the composed mapping.
    pub fn is_feasible(&self) -> bool {
        self.aggregate.is_feasible()
    }

    /// The co-scheduling objective: `max_i w_i · T_i`, the maximum
    /// weighted per-application period (= the composed round period).
    pub fn max_weighted_period(&self) -> f64 {
        self.per_app.iter().map(|a| a.weighted_period).fold(0.0, f64::max)
    }

    /// Per-application report by id.
    pub fn app(&self, a: AppId) -> &AppReport {
        &self.per_app[a.index()]
    }
}

/// Split an aggregate report of `w`'s composed graph into per-application
/// reports. `mapping` supplies the PE kinds for the per-application
/// compute attribution.
pub fn per_app_reports(
    w: &Workload,
    spec: &CellSpec,
    mapping: &Mapping,
    aggregate: &MappingReport,
) -> Vec<AppReport> {
    per_app_reports_with(w, spec, &Availability::full(spec), mapping, aggregate)
}

/// [`per_app_reports`] against *live* capacity: each application's
/// compute occupation is scaled by the seating PE's
/// [`Availability::slowdown`], matching [`evaluate_with`]. With a fully
/// healthy overlay this is exactly `per_app_reports`.
fn per_app_reports_with(
    w: &Workload,
    spec: &CellSpec,
    avail: &Availability,
    mapping: &Mapping,
    aggregate: &MappingReport,
) -> Vec<AppReport> {
    let t = aggregate.period;
    let g = w.graph();
    let bw = spec.interface_bw().as_bytes_per_s();
    let n_pes = spec.n_pes();
    let n_apps = w.n_apps();

    // Per-app occupation of every resource (seconds of compute, and
    // seconds of each interface direction) per composed round — the
    // same occupations the §3.2 verifier sums, split by owner.
    let n_res = 3 * n_pes;
    let mut occ = vec![vec![0.0f64; n_res]; n_apps];
    for (i, info) in w.apps().iter().enumerate() {
        let row = &mut occ[i];
        for tid in w.tasks_of(AppId(i)) {
            let seat = mapping.pe_of(tid);
            let pe = seat.index();
            let task = g.task(tid);
            row[pe] += task.cost_on(spec.kind_of(seat)) * avail.slowdown(seat);
            row[n_pes + pe] += task.read_bytes / bw;
            row[2 * n_pes + pe] += task.write_bytes / bw;
        }
        for ei in info.edges.clone() {
            let e = &g.edges()[ei];
            let (src, dst) = (mapping.pe_of(e.src), mapping.pe_of(e.dst));
            if src != dst {
                row[2 * n_pes + src.index()] += e.data_bytes / bw;
                row[n_pes + dst.index()] += e.data_bytes / bw;
            }
        }
    }

    let fair = max_min_round_rates(&occ);

    w.apps()
        .iter()
        .enumerate()
        .map(|(i, info)| {
            let iso = occ[i].iter().cloned().fold(0.0f64, f64::max);
            let compute_seconds = occ[i][..n_pes].iter().sum();
            let fair_throughput = if fair[i].is_finite() { fair[i] * info.weight } else { 0.0 };
            AppReport {
                app: info.name.clone(),
                weight: info.weight,
                period: t / info.weight,
                throughput: throughput_of(t) * info.weight,
                fair_throughput,
                weighted_period: t,
                isolated_period: iso / info.weight,
                compute_seconds,
            }
        })
        .collect()
}

/// Max-min fair round rates under `Σ_i f_i · occ[i][r] ≤ 1` for every
/// resource `r`, by progressive filling: all rates rise together until a
/// resource saturates, the applications using it freeze, repeat.
/// Applications constrained by no resource (zero occupation everywhere)
/// come back as `+∞` — callers map that to the degenerate-zero-work
/// convention.
// `r` walks a *column* across every application's row, which the
// needless_range_loop lint cannot express as an iterator chain.
#[allow(clippy::needless_range_loop)]
fn max_min_round_rates(occ: &[Vec<f64>]) -> Vec<f64> {
    let n_apps = occ.len();
    let n_res = occ.first().map_or(0, Vec::len);
    let mut rate = vec![0.0f64; n_apps];
    let mut frozen = vec![false; n_apps];
    loop {
        // largest uniform increment the active set can still absorb
        let mut delta = f64::INFINITY;
        for r in 0..n_res {
            let active: f64 = (0..n_apps).filter(|&i| !frozen[i]).map(|i| occ[i][r]).sum();
            if active <= 0.0 {
                continue;
            }
            let used: f64 = (0..n_apps).map(|i| rate[i] * occ[i][r]).sum();
            delta = delta.min(((1.0 - used) / active).max(0.0));
        }
        if !delta.is_finite() {
            // nothing constrains the remaining applications
            for i in 0..n_apps {
                if !frozen[i] {
                    rate[i] = f64::INFINITY;
                }
            }
            return rate;
        }
        for i in 0..n_apps {
            if !frozen[i] {
                rate[i] += delta;
            }
        }
        // freeze every active application touching a saturated resource
        let mut any_frozen = false;
        for r in 0..n_res {
            let used: f64 = (0..n_apps).map(|i| rate[i] * occ[i][r]).sum();
            if used >= 1.0 - 1e-12 {
                for i in 0..n_apps {
                    if !frozen[i] && occ[i][r] > 0.0 {
                        frozen[i] = true;
                        any_frozen = true;
                    }
                }
            }
        }
        if frozen.iter().all(|&f| f) {
            return rate;
        }
        if !any_frozen {
            // numerically stuck (should not happen); freeze everything
            // rather than loop forever
            return rate;
        }
    }
}

/// Evaluate a mapping of the composed workload graph: the aggregate
/// verifier verdict plus the per-application split. Errors only on
/// structurally invalid mappings, exactly like [`evaluate`](crate::evaluate).
pub fn evaluate_workload(
    w: &Workload,
    spec: &CellSpec,
    mapping: &Mapping,
) -> Result<WorkloadReport, MappingError> {
    evaluate_workload_with(w, spec, &Availability::full(spec), mapping)
}

/// [`evaluate_workload`] against *live* capacity: the aggregate verdict
/// comes from [`evaluate_with`] (degraded PEs slow their tasks, seats on
/// dead PEs are capacity violations) and the per-application compute
/// attribution is scaled the same way. With a fully healthy overlay this
/// is exactly `evaluate_workload`.
pub fn evaluate_workload_with(
    w: &Workload,
    spec: &CellSpec,
    avail: &Availability,
    mapping: &Mapping,
) -> Result<WorkloadReport, MappingError> {
    let aggregate = evaluate_with(w.graph(), spec, avail, mapping)?;
    let per_app = per_app_reports_with(w, spec, avail, mapping, &aggregate);
    Ok(WorkloadReport { aggregate, per_app })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_graph::{StreamGraph, TaskSpec};
    use cellstream_platform::{CellSpec, PeId};

    fn app(name: &str, n: usize, cost: f64) -> StreamGraph {
        let mut b = StreamGraph::builder(name);
        let ts: Vec<_> = (0..n)
            .map(|i| b.add_task(TaskSpec::new(format!("t{i}")).ppe_cost(cost).spe_cost(cost / 2.0)))
            .collect();
        for p in ts.windows(2) {
            b.add_edge(p[0], p[1], 128.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn per_app_periods_divide_the_round_by_weight() {
        let a = app("a", 3, 2e-6);
        let b = app("b", 2, 2e-6);
        let mut wb = Workload::builder("w");
        wb.push(&a, 1.0).unwrap();
        wb.push(&b, 2.0).unwrap();
        let w = wb.build().unwrap();
        let spec = CellSpec::with_spes(2);
        let m = Mapping::all_on(w.graph(), PeId(0));
        let r = evaluate_workload(&w, &spec, &m).unwrap();
        // PPE-only round: 3*2us + 2*(2us*2) = 14us
        assert!((r.aggregate.period - 14e-6).abs() < 1e-15);
        assert!((r.app(AppId(0)).period - 14e-6).abs() < 1e-15);
        assert!((r.app(AppId(1)).period - 7e-6).abs() < 1e-15);
        // weighted periods all equal the round: the objective is the round
        for ar in &r.per_app {
            assert!((ar.weighted_period - r.aggregate.period).abs() < 1e-18);
        }
        assert!((r.max_weighted_period() - r.aggregate.period).abs() < 1e-18);
        // throughputs are weight-scaled inverses
        assert!((r.app(AppId(1)).throughput - 2.0 / 14e-6).abs() < 1.0);
        assert!(r.is_feasible());
    }

    #[test]
    fn compute_attribution_follows_the_mapping() {
        let a = app("a", 2, 4e-6);
        let b = app("b", 2, 4e-6);
        let w = Workload::compose("w", &[&a, &b]).unwrap();
        let spec = CellSpec::with_spes(2);
        // app a on the PPE (4us each), app b on SPE1 (2us each)
        let m = Mapping::new(w.graph(), &spec, vec![PeId(0), PeId(0), PeId(1), PeId(1)]).unwrap();
        let r = evaluate_workload(&w, &spec, &m).unwrap();
        assert!((r.app(AppId(0)).compute_seconds - 8e-6).abs() < 1e-15);
        assert!((r.app(AppId(1)).compute_seconds - 4e-6).abs() < 1e-15);
    }

    #[test]
    fn isolated_period_bounds_the_shared_round() {
        let a = app("a", 2, 4e-6);
        let b = app("b", 2, 4e-6);
        let w = Workload::compose("w", &[&a, &b]).unwrap();
        let spec = CellSpec::with_spes(2);
        // both apps share the PPE: round = 16us, each alone = 8us
        let shared = Mapping::all_on(w.graph(), PeId(0));
        let r = evaluate_workload(&w, &spec, &shared).unwrap();
        for ar in &r.per_app {
            assert!((ar.isolated_period - 8e-6).abs() < 1e-15, "{}", ar.isolated_period);
            assert!(ar.isolated_period <= ar.period);
        }
        // disjoint PEs: each app's isolated bound equals its own period
        // contribution, still <= the composed round (the max of the two)
        let split =
            Mapping::new(w.graph(), &spec, vec![PeId(0), PeId(0), PeId(1), PeId(1)]).unwrap();
        let r = evaluate_workload(&w, &spec, &split).unwrap();
        assert!((r.app(AppId(0)).isolated_period - 8e-6).abs() < 1e-15);
        assert!((r.app(AppId(1)).isolated_period - 4e-6).abs() < 1e-15);
        assert!((r.aggregate.period - 8e-6).abs() < 1e-15);
    }

    #[test]
    fn workload_report_surfaces_violations() {
        use cellstream_platform::{ByteSize, CellSpecBuilder};
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(ByteSize::kib(128))
            .code_size(ByteSize::kib(64))
            .build()
            .unwrap();
        let mut g = StreamGraph::builder("fat");
        let s = g.add_task(TaskSpec::new("s").uniform_cost(1e-6));
        let t = g.add_task(TaskSpec::new("t").uniform_cost(1e-6));
        g.add_edge(s, t, 64.0 * 1024.0).unwrap();
        let g = g.build().unwrap();
        let w = Workload::compose("w", &[&g]).unwrap();
        let m = Mapping::all_on(w.graph(), PeId(1));
        let r = evaluate_workload(&w, &spec, &m).unwrap();
        assert!(!r.is_feasible());
    }
}
