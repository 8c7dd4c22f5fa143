//! Optimal-mapping driver (paper §5 + the CPLEX workflow of §6).
//!
//! Replicates the paper's solve pipeline: build Linear Program (1), hand
//! it to the MILP solver with a 5 % relative gap, and read the mapping
//! out of the α variables. Two practical additions (both spirit-faithful,
//! both used implicitly by CPLEX too): heuristic warm-start incumbents
//! and a rounding completion that converts every fractional node
//! relaxation into a candidate mapping.

use crate::eval::evaluate;
use crate::formulation::{Formulation, FormulationConfig};
use crate::mapping::Mapping;
use cellstream_graph::StreamGraph;
use cellstream_milp::bb::{solve_mip, MipOptions, MipStatus};
use cellstream_milp::model::SolveError;
use cellstream_platform::{CellSpec, PeId};
use std::time::{Duration, Instant};

/// Options for [`solve`].
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Encoding of Linear Program (1).
    pub formulation: FormulationConfig,
    /// MILP search parameters; the default replicates the paper's 5 % gap
    /// and keeps solve times in the "around 20 seconds" regime of §6.
    pub mip: MipOptions,
    /// Extra warm-start mappings (e.g. heuristic outputs). The PPE-only
    /// mapping is always seeded — it is feasible for every instance, so
    /// the solver always returns a mapping.
    pub seeds: Vec<Mapping>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            formulation: FormulationConfig::default(),
            mip: MipOptions {
                rel_gap: 0.05,
                time_limit: Duration::from_secs(60),
                max_nodes: 4_000,
                ..MipOptions::default()
            },
            seeds: Vec::new(),
        }
    }
}

/// Result of an optimal-mapping solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The best mapping found.
    pub mapping: Mapping,
    /// Its exact period in seconds (recomputed by [`evaluate`], not read
    /// from the LP, so it is consistent with every other reported number).
    pub period: f64,
    /// `1 / period`.
    pub throughput: f64,
    /// Proven lower bound on the optimal period (seconds).
    pub period_bound: f64,
    /// Achieved relative gap.
    pub gap: f64,
    /// MILP status.
    pub status: MipStatus,
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Total simplex iterations.
    pub lp_iterations: u64,
    /// Dual-simplex warm starts attempted from parent bases.
    pub warm_starts: u64,
    /// Warm starts that held (no fallback to a from-scratch solve).
    pub warm_start_hits: u64,
    /// Lazy rows of the formulation (the (1k) linearisation) the search
    /// had to add to its LP ([`cellstream_milp::MipResult::lazy_rows`]).
    pub lazy_rows: u64,
    /// Wall-clock solve time.
    pub wall: Duration,
}

impl SolveOutcome {
    /// Fraction of attempted warm starts that held (`1.0` when none
    /// were attempted).
    pub fn warm_start_rate(&self) -> f64 {
        if self.warm_starts == 0 {
            1.0
        } else {
            self.warm_start_hits as f64 / self.warm_starts as f64
        }
    }
}

/// Compute a throughput-optimal mapping of `g` onto `spec` (within the
/// configured gap).
pub fn solve(
    g: &StreamGraph,
    spec: &CellSpec,
    opts: &SolveOptions,
) -> Result<SolveOutcome, SolveError> {
    let started = Instant::now();
    let form = Formulation::build(g, spec, &opts.formulation);

    // ---- seeds ------------------------------------------------------------
    let mut seed_vectors = Vec::new();
    let ppe_only = Mapping::all_on(g, spec.pe(0));
    for m in std::iter::once(&ppe_only).chain(opts.seeds.iter()) {
        if let Ok(report) = evaluate(g, spec, m) {
            if report.is_feasible() {
                seed_vectors.push(form.encode(spec, m, report.period));
            }
        }
    }

    // ---- rounding completion ----------------------------------------------
    let completion = |x: &[f64]| -> Option<(f64, Vec<f64>)> {
        let assignment = form.decode(x);
        let m = Mapping::new(g, spec, assignment).ok()?;
        let report = evaluate(g, spec, &m).ok()?;
        if !report.is_feasible() {
            return None;
        }
        let full = form.encode(spec, &m, report.period);
        Some((report.period / form.time_scale(), full))
    };

    let res = solve_mip(&form.model, &opts.mip, &seed_vectors, Some(&completion))?;

    let (_, x) =
        res.incumbent.as_ref().expect("PPE-only seed guarantees an incumbent for every instance");
    let mapping = Mapping::new(g, spec, form.decode(x)).expect("decoded mapping is valid");
    let report = evaluate(g, spec, &mapping).expect("decoded mapping is valid");
    // With the DMA rows ablated away the evaluator may legitimately flag
    // (1j)/(1k) on the returned mapping — that is the ablation's point.
    debug_assert!(
        !opts.formulation.dma_constraints || report.is_feasible(),
        "incumbent must satisfy (1i)-(1k): {:?}",
        report.violations
    );

    Ok(SolveOutcome {
        period: report.period,
        throughput: report.throughput,
        period_bound: res.best_bound.max(0.0) * form.time_scale(),
        gap: res.gap,
        status: res.status,
        nodes: res.nodes,
        lp_iterations: res.lp_iterations,
        warm_starts: res.warm_starts,
        warm_start_hits: res.warm_start_hits,
        lazy_rows: res.lazy_rows,
        wall: started.elapsed(),
        mapping,
    })
}

/// The PPE-only reference outcome used as the speed-up denominator in
/// §6.4.2 (no MILP involved).
pub fn ppe_only_outcome(g: &StreamGraph, spec: &CellSpec) -> SolveOutcome {
    let mapping = Mapping::all_on(g, PeId(0));
    let report = evaluate(g, spec, &mapping).expect("PPE-only is always valid");
    SolveOutcome {
        period: report.period,
        throughput: report.throughput,
        period_bound: report.period,
        gap: 0.0,
        status: MipStatus::Optimal,
        nodes: 0,
        lp_iterations: 0,
        warm_starts: 0,
        warm_start_hits: 0,
        lazy_rows: 0,
        wall: Duration::ZERO,
        mapping,
    }
}
