//! The unified scheduler abstraction.
//!
//! The paper's evaluation (§6) is a head-to-head between the optimal
//! MILP mapping and the greedy heuristics, yet historically every
//! algorithm in this workspace had a different shape: `solve()` returned
//! a rich [`SolveOutcome`](crate::SolveOutcome), the heuristics returned
//! bare [`Mapping`]s, and `brute` lived on its own. This module gives
//! them one interface:
//!
//! * [`Scheduler`] — anything that can turn a graph + platform into a
//!   mapping; its provided [`Scheduler::plan`] times that call,
//!   evaluates the mapping and names the result, the one place a
//!   [`Plan`] is built;
//! * [`Plan`] — a mapping plus its full [`MappingReport`], per-algorithm
//!   [`PlanStats`], and the wall-clock time spent planning;
//! * [`PlanContext`] — cross-algorithm inputs: warm-start seeds, the
//!   [`Stop`] every iterative scheduler polls, and the MILP
//!   configuration.
//!
//! Core implements the trait for the MILP driver ([`MilpScheduler`]),
//! the exhaustive optimum ([`BruteScheduler`]) and the PPE-only baseline
//! ([`PpeOnlyScheduler`]); the `cellstream-heuristics` crate implements
//! it for the seven heuristics (both §6.3 greedies, the comm-aware
//! greedy, local search, annealing, multi-start and repair) and provides
//! the string-keyed registry (`scheduler_by_name`) plus the parallel
//! `Portfolio` runner.

use crate::eval::{evaluate, MappingReport};
use crate::mapping::{Mapping, MappingError};
use crate::solve::{solve_until, SolveOptions};
use cellstream_graph::{StreamGraph, Workload};
use cellstream_milp::bb::MipStatus;
use cellstream_milp::model::SolveError;
use cellstream_milp::Stop;
use cellstream_platform::{CellSpec, PeId};
use std::fmt;
use std::time::{Duration, Instant};

/// Inputs shared by every [`Scheduler`].
#[derive(Debug, Clone, Default)]
pub struct PlanContext {
    /// Warm-start mappings (heuristic outputs, previous plans). Seed-aware
    /// schedulers fold them in; others may ignore them.
    pub seeds: Vec<Mapping>,
    /// When to give up: iterative schedulers (MILP, local search,
    /// annealing, the partition sweep) poll it between search steps /
    /// B&B nodes and return their best-so-far answer once it fires;
    /// constructive ones ignore it. Cloned contexts share its flag.
    pub stop: Stop,
    /// MILP configuration used by [`MilpScheduler`].
    pub solve: SolveOptions,
}

impl PlanContext {
    /// Context with a wall-clock budget. The clock starts here, when the
    /// context is built, not when each scheduler starts: every planner
    /// handed this context shares one deadline.
    pub fn with_budget(budget: Duration) -> Self {
        PlanContext { stop: Stop::after(budget), ..PlanContext::default() }
    }

    /// Add a warm-start seed.
    pub fn seed(mut self, m: Mapping) -> Self {
        self.seeds.push(m);
        self
    }
}

/// Algorithm-specific statistics attached to a [`Plan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStats {
    /// A constructive heuristic: no iteration counters to report.
    Heuristic,
    /// An iterative search (local search, annealing, multi-start).
    Search {
        /// Algorithm-specific effort measure: annealing steps, multi-start
        /// restarts, search rounds; 0 when untracked.
        iterations: u64,
    },
    /// The branch-and-bound MILP driver.
    Milp {
        /// Proven lower bound on the optimal period (seconds).
        period_bound: f64,
        /// Achieved relative gap.
        gap: f64,
        /// Final solver status.
        status: MipStatus,
        /// Branch-and-bound nodes explored.
        nodes: u64,
        /// Total simplex iterations.
        lp_iterations: u64,
        /// Fraction of child LPs whose dual-simplex warm start held
        /// (`1.0` when the search never branched).
        warm_start_rate: f64,
    },
    /// Exhaustive enumeration.
    Exhaustive {
        /// Number of assignments enumerated.
        enumerated: u64,
    },
}

/// The unified result of planning a mapping: what [`Scheduler::plan`]
/// returns for every algorithm, subsuming the old
/// `SolveOutcome`-vs-bare-`Mapping` split.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Name of the scheduler that produced this plan.
    pub scheduler: String,
    /// The mapping.
    pub mapping: Mapping,
    /// Full evaluation of the mapping (period, loads, violations).
    pub report: MappingReport,
    /// Algorithm-specific statistics.
    pub stats: PlanStats,
    /// Wall-clock planning time: the scheduler's
    /// [`mapping`](Scheduler::mapping) call, evaluation excluded. For
    /// the MILP that is its option set-up plus `solve`, not
    /// `SolveOutcome::wall`.
    pub wall: Duration,
}

impl Plan {
    /// Steady-state period `T` (seconds per instance).
    pub fn period(&self) -> f64 {
        self.report.period
    }

    /// Throughput `ρ = 1/T` (instances per second).
    pub fn throughput(&self) -> f64 {
        self.report.throughput
    }

    /// `true` iff constraints (1i)–(1k) all hold.
    pub fn is_feasible(&self) -> bool {
        self.report.is_feasible()
    }

    /// Split this plan's aggregate report into per-application reports
    /// when the planned graph was a composed [`Workload`]. The plan must
    /// have been computed on `w.graph()` (same task count) — panics on a
    /// mismatched workload, like any cross-graph mix-up.
    pub fn per_app(&self, w: &Workload, spec: &CellSpec) -> Vec<crate::workload::AppReport> {
        assert_eq!(
            self.mapping.assignment().len(),
            w.graph().n_tasks(),
            "plan and workload disagree on task count"
        );
        crate::workload::per_app_reports(w, spec, &self.mapping, &self.report)
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: period {:.3} us ({}feasible, {:.1} ms)",
            self.scheduler,
            self.report.period * 1e6,
            if self.is_feasible() { "" } else { "in" },
            self.wall.as_secs_f64() * 1e3,
        )
    }
}

/// Errors from [`Scheduler::plan`].
#[derive(Debug, Clone)]
pub enum PlanError {
    /// The scheduler found no feasible mapping.
    Infeasible(String),
    /// A structurally invalid mapping was produced or supplied.
    Mapping(MappingError),
    /// The MILP solver failed.
    Solver(SolveError),
    /// The scheduler cannot handle this instance (e.g. brute force on a
    /// graph too large to enumerate), or an unknown scheduler name.
    Unsupported(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Infeasible(msg) => write!(f, "no feasible mapping: {msg}"),
            PlanError::Mapping(e) => write!(f, "invalid mapping: {e}"),
            PlanError::Solver(e) => write!(f, "MILP solver error: {e}"),
            PlanError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Mapping(e) => Some(e),
            PlanError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MappingError> for PlanError {
    fn from(e: MappingError) -> Self {
        PlanError::Mapping(e)
    }
}

impl From<SolveError> for PlanError {
    fn from(e: SolveError) -> Self {
        PlanError::Solver(e)
    }
}

/// A mapping algorithm with a uniform interface: an implementation
/// writes only its algorithm ([`mapping`](Self::mapping)); the provided
/// [`plan`](Self::plan) times, evaluates and names every answer alike.
///
/// A composed multi-application [`Workload`] is planned as
/// `plan(w.graph(), …)`: its period is the maximum weighted
/// per-application period, so every scheduler co-schedules it
/// unchanged. Split the result with [`Plan::per_app`].
///
/// `Send + Sync` so portfolios can run members on parallel threads.
pub trait Scheduler: Send + Sync {
    /// Stable, registry-friendly name (e.g. `"milp"`, `"greedy_mem"`).
    fn name(&self) -> &str;

    /// Run the algorithm: a mapping of `g` on `spec` and what the
    /// search reports about it.
    fn mapping(
        &self,
        g: &StreamGraph,
        spec: &CellSpec,
        ctx: &PlanContext,
    ) -> Result<(Mapping, PlanStats), PlanError>;

    /// Compute a mapping plan for `g` on `spec`: time
    /// [`mapping`](Self::mapping), then evaluate its answer. Fails on a
    /// structurally invalid mapping; an infeasible but valid one comes
    /// back as a plan whose report carries the violations.
    fn plan(&self, g: &StreamGraph, spec: &CellSpec, ctx: &PlanContext) -> Result<Plan, PlanError> {
        let started = Instant::now();
        let (mapping, stats) = self.mapping(g, spec, ctx)?;
        let wall = started.elapsed();
        let report = evaluate(g, spec, &mapping)?;
        Ok(Plan { scheduler: self.name().to_owned(), mapping, report, stats, wall })
    }

    /// `true` for schedulers that profit from running *after* fast
    /// constructive members, with their mappings as warm starts. A
    /// portfolio runs such members in its second wave, seeded with every
    /// feasible first-wave mapping, under the context's stop with a
    /// floor of time granted even when the budget is spent.
    fn wants_warm_starts(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Core-provided schedulers
// ---------------------------------------------------------------------------

/// The optimal-mapping MILP driver of paper §5 as a [`Scheduler`].
///
/// Uses `ctx.solve` for the formulation and branch-and-bound parameters,
/// folds `ctx.seeds` into the warm starts, and stops on `ctx.stop` or
/// the configured time limit, whichever fires first.
#[derive(Debug, Clone, Default)]
pub struct MilpScheduler;

impl Scheduler for MilpScheduler {
    fn name(&self) -> &str {
        "milp"
    }

    fn wants_warm_starts(&self) -> bool {
        true
    }

    fn mapping(
        &self,
        g: &StreamGraph,
        spec: &CellSpec,
        ctx: &PlanContext,
    ) -> Result<(Mapping, PlanStats), PlanError> {
        let mut opts = ctx.solve.clone();
        opts.seeds.extend(ctx.seeds.iter().cloned());
        let outcome = solve_until(g, spec, &opts, &ctx.stop)?;
        let stats = PlanStats::Milp {
            period_bound: outcome.period_bound,
            gap: outcome.gap,
            status: outcome.status,
            nodes: outcome.nodes,
            lp_iterations: outcome.lp_iterations,
            warm_start_rate: outcome.warm_start_rate(),
        };
        Ok((outcome.mapping, stats))
    }
}

/// Exhaustive enumeration ([`crate::brute::optimal_mapping`]) as a
/// [`Scheduler`]. Refuses instances beyond the `n^K ≤ 10^7` guard with
/// [`PlanError::Unsupported`] instead of panicking.
#[derive(Debug, Clone, Default)]
pub struct BruteScheduler;

impl Scheduler for BruteScheduler {
    fn name(&self) -> &str {
        "brute"
    }

    fn mapping(
        &self,
        g: &StreamGraph,
        spec: &CellSpec,
        _ctx: &PlanContext,
    ) -> Result<(Mapping, PlanStats), PlanError> {
        if !crate::brute::can_enumerate(g, spec) {
            return Err(PlanError::Unsupported(format!(
                "brute force would enumerate {:.0} mappings (limit {:.0}); use the MILP scheduler",
                crate::brute::combos(g, spec),
                crate::brute::MAX_COMBOS
            )));
        }
        let (mapping, _) = crate::brute::optimal_mapping(g, spec)
            .ok_or_else(|| PlanError::Infeasible("no feasible mapping exists".to_owned()))?;
        Ok((mapping, PlanStats::Exhaustive { enumerated: crate::brute::combos(g, spec) as u64 }))
    }
}

/// The PPE-only baseline of §6.4.2 as a [`Scheduler`]: always feasible,
/// useful as the speed-up denominator and as a portfolio safety net.
#[derive(Debug, Clone, Default)]
pub struct PpeOnlyScheduler;

impl Scheduler for PpeOnlyScheduler {
    fn name(&self) -> &str {
        "ppe_only"
    }

    fn mapping(
        &self,
        g: &StreamGraph,
        _spec: &CellSpec,
        _ctx: &PlanContext,
    ) -> Result<(Mapping, PlanStats), PlanError> {
        Ok((Mapping::all_on(g, PeId(0)), PlanStats::Heuristic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve;
    use cellstream_daggen::{chain, CostParams};

    #[test]
    fn milp_scheduler_matches_solve() {
        let g = chain("c", 5, &CostParams::default(), 3);
        let spec = CellSpec::with_spes(2);
        let plan = MilpScheduler.plan(&g, &spec, &PlanContext::default()).unwrap();
        let outcome = solve(&g, &spec, &SolveOptions::default()).unwrap();
        assert!(plan.is_feasible());
        assert!((plan.period() - outcome.period).abs() < 1e-12);
        assert!(matches!(plan.stats, PlanStats::Milp { .. }));
        assert_eq!(plan.scheduler, "milp");
    }

    #[test]
    fn brute_scheduler_is_optimal_on_tiny_instances() {
        let g = chain("c", 4, &CostParams::default(), 9);
        let spec = CellSpec::with_spes(2);
        let brute = BruteScheduler.plan(&g, &spec, &PlanContext::default()).unwrap();
        let milp = MilpScheduler
            .plan(
                &g,
                &spec,
                &PlanContext {
                    solve: SolveOptions {
                        mip: cellstream_milp::bb::MipOptions {
                            rel_gap: 0.0,
                            abs_gap: 1e-9,
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
            .unwrap();
        assert!((brute.period() - milp.period()).abs() <= 1e-9 + 1e-6 * brute.period());
    }

    #[test]
    fn brute_scheduler_refuses_huge_instances() {
        let g = chain("c", 30, &CostParams::default(), 1);
        let err = BruteScheduler.plan(&g, &CellSpec::qs22(), &PlanContext::default()).unwrap_err();
        assert!(matches!(err, PlanError::Unsupported(_)), "{err}");
    }

    #[test]
    fn ppe_only_scheduler_is_always_feasible() {
        let g = chain("c", 6, &CostParams::default(), 5);
        let plan = PpeOnlyScheduler.plan(&g, &CellSpec::ps3(), &PlanContext::default()).unwrap();
        assert!(plan.is_feasible());
        assert_eq!(plan.mapping, Mapping::all_on(&g, PeId(0)));
    }

    /// A stop that fires inside the root LP ends the search with its
    /// own status and proves no bound, though the root's point is the
    /// integral PPE-only seed.
    #[test]
    fn the_milp_stops_on_the_context_stop() {
        let g = chain("c", 5, &CostParams::default(), 3);
        let spec = CellSpec::with_spes(2);
        let cancelled = PlanContext { stop: Stop::new(), ..PlanContext::default() };
        cancelled.stop.cancel();
        for (ctx, want) in [
            (PlanContext::with_budget(Duration::ZERO), MipStatus::TimeLimit),
            (cancelled, MipStatus::Cancelled),
        ] {
            let plan = MilpScheduler.plan(&g, &spec, &ctx).unwrap();
            assert!(plan.is_feasible());
            let PlanStats::Milp { status, period_bound, .. } = plan.stats else { panic!() };
            assert_eq!(status, want);
            assert!(period_bound < plan.report.period, "no bound is proven");
        }
    }

    #[test]
    fn plan_error_displays_and_sources() {
        let e = PlanError::Infeasible("x".into());
        assert!(e.to_string().contains("no feasible mapping"));
        let e: PlanError = MappingError::WrongLength { expected: 2, got: 1 }.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
