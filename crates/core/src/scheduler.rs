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
//!   [`Plan`];
//! * [`Plan`] — a mapping plus its full [`MappingReport`], per-algorithm
//!   [`PlanStats`], and the wall-clock time spent planning;
//! * [`PlanContext`] — cross-algorithm inputs: warm-start seeds, a
//!   wall-clock budget hint, and the MILP configuration.
//!
//! Core implements the trait for the MILP driver ([`MilpScheduler`]),
//! the exhaustive optimum ([`BruteScheduler`]) and the PPE-only baseline
//! ([`PpeOnlyScheduler`]); the `cellstream-heuristics` crate implements
//! it for the five heuristics and provides the string-keyed registry
//! (`scheduler_by_name`) plus the parallel `Portfolio` runner.

use crate::eval::{evaluate, MappingReport};
use crate::mapping::{Mapping, MappingError};
use crate::solve::{solve, SolveOptions};
use cellstream_graph::{StreamGraph, Workload};
use cellstream_milp::bb::MipStatus;
use cellstream_milp::model::SolveError;
use cellstream_platform::{CellSpec, PeId};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cooperative-cancellation flag.
///
/// Cloning shares the flag: every scheduler running under the same
/// [`PlanContext`] (all portfolio members, the B&B's LP pivot loops)
/// sees one [`cancel`](Self::cancel) call. Iterative schedulers check it
/// between search steps and return their best-so-far result — which is
/// how an online serving layer aborts a background re-solve the moment a
/// new event arrives instead of waiting out the budget.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raise the flag. Idempotent; there is no way to lower it again —
    /// start a new token for the next run.
    pub fn cancel(&self) {
        // check:allow(atomic-ordering): lone cancellation flag, no data
        // published alongside it
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        // check:allow(atomic-ordering): lone cancellation flag, no data
        // published alongside it
        self.0.load(Ordering::Relaxed)
    }

    /// The raw shared flag, for layers below `core` (the MILP's
    /// `MipOptions::stop` / `LpOptions::stop` take the bare atomic so
    /// the solver crate does not depend on this type).
    pub fn flag(&self) -> Arc<AtomicBool> {
        self.0.clone()
    }
}

/// Inputs shared by every [`Scheduler`].
#[derive(Debug, Clone, Default)]
pub struct PlanContext {
    /// Warm-start mappings (heuristic outputs, previous plans). Seed-aware
    /// schedulers fold them in; others may ignore them.
    pub seeds: Vec<Mapping>,
    /// Wall-clock budget hint. Iterative schedulers (MILP, annealing)
    /// stop early when it runs out; constructive ones ignore it.
    pub budget: Option<Duration>,
    /// Cooperative cancellation: iterative schedulers poll this between
    /// search steps / B&B nodes and return early with their best-so-far
    /// answer once it fires. Cloned contexts share the flag.
    pub cancel: CancelToken,
    /// MILP configuration used by [`MilpScheduler`].
    pub solve: SolveOptions,
}

impl PlanContext {
    /// Context with a wall-clock budget.
    pub fn with_budget(budget: Duration) -> Self {
        PlanContext { budget: Some(budget), ..PlanContext::default() }
    }

    /// Add a warm-start seed.
    pub fn seed(mut self, m: Mapping) -> Self {
        self.seeds.push(m);
        self
    }

    /// The MILP time limit implied by this context: the configured limit,
    /// clamped to the remaining budget when one is set.
    fn milp_time_limit(&self) -> Duration {
        match self.budget {
            Some(b) => self.solve.mip.time_limit.min(b),
            None => self.solve.mip.time_limit,
        }
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
    /// Wall-clock planning time.
    pub wall: Duration,
}

impl Plan {
    /// Evaluate `mapping` and wrap it as a plan. Fails on structurally
    /// invalid mappings; infeasible-but-valid mappings are returned as
    /// plans whose report carries the violations.
    pub fn from_mapping(
        scheduler: impl Into<String>,
        g: &StreamGraph,
        spec: &CellSpec,
        mapping: Mapping,
        stats: PlanStats,
        wall: Duration,
    ) -> Result<Plan, PlanError> {
        let report = evaluate(g, spec, &mapping)?;
        Ok(Plan { scheduler: scheduler.into(), mapping, report, stats, wall })
    }

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

/// A mapping algorithm with a uniform interface.
///
/// `Send + Sync` so portfolios can run members on parallel threads.
pub trait Scheduler: Send + Sync {
    /// Stable, registry-friendly name (e.g. `"milp"`, `"greedy_mem"`).
    fn name(&self) -> &str;

    /// Compute a mapping plan for `g` on `spec`.
    fn plan(&self, g: &StreamGraph, spec: &CellSpec, ctx: &PlanContext) -> Result<Plan, PlanError>;

    /// Plan a composed multi-application [`Workload`]: the composed graph
    /// is a plain [`StreamGraph`] whose period is the maximum weighted
    /// per-application period, so *every* scheduler co-schedules it
    /// unchanged. Split the result per application with
    /// [`Plan::per_app`] or [`crate::workload::evaluate_workload`].
    fn plan_workload(
        &self,
        w: &Workload,
        spec: &CellSpec,
        ctx: &PlanContext,
    ) -> Result<Plan, PlanError> {
        self.plan(w.graph(), spec, ctx)
    }

    /// `true` for schedulers that profit from running *after* fast
    /// constructive members, with their mappings as warm starts. A
    /// portfolio runs such members in its second wave, seeded with every
    /// feasible first-wave mapping and clamped to the remaining budget.
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
/// folds `ctx.seeds` into the warm starts, and clamps the time limit to
/// `ctx.budget` when one is set.
#[derive(Debug, Clone, Default)]
pub struct MilpScheduler;

impl Scheduler for MilpScheduler {
    fn name(&self) -> &str {
        "milp"
    }

    fn wants_warm_starts(&self) -> bool {
        true
    }

    fn plan(&self, g: &StreamGraph, spec: &CellSpec, ctx: &PlanContext) -> Result<Plan, PlanError> {
        let mut opts = ctx.solve.clone();
        opts.seeds.extend(ctx.seeds.iter().cloned());
        opts.mip.time_limit = ctx.milp_time_limit();
        // fill-if-none, like every other scheduler's cancel plumbing:
        // an explicit caller-provided stop flag wins over the context
        if opts.mip.stop.is_none() {
            opts.mip.stop = Some(ctx.cancel.flag());
        }
        let outcome = solve(g, spec, &opts)?;
        let warm_start_rate = outcome.warm_start_rate();
        let report = evaluate(g, spec, &outcome.mapping)?;
        Ok(Plan {
            scheduler: self.name().to_owned(),
            mapping: outcome.mapping,
            report,
            stats: PlanStats::Milp {
                period_bound: outcome.period_bound,
                gap: outcome.gap,
                status: outcome.status,
                nodes: outcome.nodes,
                lp_iterations: outcome.lp_iterations,
                warm_start_rate,
            },
            wall: outcome.wall,
        })
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

    fn plan(
        &self,
        g: &StreamGraph,
        spec: &CellSpec,
        _ctx: &PlanContext,
    ) -> Result<Plan, PlanError> {
        if !crate::brute::can_enumerate(g, spec) {
            return Err(PlanError::Unsupported(format!(
                "brute force would enumerate {:.0} mappings (limit {:.0}); use the MILP scheduler",
                crate::brute::combos(g, spec),
                crate::brute::MAX_COMBOS
            )));
        }
        let started = Instant::now();
        let (mapping, _) = crate::brute::optimal_mapping(g, spec)
            .ok_or_else(|| PlanError::Infeasible("no feasible mapping exists".to_owned()))?;
        Plan::from_mapping(
            self.name(),
            g,
            spec,
            mapping,
            PlanStats::Exhaustive { enumerated: crate::brute::combos(g, spec) as u64 },
            started.elapsed(),
        )
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

    fn plan(
        &self,
        g: &StreamGraph,
        spec: &CellSpec,
        _ctx: &PlanContext,
    ) -> Result<Plan, PlanError> {
        let started = Instant::now();
        let mapping = Mapping::all_on(g, PeId(0));
        Plan::from_mapping(self.name(), g, spec, mapping, PlanStats::Heuristic, started.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn context_budget_clamps_milp_time_limit() {
        let ctx = PlanContext::with_budget(Duration::from_secs(2));
        assert_eq!(ctx.milp_time_limit(), Duration::from_secs(2));
        let ctx = PlanContext::default();
        assert_eq!(ctx.milp_time_limit(), SolveOptions::default().mip.time_limit);
    }

    #[test]
    fn plan_error_displays_and_sources() {
        let e = PlanError::Infeasible("x".into());
        assert!(e.to_string().contains("no feasible mapping"));
        let e: PlanError = MappingError::WrongLength { expected: 2, got: 1 }.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
