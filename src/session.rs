//! The `Session` pipeline facade: graph + platform in, mapping →
//! periodic schedule → simulation / execution out, in one builder chain.
//!
//! Every consumer of this workspace used to hand-wire the same pipeline:
//! pick an algorithm, evaluate the mapping, build the
//! [`PeriodicSchedule`], then call `sim::simulate` or `rt::run`.
//! [`Session`] packages that flow:
//!
//! ```
//! use cellstream::prelude::*;
//!
//! let mut b = StreamGraph::builder("fig2a");
//! let t1 = b.add_task(TaskSpec::new("T1").ppe_cost(2e-6).spe_cost(0.7e-6));
//! let t2 = b.add_task(TaskSpec::new("T2").ppe_cost(1e-6).spe_cost(0.4e-6));
//! b.add_edge(t1, t2, 4096.0).unwrap();
//! let g = b.build().unwrap();
//! let spec = CellSpec::ps3();
//!
//! let planned = Session::new(&g, &spec)
//!     .scheduler_named("multi_start")
//!     .unwrap()
//!     .plan()
//!     .unwrap();
//! let scheduled = planned.schedule().unwrap();
//! let trace = scheduled.simulate(&SimConfig::ideal(), 500).unwrap();
//! assert!(trace.steady_state_throughput() > 0.0);
//! ```

use cellstream_core::schedule::PeriodicSchedule;
use cellstream_core::scheduler::{Plan, PlanContext, PlanError, Scheduler};
use cellstream_core::workload::{per_app_reports, AppReport};
use cellstream_core::{Mapping, SolveOptions, Stop};
use cellstream_graph::{StreamGraph, Workload};
use cellstream_heuristics::{scheduler_by_name, MemberResult, Portfolio};
use cellstream_platform::CellSpec;
use cellstream_rt::{run, Kernel, RtConfig, RtError, RunStats};
use cellstream_sim::{simulate, RunTrace, SimConfig, SimError};
use std::sync::Arc;
use std::time::Duration;

enum Strategy {
    Single(Box<dyn Scheduler>),
    Portfolio(Portfolio),
}

/// Builder for one planning run. Start with [`Session::new`], configure
/// the strategy (a single scheduler or a [`Portfolio`]; the default is
/// [`Portfolio::standard`]), then call [`plan`](Session::plan).
pub struct Session<'a> {
    g: &'a StreamGraph,
    spec: &'a CellSpec,
    strategy: Strategy,
    ctx: PlanContext,
    /// Set when the session plans a composed multi-application workload:
    /// carried through the pipeline so per-application reports are one
    /// call away at every stage.
    workload: Option<&'a Workload>,
}

impl<'a> Session<'a> {
    /// A session planning `g` on `spec` with the standard portfolio.
    pub fn new(g: &'a StreamGraph, spec: &'a CellSpec) -> Self {
        Session {
            g,
            spec,
            strategy: Strategy::Portfolio(Portfolio::standard()),
            ctx: PlanContext::default(),
            workload: None,
        }
    }

    /// A session co-scheduling a composed multi-application [`Workload`]
    /// on `spec`: the composed graph is planned like any other graph
    /// (its period *is* the maximum weighted per-application period),
    /// and the planned/scheduled stages expose per-application reports
    /// and simulated throughputs.
    pub fn for_workload(w: &'a Workload, spec: &'a CellSpec) -> Self {
        Session { workload: Some(w), ..Session::new(w.graph(), spec) }
    }

    /// Plan with a single scheduler instance instead of a portfolio.
    pub fn scheduler(mut self, s: impl Scheduler + 'static) -> Self {
        self.strategy = Strategy::Single(Box::new(s));
        self
    }

    /// Plan with a single scheduler looked up by registry name
    /// (`"milp"`, `"greedy_mem"`, ...). Errors on unknown names.
    pub fn scheduler_named(mut self, name: &str) -> Result<Self, PlanError> {
        let s = scheduler_by_name(name)
            .ok_or_else(|| PlanError::Unsupported(format!("unknown scheduler `{name}`")))?;
        self.strategy = Strategy::Single(s);
        Ok(self)
    }

    /// Plan with a custom portfolio.
    pub fn portfolio(mut self, p: Portfolio) -> Self {
        self.strategy = Strategy::Portfolio(p);
        self
    }

    /// Cap the planning wall-clock time. The clock starts here, when
    /// the session is configured, not when [`plan`](Session::plan) runs.
    pub fn budget(mut self, budget: Duration) -> Self {
        self.ctx.stop = Stop::after(budget);
        self
    }

    /// Add a warm-start seed mapping.
    pub fn seed(mut self, m: Mapping) -> Self {
        self.ctx.seeds.push(m);
        self
    }

    /// Override the MILP configuration.
    pub fn solve_options(mut self, opts: SolveOptions) -> Self {
        self.ctx.solve = opts;
        self
    }

    /// Run the configured strategy and move to the planned stage.
    pub fn plan(self) -> Result<PlannedSession<'a>, PlanError> {
        let (plan, leaderboard) = match &self.strategy {
            Strategy::Single(s) => (s.plan(self.g, self.spec, &self.ctx)?, Vec::new()),
            Strategy::Portfolio(p) => {
                let outcome = p.run_with(self.g, self.spec, &self.ctx)?;
                (outcome.best, outcome.leaderboard)
            }
        };
        Ok(PlannedSession {
            g: self.g,
            spec: self.spec,
            plan,
            leaderboard,
            workload: self.workload,
        })
    }
}

/// A session holding a computed [`Plan`]. Inspect it, compare the
/// leaderboard, then [`schedule`](PlannedSession::schedule).
pub struct PlannedSession<'a> {
    g: &'a StreamGraph,
    spec: &'a CellSpec,
    plan: Plan,
    leaderboard: Vec<MemberResult>,
    workload: Option<&'a Workload>,
}

impl<'a> PlannedSession<'a> {
    /// The winning plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Per-member results when the session ran a portfolio (best first;
    /// empty for single-scheduler sessions).
    pub fn leaderboard(&self) -> &[MemberResult] {
        &self.leaderboard
    }

    /// The graph being scheduled.
    pub fn graph(&self) -> &StreamGraph {
        self.g
    }

    /// The target platform.
    pub fn spec(&self) -> &CellSpec {
        self.spec
    }

    /// The composed workload, for sessions started with
    /// [`Session::for_workload`].
    pub fn workload(&self) -> Option<&'a Workload> {
        self.workload
    }

    /// Per-application split of the winning plan (period, throughput and
    /// weighted period per app). Empty unless the session was started
    /// with [`Session::for_workload`].
    pub fn per_app(&self) -> Vec<AppReport> {
        match self.workload {
            Some(w) => per_app_reports(w, self.spec, &self.plan.mapping, &self.plan.report),
            None => Vec::new(),
        }
    }

    /// Materialise the periodic steady-state schedule (paper §3.1).
    /// Errors when the plan's mapping is infeasible — an infeasible
    /// mapping has no meaningful steady state to schedule. Takes `&self`
    /// so a failed call leaves the plan and leaderboard available for
    /// diagnosis (portfolio runs are expensive to redo).
    pub fn schedule(&self) -> Result<ScheduledSession<'a>, PlanError> {
        if !self.plan.is_feasible() {
            return Err(PlanError::Infeasible(format!(
                "plan from `{}` violates {} constraint(s); cannot build a schedule",
                self.plan.scheduler,
                self.plan.report.violations.len()
            )));
        }
        let schedule =
            PeriodicSchedule::build(self.g, self.spec, &self.plan.mapping, &self.plan.report);
        Ok(ScheduledSession {
            g: self.g,
            spec: self.spec,
            plan: self.plan.clone(),
            schedule,
            workload: self.workload,
        })
    }
}

/// A session holding a feasible plan and its [`PeriodicSchedule`]:
/// ready to simulate (model hardware) or execute (real threads).
pub struct ScheduledSession<'a> {
    g: &'a StreamGraph,
    spec: &'a CellSpec,
    plan: Plan,
    schedule: PeriodicSchedule,
    workload: Option<&'a Workload>,
}

impl<'a> ScheduledSession<'a> {
    /// The winning plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The periodic schedule.
    pub fn schedule(&self) -> &PeriodicSchedule {
        &self.schedule
    }

    /// The graph being scheduled.
    pub fn graph(&self) -> &StreamGraph {
        self.g
    }

    /// The target platform.
    pub fn spec(&self) -> &CellSpec {
        self.spec
    }

    /// The composed workload, for sessions started with
    /// [`Session::for_workload`].
    pub fn workload(&self) -> Option<&'a Workload> {
        self.workload
    }

    /// Per-application split of the plan (see
    /// [`PlannedSession::per_app`]). Empty for single-graph sessions.
    pub fn per_app(&self) -> Vec<AppReport> {
        match self.workload {
            Some(w) => per_app_reports(w, self.spec, &self.plan.mapping, &self.plan.report),
            None => Vec::new(),
        }
    }

    /// Run the mapping on the discrete-event Cell simulator for
    /// `instances` stream instances.
    pub fn simulate(&self, cfg: &SimConfig, instances: u64) -> Result<RunTrace, SimError> {
        simulate(self.g, self.spec, &self.plan.mapping, cfg, instances)
    }

    /// Simulate and attribute the measured steady-state throughput to
    /// each application of the composed workload (instances per second,
    /// in application-instance terms). The per-application vector is
    /// empty for single-graph sessions.
    pub fn simulate_per_app(
        &self,
        cfg: &SimConfig,
        instances: u64,
    ) -> Result<(RunTrace, Vec<f64>), SimError> {
        let trace = self.simulate(cfg, instances)?;
        let per_app = match self.workload {
            Some(w) => trace.per_app_throughput(w),
            None => Vec::new(),
        };
        Ok((trace, per_app))
    }

    /// Execute the mapping on the threaded runtime emulator with the
    /// given task kernels.
    pub fn execute(
        &self,
        kernels: &[Arc<dyn Kernel>],
        cfg: &RtConfig,
    ) -> Result<RunStats, RtError> {
        run(self.g, self.spec, &self.plan.mapping, kernels, cfg)
    }
}
