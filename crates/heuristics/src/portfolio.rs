//! The parallel scheduler portfolio.
//!
//! The paper's workflow (§6) runs the greedy heuristics *and* the MILP
//! on every instance and compares; its conclusion asks for "involved
//! mapping heuristics which approach the optimal throughput". A
//! [`Portfolio`] packages that workflow: run any set of [`Scheduler`]s
//! concurrently on OS threads under one [`Stop`], feed every
//! feasible heuristic mapping into the MILP stage as warm-start
//! incumbents (exactly how §6's CPLEX runs were seeded), and return the
//! best feasible plan together with a full leaderboard.
//!
//! Execution model: members run in two waves. Every non-MILP member
//! starts immediately on its own thread; MILP members run afterwards so
//! their warm starts can include the first wave's mappings. Both waves
//! share the context's stop, its flag and its deadline, except that the
//! second wave's deadline is pushed to at least a fixed floor
//! from its start ([`Stop::at_least`]). A budget is a
//! `PlanContext::with_budget` context, whose clock starts when it is
//! built.
//!
//! [`Stop`]: cellstream_core::Stop
//! [`Stop::at_least`]: cellstream_core::Stop::at_least

use crate::schedulers::scheduler_by_name;
use cellstream_core::scheduler::{Plan, PlanContext, PlanError, Scheduler};
use cellstream_graph::StreamGraph;
use cellstream_platform::CellSpec;
use std::time::{Duration, Instant};

/// Minimum wall-clock time the second (warm-start) wave receives even
/// when the first wave consumed the whole portfolio budget: enough for
/// the MILP's root LP + rounding pass, which is what guarantees
/// best-of-members behaviour. This is the only amount by which a
/// portfolio run may overshoot its deadline — a **fixed** floor, not a
/// fraction of the budget (the old `budget / 20` top-up let a run exceed
/// a large budget by 5%). Total wall time is therefore capped at the
/// deadline plus this floor (plus scheduling noise).
const SECOND_WAVE_FLOOR: Duration = Duration::from_millis(100);

/// One member's result in the [`PortfolioOutcome`] leaderboard.
#[derive(Debug, Clone)]
pub struct MemberResult {
    /// The member's registry name.
    pub scheduler: String,
    /// Its plan, or why it failed.
    pub result: Result<Plan, PlanError>,
}

impl MemberResult {
    /// The plan when it exists and is feasible.
    pub fn feasible_plan(&self) -> Option<&Plan> {
        self.result.as_ref().ok().filter(|p| p.is_feasible())
    }
}

/// The result of [`Portfolio::run_with`].
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The best feasible plan across all members.
    pub best: Plan,
    /// Every member's result, sorted best-first (feasible plans by
    /// period, then failures).
    pub leaderboard: Vec<MemberResult>,
    /// Total wall-clock time of the portfolio run.
    pub wall: Duration,
}

impl PortfolioOutcome {
    /// Leaderboard entry of a member by name.
    pub fn member(&self, name: &str) -> Option<&MemberResult> {
        self.leaderboard.iter().find(|m| m.scheduler == name)
    }

    /// Render the leaderboard as aligned text, one member per line —
    /// period, feasibility, wall time, and where the budget went:
    /// search iterations for iterative members; nodes, simplex
    /// iterations, gap and the dual-simplex warm-start hit rate for the
    /// MILP. This is what the bench binaries print so solver effort is
    /// visible next to solution quality.
    pub fn render_leaderboard(&self) -> String {
        use cellstream_core::scheduler::PlanStats;
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<12} {:>12} {:>10}  budget breakdown",
            "member", "period(us)", "wall(ms)"
        );
        for m in &self.leaderboard {
            match &m.result {
                Ok(plan) => {
                    let detail = match &plan.stats {
                        PlanStats::Heuristic => String::new(),
                        PlanStats::Search { iterations } => format!("iters {iterations}"),
                        PlanStats::Exhaustive { enumerated } => format!("enumerated {enumerated}"),
                        PlanStats::Milp {
                            gap,
                            nodes,
                            lp_iterations,
                            warm_start_rate,
                            status,
                            ..
                        } => format!(
                            "gap {:.1}%  nodes {}  simplex {}  warm {:.0}%  {:?}",
                            gap * 100.0,
                            nodes,
                            lp_iterations,
                            warm_start_rate * 100.0,
                            status
                        ),
                    };
                    let _ = writeln!(
                        out,
                        "  {:<12} {:>12.3} {:>10.1}  {}{}",
                        m.scheduler,
                        plan.period() * 1e6,
                        plan.wall.as_secs_f64() * 1e3,
                        if plan.is_feasible() { "" } else { "[infeasible] " },
                        detail
                    );
                }
                Err(e) => {
                    let _ =
                        writeln!(out, "  {:<12} {:>12} {:>10}  failed: {e}", m.scheduler, "-", "-");
                }
            }
        }
        out
    }
}

/// A set of schedulers raced in parallel. See the module docs for the
/// execution model.
///
/// ```
/// use cellstream_core::PlanContext;
/// use cellstream_daggen::{chain, CostParams};
/// use cellstream_heuristics::Portfolio;
/// use cellstream_platform::CellSpec;
/// use std::time::Duration;
///
/// let g = chain("pipe", 6, &CostParams::default(), 1);
/// let ctx = PlanContext::with_budget(Duration::from_secs(10));
/// let outcome = Portfolio::standard().run_with(&g, &CellSpec::ps3(), &ctx).unwrap();
/// assert!(outcome.best.is_feasible());
/// assert!(outcome.leaderboard.len() >= 5);
/// ```
pub struct Portfolio {
    members: Vec<Box<dyn Scheduler>>,
}

impl Default for Portfolio {
    fn default() -> Self {
        Portfolio::new()
    }
}

impl Portfolio {
    /// An empty portfolio; add members with [`with`](Self::with) /
    /// [`with_named`](Self::with_named).
    pub fn new() -> Self {
        Portfolio { members: Vec::new() }
    }

    /// The paper's §6 line-up: the PPE-only baseline (§6.4.2), both
    /// greedies, the comm-aware greedy, multi-start local search,
    /// simulated annealing, and the seed-fed MILP. The baseline member
    /// makes the "always returns a feasible plan" guarantee structural:
    /// PPE-only is feasible on every instance.
    pub fn standard() -> Self {
        Portfolio::heuristics_only().with_named("milp")
    }

    /// The heuristic-only line-up (no MILP): fast and budget-friendly,
    /// with the same PPE-only feasibility guarantee. The iterative
    /// members (multi-start search, annealing) run on the incremental
    /// evaluator and stop on the context's stop, so a bigger budget
    /// directly buys more probed moves.
    pub fn heuristics_only() -> Self {
        Portfolio::new()
            .with_named("ppe_only")
            .with_named("greedy_mem")
            .with_named("greedy_cpu")
            .with_named("comm_aware")
            .with_named("multi_start")
            .with_named("anneal")
    }

    /// Add a scheduler instance.
    pub fn with(mut self, s: impl Scheduler + 'static) -> Self {
        self.members.push(Box::new(s));
        self
    }

    /// Add a scheduler by registry name. Panics on unknown names — the
    /// registry is static, so this is a programming error, not input.
    pub fn with_named(mut self, name: &str) -> Self {
        let s = scheduler_by_name(name)
            .unwrap_or_else(|| panic!("unknown scheduler `{name}`; see SCHEDULER_NAMES"));
        self.members.push(s);
        self
    }

    /// The member names, first-wave members before warm-start members.
    pub fn member_names(&self) -> Vec<&str> {
        let (second, first): (Vec<_>, Vec<_>) =
            self.members.iter().partition(|s| s.wants_warm_starts());
        first.iter().chain(second.iter()).map(|s| s.name()).collect()
    }

    /// Race every member under `ctx` (seeds, MILP options and stop) and
    /// return the best feasible plan plus the leaderboard. Fails with
    /// [`PlanError::Unsupported`] on an empty portfolio and
    /// [`PlanError::Infeasible`] when no member produced a feasible plan.
    /// A composed multi-application workload races as
    /// `run_with(w.graph(), …)`; split the winner with `Plan::per_app`.
    pub fn run_with(
        &self,
        g: &StreamGraph,
        spec: &CellSpec,
        ctx: &PlanContext,
    ) -> Result<PortfolioOutcome, PlanError> {
        if self.members.is_empty() {
            return Err(PlanError::Unsupported("empty portfolio".to_owned()));
        }
        let started = Instant::now();

        let (second_wave, first_wave): (Vec<_>, Vec<_>) =
            self.members.iter().partition(|s| s.wants_warm_starts());

        // ---- wave 1: constructive members, one thread per member ----------
        let mut leaderboard: Vec<MemberResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = first_wave
                .iter()
                .map(|member| {
                    scope.spawn(move || MemberResult {
                        scheduler: member.name().to_owned(),
                        result: member.plan(g, spec, ctx),
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("scheduler threads do not panic")).collect()
        });

        // ---- wave 2: warm-start members (MILP and friends), seeded --------
        if !second_wave.is_empty() {
            let mut milp_ctx = ctx.clone();
            milp_ctx.seeds.extend(
                leaderboard.iter().filter_map(|m| m.feasible_plan()).map(|p| p.mapping.clone()),
            );
            milp_ctx.stop = ctx.stop.at_least(SECOND_WAVE_FLOOR);
            let results: Vec<MemberResult> = std::thread::scope(|scope| {
                let handles: Vec<_> = second_wave
                    .iter()
                    .map(|member| {
                        let ctx = &milp_ctx;
                        scope.spawn(move || MemberResult {
                            scheduler: member.name().to_owned(),
                            result: member.plan(g, spec, ctx),
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("scheduler threads do not panic"))
                    .collect()
            });
            leaderboard.extend(results);
        }

        // ---- pick the winner, sort the leaderboard ------------------------
        // NaN-safe total order on periods, then scheduler name: members
        // with equal periods used to land in thread-completion order,
        // making the leaderboard (and the reported winner on ties)
        // nondeterministic run-to-run.
        leaderboard.sort_by(|a, b| {
            let key = |m: &MemberResult| m.feasible_plan().map(Plan::period);
            match (key(a), key(b)) {
                (Some(x), Some(y)) => x.total_cmp(&y).then_with(|| a.scheduler.cmp(&b.scheduler)),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => a.scheduler.cmp(&b.scheduler),
            }
        });
        let best =
            leaderboard.iter().filter_map(MemberResult::feasible_plan).next().cloned().ok_or_else(
                || {
                    PlanError::Infeasible(format!(
                        "none of the {} portfolio members produced a feasible plan",
                        self.members.len()
                    ))
                },
            )?;
        Ok(PortfolioOutcome { best, leaderboard, wall: started.elapsed() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_daggen::{chain, fork_join, CostParams};
    use cellstream_platform::CellSpec;

    #[test]
    fn portfolio_never_worse_than_any_member() {
        let g = fork_join("fj", 3, &CostParams::default(), 5);
        let spec = CellSpec::ps3();
        let ctx = PlanContext::with_budget(Duration::from_secs(20));
        let outcome = Portfolio::standard().run_with(&g, &spec, &ctx).unwrap();
        for member in &outcome.leaderboard {
            if let Some(plan) = member.feasible_plan() {
                assert!(
                    outcome.best.period() <= plan.period() + 1e-15,
                    "best {} worse than member {}: {} vs {}",
                    outcome.best.scheduler,
                    member.scheduler,
                    outcome.best.period(),
                    plan.period()
                );
            }
        }
    }

    #[test]
    fn leaderboard_covers_all_members_and_is_sorted() {
        let g = chain("c", 6, &CostParams::default(), 11);
        let spec = CellSpec::with_spes(2);
        let p = Portfolio::heuristics_only();
        let outcome = p.run_with(&g, &spec, &PlanContext::default()).unwrap();
        assert_eq!(outcome.leaderboard.len(), 6);
        let periods: Vec<f64> = outcome
            .leaderboard
            .iter()
            .filter_map(|m| m.feasible_plan().map(Plan::period))
            .collect();
        assert!(periods.windows(2).all(|w| w[0] <= w[1] + 1e-15), "{periods:?}");
        assert!((outcome.best.period() - periods[0]).abs() < 1e-15);
    }

    #[test]
    fn milp_member_sees_heuristic_seeds() {
        // On a budget too small for the B&B to do anything, the seeded
        // MILP must still return at least the best heuristic mapping.
        let g = fork_join("fj", 4, &CostParams::default(), 2);
        let spec = CellSpec::ps3();
        let ctx = PlanContext::with_budget(Duration::from_millis(400));
        let outcome = Portfolio::standard().run_with(&g, &spec, &ctx).unwrap();
        let milp = outcome.member("milp").expect("milp is a member");
        let multi = outcome.member("multi_start").expect("multi_start is a member");
        // both must be feasible unconditionally: the heuristics always
        // are, and the seeded MILP inherits their mappings as incumbents
        let milp_plan = milp.feasible_plan().expect("seeded MILP returns a feasible plan");
        let multi_plan = multi.feasible_plan().expect("multi_start is always feasible");
        assert!(
            milp_plan.period() <= multi_plan.period() + 1e-12,
            "seeded MILP ({}) must not lose to its own seed ({})",
            milp_plan.period(),
            multi_plan.period()
        );
    }

    #[test]
    fn leaderboard_renders_milp_budget_breakdown() {
        let g = chain("c", 5, &CostParams::default(), 3);
        let spec = CellSpec::with_spes(2);
        let ctx = PlanContext::with_budget(Duration::from_secs(5));
        let outcome = Portfolio::standard().run_with(&g, &spec, &ctx).unwrap();
        let text = outcome.render_leaderboard();
        // every member appears
        for m in &outcome.leaderboard {
            assert!(text.contains(&m.scheduler), "missing {} in:\n{text}", m.scheduler);
        }
        // the MILP line carries its budget breakdown incl. warm starts
        let milp_line = text.lines().find(|l| l.contains("milp")).expect("milp line");
        for needle in ["gap", "nodes", "simplex", "warm"] {
            assert!(milp_line.contains(needle), "missing {needle} in: {milp_line}");
        }
    }

    #[test]
    fn empty_portfolio_is_an_error() {
        let g = chain("c", 3, &CostParams::default(), 1);
        let err =
            Portfolio::new().run_with(&g, &CellSpec::ps3(), &PlanContext::default()).unwrap_err();
        assert!(matches!(err, PlanError::Unsupported(_)));
    }

    #[test]
    fn member_names_put_milp_last() {
        let p = Portfolio::standard();
        let names = p.member_names();
        assert_eq!(names.last(), Some(&"milp"));
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn leaderboard_ties_break_by_name_deterministically() {
        // a single-task graph: several members produce the identical
        // best mapping (task on an SPE), so their periods tie exactly.
        // Before the name tie-break, their order was whatever the thread
        // scheduler produced that run.
        use cellstream_graph::{StreamGraph, TaskSpec};
        let mut b = StreamGraph::builder("one");
        b.add_task(TaskSpec::new("t").ppe_cost(4e-6).spe_cost(1e-6));
        let g = b.build().unwrap();
        let spec = CellSpec::with_spes(2);
        let p = Portfolio::heuristics_only();
        let ctx = PlanContext::default();
        let reference: Vec<String> = p
            .run_with(&g, &spec, &ctx)
            .unwrap()
            .leaderboard
            .iter()
            .map(|m| m.scheduler.clone())
            .collect();
        for _ in 0..6 {
            let names: Vec<String> = p
                .run_with(&g, &spec, &ctx)
                .unwrap()
                .leaderboard
                .iter()
                .map(|m| m.scheduler.clone())
                .collect();
            assert_eq!(names, reference, "leaderboard order must be reproducible");
        }
        // and within an equal-period block the names are sorted
        let outcome = p.run_with(&g, &spec, &ctx).unwrap();
        for w in outcome.leaderboard.windows(2) {
            let (pa, pb) = (w[0].feasible_plan(), w[1].feasible_plan());
            if let (Some(pa), Some(pb)) = (pa, pb) {
                if pa.period() == pb.period() {
                    assert!(w[0].scheduler < w[1].scheduler, "ties sorted by name");
                }
            }
        }
    }

    #[test]
    fn portfolio_wall_respects_budget_plus_floor() {
        let g = fork_join("fj", 3, &CostParams::default(), 7);
        let spec = CellSpec::ps3();
        let budget = Duration::from_millis(600);
        let ctx = PlanContext::with_budget(budget);
        let outcome = Portfolio::standard().run_with(&g, &spec, &ctx).unwrap();
        // documented cap: budget + SECOND_WAVE_FLOOR, plus generous slack
        // for thread scheduling and the B&B's per-node limit check
        let cap = budget + SECOND_WAVE_FLOOR + Duration::from_millis(750);
        assert!(outcome.wall <= cap, "portfolio ran {:?}, cap {:?}", outcome.wall, cap);
    }

    #[test]
    fn cancel_aborts_a_running_portfolio_within_a_step() {
        use crate::schedulers::{AnnealScheduler, LocalSearchScheduler, MultiStartScheduler};
        use crate::{AnnealingOptions, LocalSearchOptions};
        use cellstream_core::Stop;
        // iterative members sized to run for minutes if uncancelled
        let huge_search = LocalSearchOptions { max_rounds: usize::MAX, ..Default::default() };
        let p = Portfolio::new()
            .with_named("ppe_only")
            .with(LocalSearchScheduler { opts: huge_search.clone() })
            .with(MultiStartScheduler { opts: huge_search })
            .with(AnnealScheduler {
                opts: AnnealingOptions { steps: u32::MAX, ..Default::default() },
            });
        let g = chain("c", 40, &CostParams::default(), 17);
        let spec = CellSpec::qs22();
        let ctx = PlanContext { stop: Stop::new(), ..PlanContext::default() };
        let stop = ctx.stop.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            stop.cancel();
        });
        let started = Instant::now();
        let outcome = p.run_with(&g, &spec, &ctx).unwrap();
        canceller.join().unwrap();
        // every member noticed the shared flag within one search step;
        // generous bound for slow CI machines
        assert!(started.elapsed() < Duration::from_secs(10), "cancel took {:?}", started.elapsed());
        assert!(outcome.best.is_feasible(), "cancelled members return best-so-far");
    }

    #[test]
    fn a_composed_workload_races_as_its_graph() {
        use cellstream_graph::Workload;
        let a = chain("a", 4, &CostParams::default(), 3);
        let b = chain("b", 3, &CostParams::default(), 5);
        let w = Workload::compose("pair", &[&a, &b]).unwrap();
        let spec = CellSpec::ps3();
        let outcome = Portfolio::heuristics_only()
            .run_with(w.graph(), &spec, &PlanContext::default())
            .unwrap();
        assert!(outcome.best.is_feasible());
        let per_app = outcome.best.per_app(&w, &spec);
        assert_eq!(per_app.len(), 2);
        for ar in &per_app {
            assert!((ar.weighted_period - outcome.best.period()).abs() < 1e-15);
        }
    }
}
