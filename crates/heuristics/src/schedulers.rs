//! [`Scheduler`] implementations for the heuristics, plus the
//! string-keyed registry covering every algorithm in the workspace.
//!
//! The registry is what makes bench binaries and examples data-driven:
//! `scheduler_by_name("greedy_mem")` instead of a hand-wired call, and
//! [`all_schedulers`] to sweep the whole family (as the paper's §6
//! evaluation does).
//!
//! The iterative schedulers hand `ctx.stop` to their algorithm as an
//! argument; the options they hold are the algorithm's own parameters
//! only, with no stop among them.

use crate::annealing::{anneal, AnnealingOptions};
use crate::comm_aware::comm_aware_greedy;
use crate::greedy::{greedy_cpu, greedy_mem};
use crate::search::{local_search, multi_start, LocalSearchOptions};
use cellstream_core::scheduler::{
    BruteScheduler, MilpScheduler, PlanContext, PlanError, PlanStats, PpeOnlyScheduler, Scheduler,
};
use cellstream_core::{evaluate, Mapping};
use cellstream_graph::StreamGraph;
use cellstream_platform::{CellSpec, PeId};

/// *GreedyMem* (paper §6.3) as a [`Scheduler`].
#[derive(Debug, Clone, Default)]
pub struct GreedyMemScheduler;

impl Scheduler for GreedyMemScheduler {
    fn name(&self) -> &str {
        "greedy_mem"
    }

    fn mapping(
        &self,
        g: &StreamGraph,
        spec: &CellSpec,
        _ctx: &PlanContext,
    ) -> Result<(Mapping, PlanStats), PlanError> {
        Ok((greedy_mem(g, spec), PlanStats::Heuristic))
    }
}

/// *GreedyCpu* (paper §6.3) as a [`Scheduler`].
#[derive(Debug, Clone, Default)]
pub struct GreedyCpuScheduler;

impl Scheduler for GreedyCpuScheduler {
    fn name(&self) -> &str {
        "greedy_cpu"
    }

    fn mapping(
        &self,
        g: &StreamGraph,
        spec: &CellSpec,
        _ctx: &PlanContext,
    ) -> Result<(Mapping, PlanStats), PlanError> {
        Ok((greedy_cpu(g, spec), PlanStats::Heuristic))
    }
}

/// The communication-aware greedy extension as a [`Scheduler`].
#[derive(Debug, Clone, Default)]
pub struct CommAwareScheduler;

impl Scheduler for CommAwareScheduler {
    fn name(&self) -> &str {
        "comm_aware"
    }

    fn mapping(
        &self,
        g: &StreamGraph,
        spec: &CellSpec,
        _ctx: &PlanContext,
    ) -> Result<(Mapping, PlanStats), PlanError> {
        Ok((comm_aware_greedy(g, spec), PlanStats::Heuristic))
    }
}

/// Where local search and annealing start: the first feasible context
/// seed, else *GreedyCpu*.
fn feasible_seed_or_greedy_cpu(g: &StreamGraph, spec: &CellSpec, ctx: &PlanContext) -> Mapping {
    ctx.seeds
        .iter()
        .find(|m| evaluate(g, spec, m).map(|r| r.is_feasible()).unwrap_or(false))
        .cloned()
        .unwrap_or_else(|| greedy_cpu(g, spec))
}

/// Local search as a [`Scheduler`]: refines the first
/// feasible seed from the context, falling back to *GreedyCpu*. Stops on
/// `ctx.stop`.
#[derive(Debug, Clone, Default)]
pub struct LocalSearchScheduler {
    /// Search parameters.
    pub opts: LocalSearchOptions,
}

impl Scheduler for LocalSearchScheduler {
    fn name(&self) -> &str {
        "local_search"
    }

    fn mapping(
        &self,
        g: &StreamGraph,
        spec: &CellSpec,
        ctx: &PlanContext,
    ) -> Result<(Mapping, PlanStats), PlanError> {
        let start = feasible_seed_or_greedy_cpu(g, spec, ctx);
        let (mapping, _) = local_search(g, spec, &start, &self.opts, &ctx.stop);
        // local_search does not report how many rounds it actually ran,
        // so follow the PlanStats contract: 0 when untracked.
        Ok((mapping, PlanStats::Search { iterations: 0 }))
    }
}

/// Simulated annealing as a [`Scheduler`]: walks from the first feasible
/// seed (falling back to *GreedyCpu*; infeasible starts are handled by
/// [`anneal`] itself, which restarts from PPE-only). Stops on
/// `ctx.stop`, and reports the steps the walk ran.
#[derive(Debug, Clone, Default)]
pub struct AnnealScheduler {
    /// Annealing parameters.
    pub opts: AnnealingOptions,
}

impl Scheduler for AnnealScheduler {
    fn name(&self) -> &str {
        "anneal"
    }

    fn mapping(
        &self,
        g: &StreamGraph,
        spec: &CellSpec,
        ctx: &PlanContext,
    ) -> Result<(Mapping, PlanStats), PlanError> {
        let start = feasible_seed_or_greedy_cpu(g, spec, ctx);
        let (mapping, _, ran) = anneal(g, spec, &start, &self.opts, &ctx.stop);
        Ok((mapping, PlanStats::Search { iterations: u64::from(ran) }))
    }
}

/// Multi-start local search as a [`Scheduler`]: refines both §6.3
/// greedies, the comm-aware greedy, the PPE-only baseline, and every
/// context seed, keeping the best result — "the best heuristic answer
/// without the MILP". Every start runs under `ctx.stop`.
#[derive(Debug, Clone, Default)]
pub struct MultiStartScheduler {
    /// Search parameters applied to every start.
    pub opts: LocalSearchOptions,
}

impl Scheduler for MultiStartScheduler {
    fn name(&self) -> &str {
        "multi_start"
    }

    fn mapping(
        &self,
        g: &StreamGraph,
        spec: &CellSpec,
        ctx: &PlanContext,
    ) -> Result<(Mapping, PlanStats), PlanError> {
        let mut starts = vec![
            greedy_mem(g, spec),
            greedy_cpu(g, spec),
            comm_aware_greedy(g, spec),
            Mapping::all_on(g, PeId(0)),
        ];
        starts.extend(ctx.seeds.iter().cloned());
        let (mapping, _) = multi_start(g, spec, &starts, &self.opts, &ctx.stop);
        Ok((mapping, PlanStats::Search { iterations: starts.len() as u64 }))
    }
}

/// Names of every registered scheduler, in presentation order.
pub const SCHEDULER_NAMES: [&str; 10] = [
    "ppe_only",
    "greedy_mem",
    "greedy_cpu",
    "comm_aware",
    "local_search",
    "anneal",
    "multi_start",
    "repair",
    "milp",
    "brute",
];

/// Look up a scheduler by its registry name; `None` for unknown names.
///
/// Covers the full family: the paper's §6.3 greedies, the extension
/// heuristics, the incremental repair scheduler, the §5 MILP driver, the
/// exhaustive optimum, and the PPE-only baseline.
pub fn scheduler_by_name(name: &str) -> Option<Box<dyn Scheduler>> {
    match name {
        "ppe_only" => Some(Box::new(PpeOnlyScheduler)),
        "greedy_mem" => Some(Box::new(GreedyMemScheduler)),
        "greedy_cpu" => Some(Box::new(GreedyCpuScheduler)),
        "comm_aware" => Some(Box::new(CommAwareScheduler)),
        "local_search" => Some(Box::new(LocalSearchScheduler::default())),
        "anneal" => Some(Box::new(AnnealScheduler::default())),
        "multi_start" => Some(Box::new(MultiStartScheduler::default())),
        "repair" => Some(Box::new(crate::repair::RepairScheduler::default())),
        "milp" => Some(Box::new(MilpScheduler)),
        "brute" => Some(Box::new(BruteScheduler)),
        _ => None,
    }
}

/// Every registered scheduler, in [`SCHEDULER_NAMES`] order.
pub fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    SCHEDULER_NAMES
        .iter()
        .map(|n| scheduler_by_name(n).expect("registry covers its own names"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_daggen::{chain, CostParams};

    #[test]
    fn registry_is_closed_over_its_names() {
        for name in SCHEDULER_NAMES {
            let s = scheduler_by_name(name).expect(name);
            assert_eq!(s.name(), name);
        }
        assert!(scheduler_by_name("nope").is_none());
        assert_eq!(all_schedulers().len(), SCHEDULER_NAMES.len());
    }

    #[test]
    fn heuristic_schedulers_match_their_functions() {
        let g = chain("c", 6, &CostParams::default(), 7);
        let spec = CellSpec::ps3();
        let ctx = PlanContext::default();
        let plan = GreedyMemScheduler.plan(&g, &spec, &ctx).unwrap();
        assert_eq!(plan.mapping, greedy_mem(&g, &spec));
        let plan = GreedyCpuScheduler.plan(&g, &spec, &ctx).unwrap();
        assert_eq!(plan.mapping, greedy_cpu(&g, &spec));
        let plan = CommAwareScheduler.plan(&g, &spec, &ctx).unwrap();
        assert_eq!(plan.mapping, comm_aware_greedy(&g, &spec));
    }

    #[test]
    fn seeded_local_search_never_worse_than_seed() {
        let g = chain("c", 8, &CostParams::default(), 21);
        let spec = CellSpec::with_spes(3);
        let seed = greedy_mem(&g, &spec);
        let seed_period = evaluate(&g, &spec, &seed).unwrap().period;
        let ctx = PlanContext::default().seed(seed);
        let plan = LocalSearchScheduler::default().plan(&g, &spec, &ctx).unwrap();
        assert!(plan.period() <= seed_period + 1e-15);
    }

    /// An annealing plan counts the steps its walk ran: none under a
    /// spent budget, all of them when nothing stops it.
    #[test]
    fn an_anneal_plan_reports_the_steps_it_ran() {
        let g = chain("c", 8, &CostParams::default(), 21);
        let spec = CellSpec::with_spes(3);
        for (ctx, want) in [
            (PlanContext::with_budget(std::time::Duration::ZERO), 0),
            (PlanContext::default(), AnnealingOptions::default().steps as u64),
        ] {
            let plan = AnnealScheduler::default().plan(&g, &spec, &ctx).unwrap();
            assert_eq!(plan.stats, PlanStats::Search { iterations: want });
        }
    }

    #[test]
    fn multi_start_beats_or_matches_all_greedies() {
        let g = chain("c", 7, &CostParams::default(), 17);
        let spec = CellSpec::with_spes(2);
        let ctx = PlanContext::default();
        let best = MultiStartScheduler::default().plan(&g, &spec, &ctx).unwrap();
        for name in ["greedy_mem", "greedy_cpu", "comm_aware", "ppe_only"] {
            let plan = scheduler_by_name(name).unwrap().plan(&g, &spec, &ctx).unwrap();
            if plan.is_feasible() {
                assert!(best.period() <= plan.period() + 1e-15, "{name}");
            }
        }
    }
}
