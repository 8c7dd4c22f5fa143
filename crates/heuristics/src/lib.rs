//! Mapping heuristics.
//!
//! The two **reference heuristics of paper §6.3** — both greedy, both
//! memory-aware, both deliberately communication-blind (that blindness is
//! exactly what Figure 7 exposes):
//!
//! * [`greedy_mem`] — *GreedyMem*: walk tasks in topological order; among
//!   the SPEs with enough free local store for the task's buffers, pick
//!   the one with the **least loaded memory**; fall back to the PPE.
//! * [`greedy_cpu`] — *GreedyCpu*: same walk, but among all PEs (SPEs and
//!   the PPE) with enough memory, pick the one with the **smallest
//!   computation load**.
//!
//! Plus the extension heuristics the paper's conclusion calls for
//! ("design involved mapping heuristics which approach the optimal
//! throughput"):
//!
//! * [`local_search`] — first-improvement task-move/swap descent from
//!   any starting mapping;
//! * [`comm_aware_greedy`] — one-pass greedy that relocates each task off
//!   the PPE-only baseline to the PE minimising the *whole mapping's*
//!   period (so communication, memory traffic and DMA pressure count),
//!   not just memory or compute;
//! * [`anneal`] — simulated annealing over single-task moves, for
//!   escaping the local optima where the descent stops.
//!
//! All three iterative heuristics run on the **incremental evaluator**
//! ([`cellstream_core::EvalState`]): probing a neighbour is an O(degree)
//! delta update instead of a full O(V+E) re-evaluation, which is what
//! makes the O(K²) swap neighbourhood the default and paper-scale graphs
//! (94 tasks on a QS22) routine.
//!
//! Every heuristic returns a structurally valid mapping; feasibility of
//! the greedy outputs follows from their memory checks (DMA limits can
//! still be violated — the paper's greedies ignore them too, and the
//! evaluator reports it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annealing;
pub mod comm_aware;
pub mod greedy;
pub mod multi_app;
pub mod portfolio;
pub mod repair;
pub mod schedulers;
pub mod search;

pub use annealing::{anneal, AnnealingOptions};
pub use comm_aware::comm_aware_greedy;
pub use greedy::{greedy_cpu, greedy_mem};
pub use multi_app::best_partition;
pub use portfolio::{MemberResult, Portfolio, PortfolioOutcome};
pub use repair::{
    carry_over_into, repair, repair_in_place, repair_with, RepairOptions, RepairScheduler,
};
pub use schedulers::{
    all_schedulers, scheduler_by_name, scheduler_names, AnnealScheduler, CommAwareScheduler,
    GreedyCpuScheduler, GreedyMemScheduler, LocalSearchScheduler, MultiStartScheduler,
    SCHEDULER_NAMES,
};
pub use search::{local_search, multi_start, refine_in_place, LocalSearchOptions};

#[cfg(test)]
mod tests;
