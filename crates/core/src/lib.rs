//! Steady-state scheduling of streaming task graphs on the Cell processor:
//! the core contribution of Gallet, Jacquelin & Marchal (RR-LIP-2009-29 /
//! IPDPS 2010), reimplemented as a library.
//!
//! Pipeline:
//!
//! 1. describe the application as a [`StreamGraph`](cellstream_graph::StreamGraph)
//!    and the platform as a [`CellSpec`](cellstream_platform::CellSpec);
//! 2. obtain a [`Mapping`] (every task pinned to one processing element) —
//!    either from the optimal MILP solver ([`solve::solve`], paper §5) or
//!    from any heuristic;
//! 3. [`eval::evaluate`] the mapping: period `T`, throughput `ρ = 1/T`,
//!    per-resource loads and constraint violations (this is the
//!    polynomial-time verifier used in the paper's NP-completeness proof);
//! 4. materialise a [`schedule::PeriodicSchedule`] for execution by the
//!    simulator (`cellstream-sim`) or the threaded runtime
//!    (`cellstream-rt`).
//!
//! The steady-state machinery of §3.1/§4 lives in [`steady`]:
//! `firstPeriod` indices and local-store buffer sizing. The §3.2
//! NP-completeness reduction is executable in [`reduction`], and
//! [`brute`] provides the exhaustive optimum for cross-validation on
//! small instances.
//!
//! # Example
//!
//! ```
//! use cellstream_core::{eval, Mapping};
//! use cellstream_daggen::{chain, CostParams};
//! use cellstream_platform::CellSpec;
//!
//! let g = chain("pipe", 6, &CostParams::default(), 1);
//! let spec = CellSpec::ps3();
//! // map everything on the PPE: always feasible, throughput = 1/Σ wPPE-ish
//! let ppe_only = Mapping::all_on(&g, spec.pe(0));
//! let report = eval::evaluate(&g, &spec, &ppe_only).unwrap();
//! assert!(report.is_feasible());
//! assert!(report.period >= g.total_ppe_work());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avail;
pub mod brute;
pub mod delta;
pub mod eval;
pub mod formulation;
pub mod mapping;
pub mod reduction;
pub mod schedule;
pub mod scheduler;
pub mod solve;
pub mod steady;
pub mod workload;

pub use avail::Availability;
pub use cellstream_milp::Stop;
pub use delta::{MappingDelta, TaskMove};
pub use eval::incremental::{EvalState, Move};
pub use eval::{evaluate, evaluate_with, MappingReport, Violation};
pub use formulation::{FormKind, Formulation, FormulationConfig};
pub use mapping::{Mapping, MappingError};
pub use scheduler::{
    BruteScheduler, MilpScheduler, Plan, PlanContext, PlanError, PlanStats, PpeOnlyScheduler,
    Scheduler,
};
pub use solve::{solve, SolveOptions, SolveOutcome};
pub use workload::{evaluate_workload, evaluate_workload_with, AppReport, WorkloadReport};

#[cfg(test)]
mod tests;
