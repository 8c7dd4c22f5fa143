//! **cellstream** — steady-state scheduling of complex streaming
//! applications on the Cell processor.
//!
//! A Rust reproduction of Gallet, Jacquelin & Marchal, *Scheduling complex
//! streaming applications on the Cell processor* (RR-LIP-2009-29 / IPDPS
//! 2010). This facade crate re-exports the whole workspace; see the README
//! for the architecture tour and DESIGN.md for the paper-to-code map.
//!
//! The 30-second version:
//!
//! ```
//! use cellstream::core::{solve, SolveOptions};
//! use cellstream::graph::{StreamGraph, TaskSpec};
//! use cellstream::platform::CellSpec;
//!
//! // two-stage pipeline from the paper's Figure 2(a)
//! let mut b = StreamGraph::builder("fig2a");
//! let t1 = b.add_task(TaskSpec::new("T1").ppe_cost(2e-6).spe_cost(0.7e-6));
//! let t2 = b.add_task(TaskSpec::new("T2").ppe_cost(1e-6).spe_cost(0.4e-6));
//! b.add_edge(t1, t2, 4096.0).unwrap();
//! let app = b.build().unwrap();
//!
//! let outcome = solve(&app, &CellSpec::ps3(), &SolveOptions::default()).unwrap();
//! assert!(outcome.throughput > 0.0);
//! ```
//!
//! Crate map:
//!
//! * [`platform`] — the Cell machine model (§2.1)
//! * [`graph`] — streaming task graphs with peek semantics (§2.2)
//! * [`daggen`] — random graph generation + the paper's evaluation graphs
//! * [`milp`] — the LP/MILP solver (CPLEX substitute)
//! * [`core`] — steady-state scheduling: `firstPeriod`, buffers,
//!   evaluation, Linear Program (1), the optimal-mapping driver (§3–§5)
//! * [`heuristics`] — GreedyMem/GreedyCpu (§6.3) + extensions
//! * [`sim`] — the discrete-event Cell simulator (the "hardware") plus
//!   the online arrival-trace driver (`sim::online`)
//! * [`rt`] — the threaded runtime emulator (the §6.1 framework)
//! * [`serve`] — the online serving loop: dynamic application
//!   arrival/departure with migration-aware incremental replanning
//! * [`cluster`] — two-level fleet scheduling: a coordinator sharding
//!   the serving loop across many Cell nodes, with network-priced
//!   cross-node migration
//! * [`apps`] — audio encoder, video pipeline, cipher farm, DSP chain
//! * [`telemetry`] — observability: lock-free metrics, the replan
//!   flight recorder, and Prometheus/JSON exposition snapshots

#![forbid(unsafe_code)]

pub use cellstream_apps as apps;
pub use cellstream_cluster as cluster;
pub use cellstream_core as core;
pub use cellstream_daggen as daggen;
pub use cellstream_graph as graph;
pub use cellstream_heuristics as heuristics;
pub use cellstream_milp as milp;
pub use cellstream_platform as platform;
pub use cellstream_rt as rt;
pub use cellstream_serve as serve;
pub use cellstream_sim as sim;
pub use cellstream_telemetry as telemetry;

pub mod session;

pub use session::{PlannedSession, ScheduledSession, Session};

/// The most common imports in one place.
///
/// ```
/// use cellstream::prelude::*;
/// let spec = CellSpec::qs22();
/// assert_eq!(spec.n_spe(), 8);
/// ```
pub mod prelude {
    pub use crate::session::{PlannedSession, ScheduledSession, Session};
    pub use cellstream_cluster::{
        Cluster, ClusterOptions, ClusterReport, ClusterVerdict, NetworkModel, NodeId, PlacePolicy,
    };
    pub use cellstream_core::scheduler::CancelToken;
    pub use cellstream_core::{
        evaluate, evaluate_workload, solve, AppReport, Mapping, MappingDelta, MappingReport, Plan,
        PlanContext, PlanError, PlanStats, Scheduler, SolveOptions, SolveOutcome, WorkloadReport,
    };
    pub use cellstream_graph::{AppId, StreamGraph, TaskId, TaskSpec, Workload};
    pub use cellstream_heuristics::{
        all_schedulers, best_partition, multi_start, scheduler_by_name, scheduler_names, Portfolio,
        PortfolioOutcome, SCHEDULER_NAMES,
    };
    pub use cellstream_platform::{CellSpec, PeId, PeKind};
    pub use cellstream_rt::{RtConfig, RunStats};
    pub use cellstream_serve::{Event, ServeReport, Service, ServiceOptions, Verdict};
    pub use cellstream_sim::{simulate, EventTrace, RunTrace, SimConfig, TraceEvent};
    pub use cellstream_telemetry::{FlightEvent, FlightRecorder, Snapshot};
}
