//! Online serving of streaming applications on one Cell: dynamic
//! arrival/departure with migration-aware incremental replanning.
//!
//! The paper plans one static mapping offline. A Cell blade in
//! production *serves*: media pipelines join, change rate, and leave
//! while the machine runs (the regime of Benoit et al., *Resource
//! Allocation for Multiple Concurrent In-Network Stream-Processing
//! Applications*). [`Service`] is that serving loop. It owns a live
//! [`Workload`](cellstream_graph::Workload) and an incumbent
//! [`Mapping`](cellstream_core::Mapping) and processes an event stream:
//!
//! * [`Event::Admit`] — an application arrives with a throughput weight.
//!   **Admission control** plans a candidate placement and rejects (or
//!   queues, see [`ServiceOptions::queue_rejected`]) the application if
//!   the plan would break the §3.2 feasibility constraints or any
//!   resident application's period guarantee. An admitted application
//!   never violates SPE local-store capacity: the repair planner evicts
//!   to the PPE before it ever returns an infeasible seat.
//! * [`Event::Retire`] — an application departs; its tasks are dropped
//!   and the survivors' mapping is repaired in place. Queued admissions
//!   are retried against the freed capacity.
//! * [`Event::Reweight`] — an application changes rate; costs, traffic
//!   and buffer footprints rescale, and the repair planner restores
//!   feasibility if the new footprints broke it.
//!
//! **One path.** Fault events ([`Event::PeFailed`] /
//! [`Event::PeRestored`] / [`Event::CostDrift`]) re-solve the same
//! mapping problem for a changed platform or changed costs, so every
//! event takes the same route — validate, canonical sort, cut into
//! groups, one replan per group, then the commit rule: a request the
//! platform cannot carry is *refused*, a fault it cannot carry *sheds*
//! lowest-weight applications. [`Service::process`] is
//! [`Service::process_batch`] for a burst of one; a burst without
//! faults or a guarantee fuses into a single replan.
//!
//! **Incremental replanning.** Each event goes through
//! [`cellstream_heuristics::repair()`]: retained applications keep their
//! seats, only the delta is placed/evicted, and a budgeted local search
//! polishes from the incumbent — orders of magnitude cheaper than a
//! from-scratch portfolio run at within a few percent of its quality
//! (the `online` bench gates both). A full
//! [`Portfolio`](cellstream_heuristics::Portfolio) re-solve runs only as
//! an **asynchronous background improver** whose result is adopted iff
//! it beats the incumbent *including* migration cost, and which is
//! cancelled the moment a new event arrives (the flag of a
//! [`Stop`](cellstream_core::Stop) threaded through every member down
//! to the MILP's pivot loops).
//!
//! **Migration cost.** Every adopted replan reports a
//! [`MappingDelta`](cellstream_core::MappingDelta): which surviving
//! tasks moved, and how many bytes of task state + stream buffers their
//! moves push across the EIB ([`ServeReport::migration_bytes`]). The
//! background improver's adoption rule charges that one-off cost against
//! the per-round gain over [`MIGRATION_HORIZON`] rounds.
//!
//! ```
//! use cellstream_serve::{Event, Service};
//! use cellstream_graph::{StreamGraph, TaskSpec};
//! use cellstream_platform::CellSpec;
//!
//! fn app(name: &str) -> StreamGraph {
//!     let mut b = StreamGraph::builder(name);
//!     let s = b.add_task(TaskSpec::new("src").ppe_cost(2e-6).spe_cost(1e-6));
//!     let t = b.add_task(TaskSpec::new("enc").ppe_cost(4e-6).spe_cost(1e-6));
//!     b.add_edge(s, t, 2048.0).unwrap();
//!     b.build().unwrap()
//! }
//!
//! let mut svc = Service::new(CellSpec::ps3());
//! let report = svc.process(Event::Admit(app("mic"), 1.0)).unwrap();
//! let mic = report.admitted().expect("fits easily");
//! let report = svc.process(Event::Admit(app("cam"), 2.0)).unwrap();
//! assert!(report.admitted().is_some());
//! assert!(svc.period().is_finite());
//!
//! // rate change, then departure — the incumbent is repaired in place
//! svc.process(Event::Reweight(mic, 3.0)).unwrap();
//! let report = svc.process(Event::Retire(mic)).unwrap();
//! assert!(report.delta.dropped.iter().all(|t| t.starts_with("mic/")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod background;
mod metrics;
mod pipeline;
mod report;
mod service;

pub use metrics::ServeMetrics;
pub use pipeline::{PipelineOptions, PipelineStats, ServePipeline};
pub use report::{
    BatchReport, EventLabel, QueueBackoff, RecoveryReport, RejectReason, ServeError, ServeReport,
    Verdict,
};
pub use service::{Event, Service, ServiceOptions, MIGRATION_HORIZON};
