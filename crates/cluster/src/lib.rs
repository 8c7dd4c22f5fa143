//! Two-level fleet scheduling: shard the serving loop across many Cell
//! nodes.
//!
//! One Cell holds at most a handful of streaming applications before
//! its SPEs saturate. This crate scales the single-node serving loop
//! (`cellstream-serve`) out to a fleet with a **coordinator / agent**
//! split:
//!
//! - each node runs a thin [`Agent`] wrapping its own local `Service` —
//!   the node keeps full authority over its admission control and
//!   repair replanning;
//! - one [`Cluster`] owns the agents and the cluster state: per-node
//!   capacity [`NodeSummary`]s (refreshed from the agent after every
//!   call to it), the application → node assignment, and the in-flight
//!   migrations. It routes Admit/Retire/Reweight, picks target nodes
//!   via a pluggable [`PlacePolicy`] (load/affinity scoring, plus
//!   round-robin and random baselines), and handles fleet-only
//!   operations: [`drain`](Cluster::drain) a node for maintenance and
//!   [`rebalance`](Cluster::rebalance) the load.
//!
//! The coordinator calls its agents directly and synchronously, so the
//! control plane is deterministic: the same operations in the same
//! order give the same placements. Cross-node migrations move the
//! application's buffer working set over a [`NetworkModel`] (a uniform
//! fabric: one bandwidth and one latency) instead of the on-chip EIB, and every move is
//! make-before-break: the target admits before the source retires, so
//! capacity invariants hold at each step.
//!
//! ```
//! use cellstream_cluster::{Cluster, ClusterOptions, NodeId};
//! use cellstream_daggen::{chain, CostParams};
//! use cellstream_platform::CellSpec;
//!
//! let mut fleet = Cluster::homogeneous(4, &CellSpec::qs22(), ClusterOptions::default());
//! for i in 0..8 {
//!     let g = chain(&format!("app{i}"), 3, &CostParams::default(), i);
//!     assert!(fleet.admit(&g, 1.0).applied());
//! }
//! let report = fleet.drain(NodeId(0)).unwrap();
//! for m in &report.migrations {
//!     assert_eq!(m.from, NodeId(0)); // evacuated, each move network-priced
//! }
//! ```

#![forbid(unsafe_code)]

pub mod agent;
pub mod coordinator;
pub mod metrics;
pub mod net;
pub mod placer;

pub use agent::{Agent, AgentOutcome, NodeId, NodeSummary};
pub use coordinator::{
    BurstReport, Cluster, ClusterError, ClusterOptions, ClusterReport, ClusterStatus,
    ClusterVerdict, Migration,
};
pub use metrics::ClusterMetrics;
pub use net::NetworkModel;
pub use placer::{policy_by_name, AppDemand, LoadAffinity, PlacePolicy, RandomPlace, RoundRobin};
