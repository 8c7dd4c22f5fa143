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
//! - one [`Coordinator`] owns the cluster state: per-node capacity
//!   [`NodeSummary`]s (refreshed by every agent reply), the
//!   application → node assignment, and the in-flight migrations. It
//!   routes Admit/Retire/Reweight, picks target nodes via a pluggable
//!   [`PlacePolicy`] (first-fit, best-fit, load/affinity scoring, plus
//!   round-robin and random baselines), and handles fleet-only
//!   operations: [`drain`](Coordinator::drain) a node for maintenance
//!   and [`rebalance`](Coordinator::rebalance) the load.
//!
//! Coordinator and agents talk typed [`ClusterMsg`]/[`AgentMsg`]
//! request/reply pairs behind a [`Transport`] trait;
//! [`InProcessTransport`] is the deterministic, socket-free reference
//! implementation. Cross-node migrations move the application's buffer
//! working set over a [`NetworkModel`] (per-link bandwidth + latency)
//! instead of the on-chip EIB, and every move is make-before-break:
//! the target admits before the source retires, so capacity
//! invariants hold at each step.
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
pub mod msg;
pub mod net;
pub mod placer;
pub mod transport;

pub use agent::Agent;
pub use coordinator::{
    BurstReport, Cluster, ClusterError, ClusterOptions, ClusterReport, ClusterStatus,
    ClusterVerdict, Coordinator, Migration,
};
pub use metrics::{cluster_verdict_name, ClusterMetrics};
pub use msg::{AgentMsg, AgentOutcome, ClusterMsg, NodeId, NodeSummary};
pub use net::NetworkModel;
pub use placer::{
    policy_by_name, AppDemand, BestFit, FirstFit, LoadAffinity, PlacePolicy, RandomPlace,
    RoundRobin, PLACER_NAMES,
};
pub use transport::{InProcessTransport, Transport};
