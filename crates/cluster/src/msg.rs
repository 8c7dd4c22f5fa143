//! The typed coordinator ↔ agent protocol.
//!
//! The coordinator only ever speaks [`ClusterMsg`] and only ever hears
//! [`AgentMsg`] — it never touches a node's `Service` directly. Both
//! types are plain data (owned strings and graphs, no references or
//! handles), so a socket transport could serialise them wholesale; the
//! in-process transport just moves them across a function call.
//!
//! Every reply piggybacks a fresh [`NodeSummary`], so the coordinator's
//! view of a node is exactly as stale as its last exchange with it —
//! there is no separate heartbeat path to race against.

use cellstream_graph::StreamGraph;
use cellstream_platform::CellSpec;
use cellstream_sim::online::TraceEvent;
use std::fmt;
use std::time::Duration;

/// Identifies one Cell node (one agent) in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index (agents are numbered `0..n_nodes`).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// A coordinator → agent request. Operations travel as the
/// [`TraceEvent`]s the coordinator holds — there is no second spelling
/// of them on the wire.
#[derive(Debug, Clone)]
pub enum ClusterMsg {
    /// Apply one operation to the receiving node, which is fleet index 0
    /// of its own serving loop (the coordinator rewrites the node index).
    /// A placement walk's admission and a migration's retire travel this
    /// way, and the reply sizes the named application's working set; so
    /// does every fault. A PE failure or a cost drift replies
    /// [`AgentOutcome::Recovered`] with any applications the node had to
    /// shed — the coordinator owns their re-placement — or
    /// [`AgentOutcome::Applied`] when everyone still fits.
    /// [`TraceEvent::NodeFailed`] is the in-process stand-in for process
    /// death: the agent wipes its serving state, resident applications
    /// and their buffer state are *lost*, not migrated, and the
    /// coordinator re-homes them from its own cache;
    /// [`TraceEvent::NodeRestored`] rejoins the fleet empty and cold.
    Op(TraceEvent),
    /// Apply a group of churn in one exchange: the admit / retire /
    /// reweight [`TraceEvent`]s the coordinator routed here, as it holds
    /// them. The agent fuses as many consecutive ops as touch distinct
    /// application names into single `Service::process_batch` calls
    /// (one compose + one repair per run), and replies with
    /// [`AgentOutcome::Batch`] — one outcome per op, in request order.
    /// Faults travel alone: a fault variant inside a batch is answered
    /// [`AgentOutcome::Rejected`] and changes nothing. Batch replies do
    /// not size working sets: group steps never migrate.
    Batch {
        /// The operations, applied in order.
        ops: Vec<TraceEvent>,
    },
    /// No-op: reply with a fresh capacity summary.
    Status,
}

/// What an agent did with a request.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentOutcome {
    /// The admission entered service on this node.
    Admitted,
    /// The node's admission control refused (reason text is the local
    /// `RejectReason` rendered — the coordinator treats it as opaque).
    Rejected(String),
    /// A retire/reweight took effect.
    Applied,
    /// The named application does not live on this node.
    UnknownApp,
    /// Reply to a [`ClusterMsg::Batch`]: one outcome per op, in request
    /// order.
    Batch(Vec<AgentOutcome>),
    /// Reply to a [`ClusterMsg::Status`] probe.
    Status,
    /// A fault was absorbed but the node had to shed applications to
    /// stay feasible: their drift-corrected source graphs and weights,
    /// in shed order. The coordinator owns their re-placement — a shed
    /// application no longer lives on the replying node.
    Recovered {
        /// `(source graph, weight)` of each shed application.
        shed: Vec<(StreamGraph, f64)>,
    },
}

/// An agent → coordinator reply.
#[derive(Debug, Clone)]
pub struct AgentMsg {
    /// The replying node.
    pub node: NodeId,
    /// What happened.
    pub outcome: AgentOutcome,
    /// Wall-clock replanning latency the request cost on this node.
    pub replan: Duration,
    /// EIB migration traffic of the node's local replan (bytes): tasks
    /// the repair planner shuffled *within* the node.
    pub local_migration_bytes: f64,
    /// Buffer working set (bytes) of the application the request
    /// concerned — for an admission, sized on the node's new composed
    /// graph; this is what a cross-node migration pushes over the
    /// network link instead of the EIB.
    pub working_set_bytes: f64,
    /// Fresh capacity summary after the request.
    pub summary: NodeSummary,
}

/// One node's capacity summary: everything the inter-node placer scores
/// on. Refreshed on every reply.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSummary {
    /// The summarised node.
    pub node: NodeId,
    /// SPE count of the node's platform.
    pub n_spe: usize,
    /// Applications resident on the node.
    pub n_apps: usize,
    /// Composed tasks resident on the node.
    pub n_tasks: usize,
    /// Composed round period of the node's incumbent (`+∞` when idle).
    pub period: f64,
    /// Mean SPE compute occupation per round (seconds).
    pub spe_load: f64,
    /// PPE compute occupation per round (seconds).
    pub ppe_load: f64,
    /// Stream-buffer bytes resident in SPE local stores, summed.
    pub store_used: f64,
    /// Total local-store budget across the node's SPEs (bytes).
    pub store_budget: f64,
    /// Smallest resident throughput weight (`+∞` when idle) — the
    /// binding application for a per-instance period guarantee.
    pub min_weight: f64,
    /// Resident `(application, weight)` pairs, in workload order.
    pub apps: Vec<(String, f64)>,
}

impl NodeSummary {
    /// The summary of a node serving nothing.
    pub fn idle(node: NodeId, spec: &CellSpec) -> NodeSummary {
        NodeSummary {
            node,
            n_spe: spec.n_spe(),
            n_apps: 0,
            n_tasks: 0,
            period: f64::INFINITY,
            spe_load: 0.0,
            ppe_load: 0.0,
            store_used: 0.0,
            store_budget: (spec.n_spe() as u64 * spec.local_store_budget()) as f64,
            min_weight: f64::INFINITY,
            apps: Vec::new(),
        }
    }

    /// Local-store headroom (bytes) across the node's SPEs.
    pub fn store_free(&self) -> f64 {
        (self.store_budget - self.store_used).max(0.0)
    }
}

// Requests are data: everything crossing `Transport::send` is owned
// values a socket transport could serialise wholesale. They render as
// tagged objects ({"type": "op", ...}) around the sim's trace-event
// dialect; the unit-enum macro cannot express payload-carrying
// variants, so the impls are spelled out.
impl serde::Serialize for ClusterMsg {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let tagged = |tag: &str, payload: Option<(&str, Value)>| {
            let pairs = [("type", Value::Str(tag.into()))].into_iter().chain(payload);
            Value::Obj(pairs.map(|(k, v)| (k.to_owned(), v)).collect())
        };
        match self {
            ClusterMsg::Op(op) => tagged("op", Some(("op", op.to_value()))),
            ClusterMsg::Batch { ops } => tagged("batch", Some(("ops", ops.to_value()))),
            ClusterMsg::Status => tagged("status", None),
        }
    }
}

impl serde::Deserialize for ClusterMsg {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.field("type")?.as_str()? {
            "op" => Ok(ClusterMsg::Op(TraceEvent::from_value(v.field("op")?)?)),
            "batch" => Ok(ClusterMsg::Batch { ops: Vec::from_value(v.field("ops")?)? }),
            "status" => Ok(ClusterMsg::Status),
            other => Err(serde::Error::new(format!("unknown ClusterMsg type `{other}`"))),
        }
    }
}

impl fmt::Display for NodeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.period.is_finite() {
            write!(
                f,
                "{}: {} apps / {} tasks, T={:.2} us, store {:.0}/{:.0} KiB",
                self.node,
                self.n_apps,
                self.n_tasks,
                self.period * 1e6,
                self.store_used / 1024.0,
                self.store_budget / 1024.0
            )
        } else {
            write!(f, "{}: idle", self.node)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_graph::TaskSpec;
    use cellstream_platform::PeId;

    fn tiny(name: &str) -> StreamGraph {
        let mut b = StreamGraph::builder(name);
        let s = b.add_task(TaskSpec::new("s").uniform_cost(1e-6));
        let t = b.add_task(TaskSpec::new("t").uniform_cost(1e-6));
        b.add_edge(s, t, 64.0).unwrap();
        b.build().unwrap()
    }

    fn round_trip(msg: &ClusterMsg) -> ClusterMsg {
        let json = serde_json::to_string(msg).unwrap();
        serde_json::from_str(&json).unwrap()
    }

    #[test]
    fn ops_round_trip_through_json() {
        match round_trip(&ClusterMsg::Op(TraceEvent::Admit { graph: tiny("a"), weight: 1.5 })) {
            ClusterMsg::Op(TraceEvent::Admit { graph, weight }) => {
                assert_eq!(graph.name(), "a");
                assert_eq!(graph.n_tasks(), 2);
                assert_eq!(weight, 1.5);
            }
            other => panic!("expected admit, got {other:?}"),
        }
        // every operation is a trace event, so one label comparison
        // covers the churn and the fault variants alike
        for op in [
            TraceEvent::Retire { app: "x".into() },
            TraceEvent::Reweight { app: "x".into(), weight: 2.0 },
            TraceEvent::PeFailed { node: 0, pe: PeId(4) },
            TraceEvent::PeRestored { node: 0, pe: PeId(4) },
            TraceEvent::CostDrift { app: "x".into(), factor: 1.75 },
            TraceEvent::NodeFailed { node: 0 },
            TraceEvent::NodeRestored { node: 0 },
        ] {
            match round_trip(&ClusterMsg::Op(op.clone())) {
                ClusterMsg::Op(back) => assert_eq!(back.label(), op.label()),
                other => panic!("expected {}, got {other:?}", op.label()),
            }
        }
        assert!(matches!(round_trip(&ClusterMsg::Status), ClusterMsg::Status));
        // a bogus tag is rejected, not misparsed
        assert!(serde_json::from_str::<ClusterMsg>(r#"{"type": "explode"}"#).is_err());
        assert!(
            serde_json::from_str::<ClusterMsg>(r#"{"type": "op", "op": {"type": "x"}}"#).is_err()
        );
    }

    #[test]
    fn batches_round_trip_through_json() {
        let msg = ClusterMsg::Batch {
            ops: vec![
                TraceEvent::Admit { graph: tiny("a"), weight: 1.0 },
                TraceEvent::Reweight { app: "a".into(), weight: 3.0 },
                TraceEvent::Retire { app: "a".into() },
            ],
        };
        match round_trip(&msg) {
            ClusterMsg::Batch { ops } => {
                assert_eq!(ops.len(), 3);
                assert!(matches!(&ops[0], TraceEvent::Admit { graph, .. } if graph.name() == "a"));
                assert!(matches!(&ops[1], TraceEvent::Reweight { weight, .. } if *weight == 3.0));
                assert!(matches!(&ops[2], TraceEvent::Retire { .. }));
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }
}
