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
use cellstream_platform::{CellSpec, PeId};
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

/// A coordinator → agent request.
#[derive(Debug, Clone)]
pub enum ClusterMsg {
    /// Place this application on the receiving node.
    Admit {
        /// The application's graph (its name identifies it fleet-wide).
        graph: StreamGraph,
        /// Relative throughput target.
        weight: f64,
    },
    /// Retire the named application from the receiving node.
    Retire {
        /// Application (graph) name.
        app: String,
    },
    /// Change the named application's throughput weight.
    Reweight {
        /// Application (graph) name.
        app: String,
        /// New weight.
        weight: f64,
    },
    /// Apply a burst of churn in one exchange: the admit / retire /
    /// reweight [`TraceEvent`]s the coordinator routed here, as it holds
    /// them. The agent fuses as many consecutive ops as touch distinct
    /// application names into single `Service::process_batch` calls
    /// (one compose + one repair per run), and replies with
    /// [`AgentOutcome::Batch`] — one outcome per op, in request order.
    /// Faults travel as their own messages: a fault variant inside a
    /// batch is answered [`AgentOutcome::Rejected`] and changes nothing.
    /// Batch replies do not size working sets: coordinator bursts never
    /// migrate.
    Batch {
        /// The operations, applied in order.
        ops: Vec<TraceEvent>,
    },
    /// No-op: reply with a fresh capacity summary.
    Status,
    /// One of the receiving node's SPEs failed: evacuate its seats and
    /// recover. The agent replies [`AgentOutcome::Recovered`] with any
    /// applications the shrunken node had to shed (the coordinator owns
    /// their re-placement), or [`AgentOutcome::Applied`] when everyone
    /// still fits.
    PeFailed {
        /// The failed PE on the receiving node's platform.
        pe: PeId,
    },
    /// A previously failed PE on the receiving node returned to service:
    /// rebalance onto the restored capacity.
    PeRestored {
        /// The restored PE.
        pe: PeId,
    },
    /// The named application's declared compute costs were misestimated:
    /// rescale them by `factor` and re-validate. Like a PE failure this
    /// can force the node to shed applications.
    CostDrift {
        /// Application (graph) name.
        app: String,
        /// Multiplicative cost correction (validated by the agent).
        factor: f64,
    },
    /// The receiving node crashed (an in-process stand-in for process
    /// death): the agent wipes its serving state — resident applications
    /// and their buffer state are *lost*, not migrated. The coordinator
    /// re-homes them from its own cache.
    NodeFailed,
    /// The crashed node rejoins the fleet, empty and cold.
    NodeRestored,
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
// tagged objects ({"type": "admit", ...}), the same dialect as the
// sim's trace events; the unit-enum macro cannot express
// payload-carrying variants, so the impls are spelled out.
impl serde::Serialize for ClusterMsg {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let obj = |pairs: Vec<(&str, Value)>| {
            Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        match self {
            ClusterMsg::Admit { graph, weight } => obj(vec![
                ("type", Value::Str("admit".into())),
                ("graph", graph.to_value()),
                ("weight", Value::Num(*weight)),
            ]),
            ClusterMsg::Retire { app } => {
                obj(vec![("type", Value::Str("retire".into())), ("app", Value::Str(app.clone()))])
            }
            ClusterMsg::Reweight { app, weight } => obj(vec![
                ("type", Value::Str("reweight".into())),
                ("app", Value::Str(app.clone())),
                ("weight", Value::Num(*weight)),
            ]),
            ClusterMsg::Batch { ops } => {
                obj(vec![("type", Value::Str("batch".into())), ("ops", ops.to_value())])
            }
            ClusterMsg::Status => obj(vec![("type", Value::Str("status".into()))]),
            ClusterMsg::PeFailed { pe } => {
                obj(vec![("type", Value::Str("pe_failed".into())), ("pe", pe.to_value())])
            }
            ClusterMsg::PeRestored { pe } => {
                obj(vec![("type", Value::Str("pe_restored".into())), ("pe", pe.to_value())])
            }
            ClusterMsg::CostDrift { app, factor } => obj(vec![
                ("type", Value::Str("cost_drift".into())),
                ("app", Value::Str(app.clone())),
                ("factor", Value::Num(*factor)),
            ]),
            ClusterMsg::NodeFailed => obj(vec![("type", Value::Str("node_failed".into()))]),
            ClusterMsg::NodeRestored => obj(vec![("type", Value::Str("node_restored".into()))]),
        }
    }
}

impl serde::Deserialize for ClusterMsg {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.field("type")?.as_str()? {
            "admit" => Ok(ClusterMsg::Admit {
                graph: StreamGraph::from_value(v.field("graph")?)?,
                weight: v.field("weight")?.as_f64()?,
            }),
            "retire" => Ok(ClusterMsg::Retire { app: v.field("app")?.as_str()?.to_owned() }),
            "reweight" => Ok(ClusterMsg::Reweight {
                app: v.field("app")?.as_str()?.to_owned(),
                weight: v.field("weight")?.as_f64()?,
            }),
            "batch" => Ok(ClusterMsg::Batch { ops: Vec::from_value(v.field("ops")?)? }),
            "status" => Ok(ClusterMsg::Status),
            "pe_failed" => Ok(ClusterMsg::PeFailed { pe: PeId::from_value(v.field("pe")?)? }),
            "pe_restored" => Ok(ClusterMsg::PeRestored { pe: PeId::from_value(v.field("pe")?)? }),
            "cost_drift" => Ok(ClusterMsg::CostDrift {
                app: v.field("app")?.as_str()?.to_owned(),
                factor: v.field("factor")?.as_f64()?,
            }),
            "node_failed" => Ok(ClusterMsg::NodeFailed),
            "node_restored" => Ok(ClusterMsg::NodeRestored),
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
    fn cluster_msgs_round_trip_through_json() {
        match round_trip(&ClusterMsg::Admit { graph: tiny("a"), weight: 1.5 }) {
            ClusterMsg::Admit { graph, weight } => {
                assert_eq!(graph.name(), "a");
                assert_eq!(graph.n_tasks(), 2);
                assert_eq!(weight, 1.5);
            }
            other => panic!("expected admit, got {other:?}"),
        }
        match round_trip(&ClusterMsg::Retire { app: "x".into() }) {
            ClusterMsg::Retire { app } => assert_eq!(app, "x"),
            other => panic!("expected retire, got {other:?}"),
        }
        match round_trip(&ClusterMsg::Reweight { app: "x".into(), weight: 2.0 }) {
            ClusterMsg::Reweight { app, weight } => {
                assert_eq!(app, "x");
                assert_eq!(weight, 2.0);
            }
            other => panic!("expected reweight, got {other:?}"),
        }
        assert!(matches!(round_trip(&ClusterMsg::Status), ClusterMsg::Status));
    }

    #[test]
    fn fault_msgs_round_trip_through_json() {
        match round_trip(&ClusterMsg::PeFailed { pe: PeId(4) }) {
            ClusterMsg::PeFailed { pe } => assert_eq!(pe, PeId(4)),
            other => panic!("expected pe_failed, got {other:?}"),
        }
        match round_trip(&ClusterMsg::PeRestored { pe: PeId(4) }) {
            ClusterMsg::PeRestored { pe } => assert_eq!(pe, PeId(4)),
            other => panic!("expected pe_restored, got {other:?}"),
        }
        match round_trip(&ClusterMsg::CostDrift { app: "x".into(), factor: 1.75 }) {
            ClusterMsg::CostDrift { app, factor } => {
                assert_eq!(app, "x");
                assert_eq!(factor, 1.75);
            }
            other => panic!("expected cost_drift, got {other:?}"),
        }
        assert!(matches!(round_trip(&ClusterMsg::NodeFailed), ClusterMsg::NodeFailed));
        assert!(matches!(round_trip(&ClusterMsg::NodeRestored), ClusterMsg::NodeRestored));
        // a bogus tag is rejected, not misparsed
        assert!(serde_json::from_str::<ClusterMsg>(r#"{"type": "explode"}"#).is_err());
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
