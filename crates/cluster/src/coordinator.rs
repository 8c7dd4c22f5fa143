//! The coordinator: cluster state, event routing, drain and rebalance.
//!
//! One coordinator owns the fleet-wide picture — per-node capacity
//! summaries (refreshed by every agent reply), the application → node
//! assignment, and the cached source graphs it needs to move an
//! application later. Admissions walk the placement policy's preference
//! order until a node's own admission control accepts; retires and
//! reweights route by name. [`Coordinator::drain`] evacuates a node
//! make-before-break (admit on the target, then retire on the source),
//! and [`Coordinator::rebalance`] migrates applications off the hottest
//! node while the predicted period gain, amortised over the migration
//! horizon, outweighs the network transfer cost. Every cross-node move
//! is priced by the [`NetworkModel`] and reported as a [`Migration`].

use crate::metrics::ClusterMetrics;
use crate::msg::{AgentMsg, AgentOutcome, ClusterMsg, NodeId, NodeSummary};
use crate::net::NetworkModel;
use crate::placer::{AppDemand, LoadAffinity, PlacePolicy};
use crate::transport::{InProcessTransport, Transport};
use cellstream_core::Mapping;
use cellstream_graph::{StreamGraph, Workload};
use cellstream_heuristics::scheduler_names;
use cellstream_platform::{CellSpec, PeId};
use cellstream_serve::ServiceOptions;
use cellstream_sim::online::{EventOutcome, OnlineSystem, TraceEvent};
use cellstream_telemetry::Snapshot;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// One fleet-level operation.
#[derive(Debug, Clone)]
pub enum ClusterEvent {
    /// An application arrives, asking for the given throughput weight.
    Admit(StreamGraph, f64),
    /// The named application departs.
    Retire(String),
    /// The named application changes its throughput weight.
    Reweight(String, f64),
    /// Evacuate every application from a node and stop placing onto it.
    DrainNode(NodeId),
    /// Migrate applications off the hottest nodes while the period gain
    /// amortises the network cost.
    Rebalance,
    /// One SPE on a node failed; the node sheds what no longer fits and
    /// the coordinator re-homes the shed applications.
    PeFailed(NodeId, PeId),
    /// A failed SPE came back; stranded applications get a retry.
    PeRestored(NodeId, PeId),
    /// The named application's measured compute drifted by this factor.
    CostDrift(String, f64),
    /// A whole node died: its resident applications are lost on the
    /// node and re-homed from the coordinator's cache.
    NodeFailed(NodeId),
    /// A dead node came back empty; stranded applications get a retry
    /// and rebalance sees it as the coldest target.
    NodeRestored(NodeId),
}

impl ClusterEvent {
    /// Compact human label.
    pub fn label(&self) -> String {
        match self {
            ClusterEvent::Admit(g, w) => format!("admit {} w={w}", g.name()),
            ClusterEvent::Retire(app) => format!("retire {app}"),
            ClusterEvent::Reweight(app, w) => format!("reweight {app} w={w}"),
            ClusterEvent::DrainNode(n) => format!("drain {n}"),
            ClusterEvent::Rebalance => "rebalance".to_owned(),
            ClusterEvent::PeFailed(n, pe) => format!("fail {n} {pe}"),
            ClusterEvent::PeRestored(n, pe) => format!("restore {n} {pe}"),
            ClusterEvent::CostDrift(app, f) => format!("drift {app} x{f}"),
            ClusterEvent::NodeFailed(n) => format!("node-fail {n}"),
            ClusterEvent::NodeRestored(n) => format!("node-restore {n}"),
        }
    }
}

/// Malformed fleet operations (a refused admission is a
/// [`ClusterVerdict`], not an error).
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// No application with this name is placed anywhere.
    UnknownApp(String),
    /// The node id is outside the fleet.
    UnknownNode(NodeId),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownApp(app) => write!(f, "no application named '{app}' in the fleet"),
            ClusterError::UnknownNode(n) => write!(f, "no node {n} in the fleet"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// What happened to one fleet-level operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterVerdict {
    /// The admission entered service on this node.
    Admitted(NodeId),
    /// Every candidate node refused (last refusal quoted).
    Rejected(String),
    /// A retire/reweight took effect.
    Applied,
    /// A drain finished: `moved` applications evacuated, `stranded`
    /// had no willing target and stayed put.
    Drained {
        /// Applications migrated off the node.
        moved: usize,
        /// Applications left behind (no node would admit them).
        stranded: usize,
    },
    /// A rebalance finished after `moved` migrations.
    Rebalanced {
        /// Applications migrated between nodes.
        moved: usize,
    },
    /// An impairment shed applications from a node; the coordinator
    /// re-homed what it could and stranded the rest (stranded
    /// applications stay in the retry ledger — they are never dropped).
    Recovered {
        /// Shed applications re-admitted on another node.
        rehomed: usize,
        /// Shed applications no node would take, parked in the ledger.
        stranded: usize,
    },
    /// A whole node died; its residents were re-homed from the
    /// coordinator's cache or stranded in the retry ledger.
    NodeLost {
        /// Lost residents re-admitted elsewhere.
        rehomed: usize,
        /// Lost residents parked in the ledger.
        stranded: usize,
    },
    /// A dead node returned (empty); `readmitted` counts stranded
    /// applications the retry pass placed back into service.
    NodeReturned {
        /// Stranded applications re-admitted by the retry pass.
        readmitted: usize,
    },
}

impl ClusterVerdict {
    /// The hosting node, when the operation was an accepted admission.
    pub fn admitted(&self) -> Option<NodeId> {
        match self {
            ClusterVerdict::Admitted(node) => Some(*node),
            _ => None,
        }
    }
}

/// One cross-node application move, priced by the network model.
#[derive(Debug, Clone, PartialEq)]
pub struct Migration {
    /// The migrated application.
    pub app: String,
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Buffer working set that crosses the network (bytes, sized on the
    /// target's new composed graph).
    pub bytes: f64,
    /// Seconds the transfer occupies the `from → to` link
    /// ([`NetworkModel::transfer_time`]).
    pub seconds: f64,
}

/// Per-operation report: what the coordinator did and what it cost.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Human label of the processed operation.
    pub event: String,
    /// The outcome.
    pub verdict: ClusterVerdict,
    /// Final (possibly uniquified) application name, for admissions.
    pub app: Option<String>,
    /// Wall-clock latency of the whole operation, every agent exchange
    /// included.
    pub latency: Duration,
    /// Cross-node moves this operation performed, each priced by the
    /// network model.
    pub migrations: Vec<Migration>,
    /// EIB traffic of the intra-node replans the operation triggered
    /// (bytes, summed across nodes).
    pub local_migration_bytes: f64,
    /// Worst composed round period across the fleet after the operation
    /// (`+∞` while nothing is served anywhere).
    pub max_period: f64,
}

impl ClusterReport {
    /// `true` when the operation changed what some node serves.
    pub fn applied(&self) -> bool {
        match &self.verdict {
            ClusterVerdict::Admitted(_) | ClusterVerdict::Applied => true,
            ClusterVerdict::Rejected(_) => false,
            ClusterVerdict::Drained { moved, .. } | ClusterVerdict::Rebalanced { moved } => {
                *moved > 0
            }
            // impairments always change fleet state (health masks,
            // routing, the ledger), even when nothing could be re-homed
            ClusterVerdict::Recovered { .. }
            | ClusterVerdict::NodeLost { .. }
            | ClusterVerdict::NodeReturned { .. } => true,
        }
    }

    /// Total bytes this operation pushed across the network.
    pub fn network_bytes(&self) -> f64 {
        self.migrations.iter().map(|m| m.bytes).sum()
    }

    /// Total seconds of priced network transfer time.
    pub fn network_seconds(&self) -> f64 {
        self.migrations.iter().map(|m| m.seconds).sum()
    }
}

/// What one fleet-level burst did: per-event verdicts in request order
/// plus the aggregate cost of the node batches that carried it — see
/// [`Coordinator::process_burst`].
#[derive(Debug, Clone)]
pub struct BurstReport {
    /// Per-event `(label, verdict)` pairs, in request order.
    pub events: Vec<(String, ClusterVerdict)>,
    /// Wall-clock latency of the whole burst, every agent exchange
    /// included.
    pub latency: Duration,
    /// Node-level batch messages the burst was carried by.
    pub batches: usize,
    /// EIB traffic of the intra-node replans the burst triggered
    /// (bytes, summed across nodes).
    pub local_migration_bytes: f64,
    /// Worst composed round period across the fleet after the burst.
    pub max_period: f64,
}

impl BurstReport {
    /// Events that changed what some node serves.
    pub fn applied(&self) -> usize {
        self.events
            .iter()
            .filter(|(_, v)| matches!(v, ClusterVerdict::Admitted(_) | ClusterVerdict::Applied))
            .count()
    }
}

/// A point-in-time view of the fleet, for operators and tests.
#[derive(Debug, Clone)]
pub struct ClusterStatus {
    /// Every node's last-known capacity summary.
    pub nodes: Vec<NodeSummary>,
    /// Nodes currently draining (excluded from placement).
    pub draining: Vec<NodeId>,
    /// Nodes currently dead (excluded from placement and routing).
    pub dead: Vec<NodeId>,
    /// Applications shed by impairments that no node would re-admit
    /// yet — parked in the retry ledger, never silently dropped.
    pub stranded: Vec<String>,
    /// Applications placed fleet-wide.
    pub n_apps: usize,
    /// The per-node scheduler registry, sorted
    /// ([`cellstream_heuristics::scheduler_names`]) — reproducible
    /// order, suitable for diffing two status reports.
    pub schedulers: Vec<&'static str>,
}

/// Tunables of one [`Coordinator`].
pub struct ClusterOptions {
    /// Inter-node placement policy (default: [`LoadAffinity`]).
    pub policy: Box<dyn PlacePolicy>,
    /// Network cost model for cross-node migrations.
    pub network: NetworkModel,
    /// Per-node serving options (the coordinator forces
    /// `queue_rejected` off — it owns retry policy fleet-wide).
    pub service: ServiceOptions,
    /// Amortisation horizon (composed rounds) for rebalance moves:
    /// migrate iff `period_gain × horizon > network_transfer_time`.
    pub migration_horizon: f64,
}

impl Default for ClusterOptions {
    fn default() -> ClusterOptions {
        ClusterOptions {
            policy: Box::new(LoadAffinity::default()),
            network: NetworkModel::default(),
            service: ServiceOptions::default(),
            migration_horizon: 1e6,
        }
    }
}

/// An application's fleet-level record: enough to route events to it
/// and to re-admit it elsewhere during a drain or rebalance.
#[derive(Clone)]
struct Placed {
    graph: StreamGraph,
    weight: f64,
    node: NodeId,
}

/// A shed application no node would re-admit yet. Entries live in the
/// coordinator's ledger until a retry pass places them — they are
/// never silently dropped, and `status()` surfaces them.
#[derive(Clone)]
struct Stranded {
    graph: StreamGraph,
    weight: f64,
    /// The node that shed it (retries prefer anywhere else first only
    /// through policy ranking — the ledger keeps it for forensics).
    from: NodeId,
    /// Failed retry passes so far.
    attempts: u32,
    /// Retry passes to skip before the next attempt (bounded
    /// exponential backoff: `1 << attempts`, capped).
    cooldown: u32,
}

/// The fleet's control plane. Generic in the [`Transport`] so tests can
/// interpose; [`Cluster`] is the ready-to-use in-process alias.
pub struct Coordinator<T: Transport> {
    transport: T,
    policy: Box<dyn PlacePolicy>,
    network: NetworkModel,
    migration_horizon: f64,
    summaries: Vec<NodeSummary>,
    draining: Vec<bool>,
    /// Nodes that died ([`ClusterEvent::NodeFailed`]) and have not been
    /// restored — excluded from placement, routing, and rebalance.
    dead: Vec<bool>,
    // BTreeMap: drains and rebalances iterate this — keep the order
    // deterministic
    apps: BTreeMap<String, Placed>,
    /// Shed applications awaiting a willing node (BTreeMap: retry
    /// passes iterate this — keep the order deterministic).
    stranded: BTreeMap<String, Stranded>,
    next_unique: u64,
    /// The fleet metric cells and flight recorder; every
    /// [`ClusterReport`] is recorded once, by [`Coordinator::report`].
    metrics: ClusterMetrics,
}

impl<T: Transport> Coordinator<T> {
    /// Wire a coordinator to its fleet and probe every node's initial
    /// capacity summary.
    pub fn new(mut transport: T, opts: ClusterOptions) -> Coordinator<T> {
        let n = transport.n_nodes();
        assert!(n > 0, "a cluster needs at least one node");
        let summaries =
            (0..n).map(|i| transport.send(NodeId(i), ClusterMsg::Status).summary).collect();
        Coordinator {
            transport,
            policy: opts.policy,
            network: opts.network,
            migration_horizon: opts.migration_horizon,
            summaries,
            draining: vec![false; n],
            dead: vec![false; n],
            apps: BTreeMap::new(),
            stranded: BTreeMap::new(),
            next_unique: 1,
            metrics: ClusterMetrics::new(n),
        }
    }

    /// `true` when the node may host placements: neither draining nor
    /// dead. Every candidate filter goes through this.
    fn schedulable(&self, node: NodeId) -> bool {
        !self.draining[node.index()] && !self.dead[node.index()]
    }

    /// Number of nodes in the fleet.
    pub fn n_nodes(&self) -> usize {
        self.summaries.len()
    }

    /// Applications placed fleet-wide.
    pub fn n_apps(&self) -> usize {
        self.apps.len()
    }

    /// The node hosting the named application.
    pub fn node_of(&self, app: &str) -> Option<NodeId> {
        self.apps.get(app).map(|p| p.node)
    }

    /// Worst composed round period across the fleet (`+∞` while idle,
    /// matching the serving loop's own idle period).
    pub fn max_period(&self) -> f64 {
        let worst = self
            .summaries
            .iter()
            .map(|s| s.period)
            .filter(|p| p.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        if worst == f64::NEG_INFINITY {
            f64::INFINITY
        } else {
            worst
        }
    }

    /// A point-in-time view of the fleet.
    pub fn status(&self) -> ClusterStatus {
        ClusterStatus {
            nodes: self.summaries.clone(),
            draining: (0..self.draining.len()).filter(|&i| self.draining[i]).map(NodeId).collect(),
            dead: (0..self.dead.len()).filter(|&i| self.dead[i]).map(NodeId).collect(),
            stranded: self.stranded.keys().cloned().collect(),
            n_apps: self.apps.len(),
            schedulers: scheduler_names().to_vec(),
        }
    }

    /// Route one fleet-level operation.
    pub fn process(&mut self, ev: ClusterEvent) -> Result<ClusterReport, ClusterError> {
        let res = match ev {
            ClusterEvent::Admit(g, w) => Ok(self.admit(&g, w)),
            ClusterEvent::Retire(app) => self.retire(&app),
            ClusterEvent::Reweight(app, w) => self.reweight(&app, w),
            ClusterEvent::DrainNode(n) => self.drain(n),
            ClusterEvent::Rebalance => Ok(self.rebalance()),
            ClusterEvent::PeFailed(n, pe) => self.pe_failed(n, pe),
            ClusterEvent::PeRestored(n, pe) => self.pe_restored(n, pe),
            ClusterEvent::CostDrift(app, f) => self.cost_drift(&app, f),
            ClusterEvent::NodeFailed(n) => self.node_failed(n),
            ClusterEvent::NodeRestored(n) => self.node_restored(n),
        };
        #[cfg(feature = "debug_invariants")]
        self.check_invariants("process");
        res
    }

    /// Deep audit (`debug_invariants` feature): the control plane's
    /// view must agree with what the nodes last reported — the routing
    /// table places every application on an in-range node, per-node
    /// placement counts and app lists (names *and* weights) match the
    /// node summaries absorbed from the latest replies, and the
    /// bookkeeping vectors stay parallel. Panics with `ctx` on any
    /// breach. Call it only between operations: mid-operation the
    /// summaries are intentionally ahead of the routing table.
    #[cfg(feature = "debug_invariants")]
    pub fn check_invariants(&self, ctx: &str) {
        assert_eq!(
            self.summaries.len(),
            self.draining.len(),
            "{ctx}: summaries and draining flags out of step"
        );
        assert_eq!(
            self.summaries.len(),
            self.dead.len(),
            "{ctx}: summaries and dead flags out of step"
        );
        for (i, s) in self.summaries.iter().enumerate() {
            assert_eq!(s.node.index(), i, "{ctx}: summary {i} reports node {}", s.node);
        }
        for (name, p) in &self.apps {
            assert!(
                p.node.index() < self.summaries.len(),
                "{ctx}: {name} routed to out-of-range node {}",
                p.node
            );
            assert!(!self.dead[p.node.index()], "{ctx}: {name} routed to dead node {}", p.node);
        }
        for name in self.stranded.keys() {
            assert!(!self.apps.contains_key(name), "{ctx}: {name} both placed and stranded");
        }
        for (i, s) in self.summaries.iter().enumerate() {
            let here: Vec<(&String, &Placed)> =
                self.apps.iter().filter(|(_, p)| p.node.index() == i).collect();
            assert_eq!(
                here.len(),
                s.n_apps,
                "{ctx}: node {i} summary counts {} app(s), routing table has {}",
                s.n_apps,
                here.len()
            );
            for (name, p) in here {
                let Some((_, w)) = s.apps.iter().find(|(n, _)| n == name) else {
                    // check:allow(hot-path-panic): debug_invariants-only audit
                    panic!("{ctx}: {name} routed to node {i} but absent from its summary");
                };
                assert!(
                    (w - p.weight).abs() <= 1e-12 * p.weight.abs().max(1.0),
                    "{ctx}: {name} weight {} on node {i}, coordinator expects {}",
                    w,
                    p.weight
                );
            }
        }
    }

    /// Route a burst of fleet-level operations through per-node
    /// [`ClusterMsg::Batch`] messages: one agent exchange (and on the
    /// agent, one composed replan per run of independent ops) instead
    /// of one exchange per event.
    ///
    /// The burst is split into groups that touch each application name
    /// at most once — a repeated name cuts the group, so in-order
    /// semantics hold across the cut — and each group's ops are
    /// bucketed by target node: retires and reweights route to the
    /// app's home node, admissions to the placement policy's
    /// top-ranked node against the summaries as of the group start. An
    /// admission the pre-ranked node refuses falls back to the
    /// sequential preference walk ([`admit`](Self::admit)) with the
    /// refusal's fresh summaries. Unknown applications get a
    /// [`ClusterVerdict::Rejected`] verdict — the trace is data, not a
    /// contract.
    pub fn process_burst(&mut self, events: &[TraceEvent]) -> BurstReport {
        let started = Instant::now();
        let mut labels: Vec<String> = events.iter().map(TraceEvent::label).collect();
        let mut verdicts: Vec<Option<ClusterVerdict>> = vec![None; events.len()];
        let mut local_bytes = 0.0;
        let mut batches = 0;
        let mut i = 0;
        while i < events.len() {
            let mut touched: Vec<String> = Vec::new();
            let mut per_node: BTreeMap<NodeId, Vec<(usize, TraceEvent)>> = BTreeMap::new();
            while i < events.len() {
                // impairments are burst barriers: flush the batched
                // churn first, then run the fault sequentially below
                if events[i].is_fault() {
                    break;
                }
                let raw_name = match &events[i] {
                    TraceEvent::Admit { graph, .. } => graph.name(),
                    TraceEvent::Retire { app } | TraceEvent::Reweight { app, .. } => app.as_str(),
                    // check:allow(hot-path-panic): is_fault() gated above
                    _ => unreachable!("fault events never reach the churn path"),
                };
                if touched.iter().any(|t| t == raw_name) {
                    break;
                }
                match &events[i] {
                    TraceEvent::Admit { graph, weight } => {
                        // fleet-unique name, exactly as single admissions
                        let g = if self.apps.contains_key(graph.name()) {
                            let unique = format!("{}#{}", graph.name(), self.next_unique);
                            self.next_unique += 1;
                            graph.renamed(unique)
                        } else {
                            graph.clone()
                        };
                        labels[i] = format!("admit {} w={weight}", g.name());
                        touched.push(g.name().to_owned());
                        let demand = AppDemand::of(&g, *weight);
                        let candidates: Vec<NodeSummary> = self
                            .summaries
                            .iter()
                            .filter(|s| self.schedulable(s.node))
                            .cloned()
                            .collect();
                        match self.policy.rank(&candidates, &demand).first() {
                            Some(&node) => per_node
                                .entry(node)
                                .or_default()
                                .push((i, TraceEvent::Admit { graph: g, weight: *weight })),
                            None => {
                                verdicts[i] =
                                    Some(ClusterVerdict::Rejected("no schedulable node".to_owned()))
                            }
                        }
                    }
                    TraceEvent::Retire { app } => {
                        touched.push(app.clone());
                        match self.node_of(app) {
                            Some(node) => {
                                per_node.entry(node).or_default().push((i, events[i].clone()))
                            }
                            // a stranded app retires out of the ledger
                            None => {
                                verdicts[i] = Some(if self.stranded.remove(app).is_some() {
                                    ClusterVerdict::Applied
                                } else {
                                    unknown_app(app)
                                })
                            }
                        }
                    }
                    TraceEvent::Reweight { app, weight } => {
                        touched.push(app.clone());
                        match self.node_of(app) {
                            Some(node) => {
                                per_node.entry(node).or_default().push((i, events[i].clone()))
                            }
                            // a stranded app carries the new weight
                            // into its next retry
                            None => {
                                verdicts[i] = Some(match self.stranded.get_mut(app) {
                                    Some(e) => {
                                        e.weight = *weight;
                                        ClusterVerdict::Applied
                                    }
                                    None => unknown_app(app),
                                })
                            }
                        }
                    }
                    // check:allow(hot-path-panic): is_fault() gated at
                    // the top of the loop
                    _ => unreachable!("fault events never reach the churn path"),
                }
                i += 1;
            }
            // dispatch one batch per node, in node order (deterministic)
            for (node, ops) in per_node {
                batches += 1;
                let msg_ops: Vec<TraceEvent> = ops.iter().map(|(_, op)| op.clone()).collect();
                let reply = self.transport.send(node, ClusterMsg::Batch { ops: msg_ops });
                self.absorb(&reply);
                local_bytes += reply.local_migration_bytes;
                let AgentOutcome::Batch(outs) = &reply.outcome else {
                    for (idx, _) in &ops {
                        verdicts[*idx] = Some(ClusterVerdict::Rejected(format!(
                            "{node}: unexpected reply {:?}",
                            reply.outcome
                        )));
                    }
                    continue;
                };
                for ((idx, op), out) in ops.iter().zip(outs.iter()) {
                    let v = match (op, out) {
                        (TraceEvent::Admit { graph, weight }, AgentOutcome::Admitted) => {
                            self.apps.insert(
                                graph.name().to_owned(),
                                Placed { graph: graph.clone(), weight: *weight, node },
                            );
                            ClusterVerdict::Admitted(node)
                        }
                        // the pre-ranked node refused: fall back to the
                        // sequential preference walk with the refusal's
                        // fresh summaries
                        (TraceEvent::Admit { graph, weight }, AgentOutcome::Rejected(_)) => {
                            let r = self.admit(graph, *weight);
                            local_bytes += r.local_migration_bytes;
                            r.verdict
                        }
                        (TraceEvent::Retire { app }, AgentOutcome::Applied) => {
                            self.apps.remove(app);
                            ClusterVerdict::Applied
                        }
                        (TraceEvent::Reweight { app, weight }, AgentOutcome::Applied) => {
                            // check:allow(hot-path-panic): routed via node_of
                            self.apps.get_mut(app).expect("routed via node_of").weight = *weight;
                            ClusterVerdict::Applied
                        }
                        (_, AgentOutcome::Rejected(r)) => {
                            ClusterVerdict::Rejected(format!("{node}: {r}"))
                        }
                        // assignment said the app lives there but the
                        // agent disagrees — surface the drift
                        (_, AgentOutcome::UnknownApp) => ClusterVerdict::Rejected(format!(
                            "{node}: assignment drift — node does not host this application"
                        )),
                        (_, other) => {
                            ClusterVerdict::Rejected(format!("{node}: unexpected reply {other:?}"))
                        }
                    };
                    verdicts[*idx] = Some(v);
                }
            }
            // a fault at the cut point runs sequentially, in trace
            // order, against the summaries the batches left behind —
            // it can shed arbitrary applications, so it never fuses
            // with the churn around it
            if i < events.len() && events[i].is_fault() {
                let res = match &events[i] {
                    TraceEvent::PeFailed { node, pe } => self.pe_failed(NodeId(*node), *pe),
                    TraceEvent::PeRestored { node, pe } => self.pe_restored(NodeId(*node), *pe),
                    TraceEvent::CostDrift { app, factor } => self.cost_drift(app, *factor),
                    TraceEvent::NodeFailed { node } => self.node_failed(NodeId(*node)),
                    TraceEvent::NodeRestored { node } => self.node_restored(NodeId(*node)),
                    // check:allow(hot-path-panic): is_fault() gated above
                    _ => unreachable!("only fault events reach the barrier"),
                };
                verdicts[i] = Some(match res {
                    Ok(r) => {
                        local_bytes += r.local_migration_bytes;
                        r.verdict
                    }
                    Err(e) => ClusterVerdict::Rejected(e.to_string()),
                });
                i += 1;
            }
        }
        let events = labels
            .into_iter()
            // check:allow(hot-path-panic): the dispatch loop above fills every slot
            .zip(verdicts.into_iter().map(|v| v.expect("every event got a verdict")))
            .collect();
        #[cfg(feature = "debug_invariants")]
        self.check_invariants("process_burst");
        BurstReport {
            events,
            latency: started.elapsed(),
            batches,
            local_migration_bytes: local_bytes,
            max_period: self.max_period(),
        }
    }

    /// Admit an application somewhere in the fleet: rank the
    /// non-draining nodes, try each in order until one's admission
    /// control accepts. Duplicate names are uniquified (`"name#k"`) —
    /// routing is by name, so names must be fleet-unique.
    pub fn admit(&mut self, g: &StreamGraph, weight: f64) -> ClusterReport {
        let started = Instant::now();
        let g = if self.apps.contains_key(g.name()) {
            let unique = format!("{}#{}", g.name(), self.next_unique);
            self.next_unique += 1;
            g.renamed(unique)
        } else {
            g.clone()
        };
        let name = g.name().to_owned();
        let label = format!("admit {name} w={weight}");

        let demand = AppDemand::of(&g, weight);
        let candidates: Vec<NodeSummary> =
            self.summaries.iter().filter(|s| self.schedulable(s.node)).cloned().collect();
        let order = self.policy.rank(&candidates, &demand);
        let mut local_bytes = 0.0;
        let mut last_refusal = "no schedulable node".to_owned();
        for node in order {
            let reply = self.transport.send(node, ClusterMsg::Admit { graph: g.clone(), weight });
            self.absorb(&reply);
            local_bytes += reply.local_migration_bytes;
            match reply.outcome {
                AgentOutcome::Admitted => {
                    #[cfg(feature = "debug_invariants")]
                    assert!(!self.draining[node.index()], "admission landed on draining {node}");
                    self.apps.insert(name.clone(), Placed { graph: g, weight, node });
                    return self.report(
                        label,
                        ClusterVerdict::Admitted(node),
                        Some(name),
                        started,
                        Vec::new(),
                        local_bytes,
                    );
                }
                AgentOutcome::Rejected(reason) => last_refusal = format!("{node}: {reason}"),
                other => last_refusal = format!("{node}: unexpected reply {other:?}"),
            }
        }
        self.report(
            label,
            ClusterVerdict::Rejected(last_refusal),
            Some(name),
            started,
            Vec::new(),
            local_bytes,
        )
    }

    /// Retire an application wherever it lives — a stranded one
    /// retires straight out of the ledger.
    pub fn retire(&mut self, app: &str) -> Result<ClusterReport, ClusterError> {
        let started = Instant::now();
        let Some(node) = self.node_of(app) else {
            if self.stranded.remove(app).is_some() {
                let label = format!("retire {app}");
                return Ok(self.report(
                    label,
                    ClusterVerdict::Applied,
                    None,
                    started,
                    Vec::new(),
                    0.0,
                ));
            }
            return Err(ClusterError::UnknownApp(app.to_owned()));
        };
        let reply = self.transport.send(node, ClusterMsg::Retire { app: app.to_owned() });
        self.absorb(&reply);
        if reply.outcome != AgentOutcome::Applied {
            // assignment said the app lives there but the agent disagrees
            // — surface the drift instead of pretending it was retired
            return Err(ClusterError::UnknownApp(app.to_owned()));
        }
        self.apps.remove(app);
        Ok(self.report(
            format!("retire {app}"),
            ClusterVerdict::Applied,
            None,
            started,
            Vec::new(),
            reply.local_migration_bytes,
        ))
    }

    /// Change an application's throughput weight wherever it lives — a
    /// stranded one carries the new weight into its next retry.
    pub fn reweight(&mut self, app: &str, weight: f64) -> Result<ClusterReport, ClusterError> {
        let started = Instant::now();
        let Some(node) = self.node_of(app) else {
            if let Some(e) = self.stranded.get_mut(app) {
                e.weight = weight;
                let label = format!("reweight {app} w={weight}");
                return Ok(self.report(
                    label,
                    ClusterVerdict::Applied,
                    None,
                    started,
                    Vec::new(),
                    0.0,
                ));
            }
            return Err(ClusterError::UnknownApp(app.to_owned()));
        };
        let reply = self.transport.send(node, ClusterMsg::Reweight { app: app.to_owned(), weight });
        self.absorb(&reply);
        let verdict = match reply.outcome {
            AgentOutcome::Applied => {
                // check:allow(hot-path-panic): routed via node_of
                self.apps.get_mut(app).expect("routed via node_of").weight = weight;
                ClusterVerdict::Applied
            }
            AgentOutcome::Rejected(reason) => ClusterVerdict::Rejected(reason),
            _ => return Err(ClusterError::UnknownApp(app.to_owned())),
        };
        Ok(self.report(
            format!("reweight {app} w={weight}"),
            verdict,
            None,
            started,
            Vec::new(),
            reply.local_migration_bytes,
        ))
    }

    /// Evacuate every application from `node` and exclude it from
    /// placement until [`undrain`](Self::undrain). Each application is
    /// moved make-before-break: admitted on the best willing target
    /// first, then retired from the source, so fleet capacity
    /// invariants hold at every step. Applications no other node will
    /// take stay put and are counted as stranded.
    pub fn drain(&mut self, node: NodeId) -> Result<ClusterReport, ClusterError> {
        let started = Instant::now();
        if node.index() >= self.summaries.len() {
            return Err(ClusterError::UnknownNode(node));
        }
        self.draining[node.index()] = true;
        let resident: Vec<String> = self
            .apps
            .iter()
            .filter(|(_, p)| p.node == node)
            .map(|(name, _)| name.clone())
            .collect();
        let mut migrations = Vec::new();
        let mut local_bytes = 0.0;
        let mut stranded = 0;
        for app in resident {
            match self.migrate(&app, None, &mut local_bytes) {
                Some(m) => migrations.push(m),
                None => stranded += 1,
            }
        }
        let moved = migrations.len();
        Ok(self.report(
            format!("drain {node}"),
            ClusterVerdict::Drained { moved, stranded },
            None,
            started,
            migrations,
            local_bytes,
        ))
    }

    /// Put a drained node back into placement rotation.
    pub fn undrain(&mut self, node: NodeId) -> Result<(), ClusterError> {
        if node.index() >= self.draining.len() {
            return Err(ClusterError::UnknownNode(node));
        }
        self.draining[node.index()] = false;
        Ok(())
    }

    /// One SPE on a node failed. The node replans around the dead PE
    /// and sheds what no longer fits; the coordinator re-homes the
    /// shed applications (drift-corrected source graphs travel with
    /// them) or strands them in the retry ledger. A PE fault on an
    /// already-dead node is a no-op — the whole node is gone, and only
    /// [`node_restored`](Self::node_restored) brings it back.
    pub fn pe_failed(&mut self, node: NodeId, pe: PeId) -> Result<ClusterReport, ClusterError> {
        let started = Instant::now();
        self.check_node(node)?;
        let label = format!("fail {node} {pe}");
        if self.dead[node.index()] {
            let v = ClusterVerdict::Recovered { rehomed: 0, stranded: 0 };
            return Ok(self.report(label, v, None, started, Vec::new(), 0.0));
        }
        let reply = self.transport.send(node, ClusterMsg::PeFailed { pe });
        self.absorb(&reply);
        let mut local_bytes = reply.local_migration_bytes;
        let verdict_and_moves = match reply.outcome {
            AgentOutcome::Applied => {
                (ClusterVerdict::Recovered { rehomed: 0, stranded: 0 }, Vec::new())
            }
            AgentOutcome::Recovered { shed } => {
                let (migrations, stranded) = self.rehome(shed, node, &mut local_bytes);
                (ClusterVerdict::Recovered { rehomed: migrations.len(), stranded }, migrations)
            }
            AgentOutcome::Rejected(r) => {
                (ClusterVerdict::Rejected(format!("{node}: {r}")), Vec::new())
            }
            other => (
                ClusterVerdict::Rejected(format!("{node}: unexpected reply {other:?}")),
                Vec::new(),
            ),
        };
        let (verdict, migrations) = verdict_and_moves;
        Ok(self.report(label, verdict, None, started, migrations, local_bytes))
    }

    /// A failed SPE came back. The node replans onto the recovered
    /// silicon, then a retry pass offers stranded applications to the
    /// fleet again. Restoring a PE on a dead node is refused — the
    /// node itself is down.
    pub fn pe_restored(&mut self, node: NodeId, pe: PeId) -> Result<ClusterReport, ClusterError> {
        let started = Instant::now();
        self.check_node(node)?;
        let label = format!("restore {node} {pe}");
        if self.dead[node.index()] {
            let v =
                ClusterVerdict::Rejected(format!("{node} is down — restore the node, not its PEs"));
            return Ok(self.report(label, v, None, started, Vec::new(), 0.0));
        }
        let reply = self.transport.send(node, ClusterMsg::PeRestored { pe });
        self.absorb(&reply);
        let mut local_bytes = reply.local_migration_bytes;
        match reply.outcome {
            // capacity only grows on a restore: agents never shed here
            AgentOutcome::Applied | AgentOutcome::Recovered { .. } => {}
            AgentOutcome::Rejected(r) => {
                let v = ClusterVerdict::Rejected(format!("{node}: {r}"));
                return Ok(self.report(label, v, None, started, Vec::new(), local_bytes));
            }
            other => {
                let v = ClusterVerdict::Rejected(format!("{node}: unexpected reply {other:?}"));
                return Ok(self.report(label, v, None, started, Vec::new(), local_bytes));
            }
        }
        let migrations = self.retry_stranded(&mut local_bytes);
        let readmitted = migrations.len();
        Ok(self.report(
            label,
            ClusterVerdict::NodeReturned { readmitted },
            None,
            started,
            migrations,
            local_bytes,
        ))
    }

    /// The named application's measured compute drifted by `factor`.
    /// Routed to its home node: the agent rescales the source costs
    /// and replans, possibly shedding applications (the drifted one
    /// included). The coordinator mirrors the correction into its
    /// cached graph so later migrations admit the app at its real
    /// size; for shed applications the agent's corrected source graph
    /// is authoritative and overwrites the cache on re-homing.
    pub fn cost_drift(&mut self, app: &str, factor: f64) -> Result<ClusterReport, ClusterError> {
        let started = Instant::now();
        let label = format!("drift {app} x{factor}");
        let Some(node) = self.node_of(app) else {
            // drift reaches stranded applications too: correct the
            // ledger copy so the eventual re-admission uses real costs
            let verdict = match self.stranded.get_mut(app) {
                None => return Err(ClusterError::UnknownApp(app.to_owned())),
                Some(e) if factor.is_finite() && factor > 0.0 => {
                    e.graph = e.graph.rescale_costs(factor);
                    ClusterVerdict::Applied
                }
                Some(_) => ClusterVerdict::Rejected(format!("invalid drift factor {factor}")),
            };
            return Ok(self.report(label, verdict, None, started, Vec::new(), 0.0));
        };
        let reply =
            self.transport.send(node, ClusterMsg::CostDrift { app: app.to_owned(), factor });
        self.absorb(&reply);
        let mut local_bytes = reply.local_migration_bytes;
        if matches!(reply.outcome, AgentOutcome::Applied | AgentOutcome::Recovered { .. }) {
            if let Some(p) = self.apps.get_mut(app) {
                p.graph = p.graph.rescale_costs(factor);
            }
        }
        let (verdict, migrations) = match reply.outcome {
            AgentOutcome::Applied => (ClusterVerdict::Applied, Vec::new()),
            AgentOutcome::Recovered { shed } => {
                let (migrations, stranded) = self.rehome(shed, node, &mut local_bytes);
                (ClusterVerdict::Recovered { rehomed: migrations.len(), stranded }, migrations)
            }
            AgentOutcome::Rejected(r) => {
                (ClusterVerdict::Rejected(format!("{node}: {r}")), Vec::new())
            }
            // assignment said the app lives there but the agent
            // disagrees — surface the drift
            AgentOutcome::UnknownApp => {
                return Err(ClusterError::UnknownApp(app.to_owned()));
            }
            other => (
                ClusterVerdict::Rejected(format!("{node}: unexpected reply {other:?}")),
                Vec::new(),
            ),
        };
        Ok(self.report(label, verdict, None, started, migrations, local_bytes))
    }

    /// A whole node died. The agent stand-in wipes its serving state —
    /// resident buffer state is *lost*, not migrated — and the
    /// coordinator marks the node dead, absorbs the idle summary, and
    /// re-homes every resident from its own cache (the cached source
    /// graphs are exactly what a cold re-admission needs). Residents
    /// no surviving node admits go to the stranded ledger.
    pub fn node_failed(&mut self, node: NodeId) -> Result<ClusterReport, ClusterError> {
        let started = Instant::now();
        self.check_node(node)?;
        let label = format!("node-fail {node}");
        if self.dead[node.index()] {
            let v = ClusterVerdict::NodeLost { rehomed: 0, stranded: 0 };
            return Ok(self.report(label, v, None, started, Vec::new(), 0.0));
        }
        self.dead[node.index()] = true;
        let reply = self.transport.send(node, ClusterMsg::NodeFailed);
        self.absorb(&reply);
        let mut local_bytes = reply.local_migration_bytes;
        let shed: Vec<(StreamGraph, f64)> = self
            .apps
            .values()
            .filter(|p| p.node == node)
            .map(|p| (p.graph.clone(), p.weight))
            .collect();
        let (migrations, stranded) = self.rehome(shed, node, &mut local_bytes);
        let rehomed = migrations.len();
        Ok(self.report(
            label,
            ClusterVerdict::NodeLost { rehomed, stranded },
            None,
            started,
            migrations,
            local_bytes,
        ))
    }

    /// A dead node came back — empty: the crash lost its state, so it
    /// rejoins as cold capacity. The retry pass offers stranded
    /// applications to the whole fleet (the restored node included),
    /// and [`rebalance`](Self::rebalance) naturally reads the idle
    /// node (infinite period ⇒ load 0) as the coldest target for
    /// later moves. Restoring a live node is an idempotent no-op.
    pub fn node_restored(&mut self, node: NodeId) -> Result<ClusterReport, ClusterError> {
        let started = Instant::now();
        self.check_node(node)?;
        let label = format!("node-restore {node}");
        if !self.dead[node.index()] {
            let v = ClusterVerdict::NodeReturned { readmitted: 0 };
            return Ok(self.report(label, v, None, started, Vec::new(), 0.0));
        }
        self.dead[node.index()] = false;
        let reply = self.transport.send(node, ClusterMsg::NodeRestored);
        self.absorb(&reply);
        let mut local_bytes = reply.local_migration_bytes;
        let migrations = self.retry_stranded(&mut local_bytes);
        let readmitted = migrations.len();
        Ok(self.report(
            label,
            ClusterVerdict::NodeReturned { readmitted },
            None,
            started,
            migrations,
            local_bytes,
        ))
    }

    fn check_node(&self, node: NodeId) -> Result<(), ClusterError> {
        if node.index() >= self.summaries.len() {
            return Err(ClusterError::UnknownNode(node));
        }
        Ok(())
    }

    /// Admission-only placement walk for an application the fleet no
    /// longer hosts (shed or lost): rank the schedulable nodes
    /// (optionally excluding one), admit on the first that accepts,
    /// record the placement, and price the move from `from`. There is
    /// no retire leg — the source already lost the application.
    fn place_from_cache(
        &mut self,
        app: &str,
        graph: &StreamGraph,
        weight: f64,
        from: NodeId,
        exclude: Option<NodeId>,
        local_bytes: &mut f64,
    ) -> Option<Migration> {
        let demand = AppDemand::of(graph, weight);
        let candidates: Vec<NodeSummary> = self
            .summaries
            .iter()
            .filter(|s| self.schedulable(s.node))
            .filter(|s| exclude.is_none_or(|x| s.node != x))
            .cloned()
            .collect();
        for to in self.policy.rank(&candidates, &demand) {
            let reply = self.transport.send(to, ClusterMsg::Admit { graph: graph.clone(), weight });
            self.absorb(&reply);
            *local_bytes += reply.local_migration_bytes;
            if reply.outcome != AgentOutcome::Admitted {
                continue;
            }
            let bytes = reply.working_set_bytes;
            self.apps.insert(app.to_owned(), Placed { graph: graph.clone(), weight, node: to });
            return Some(Migration {
                app: app.to_owned(),
                from,
                to,
                bytes,
                seconds: self.network.transfer_time(from, to, bytes),
            });
        }
        None
    }

    /// Re-home applications a node shed or lost. The shed list carries
    /// drift-corrected source graphs — they overwrite the cache on
    /// placement. Whatever no surviving node admits goes to the
    /// stranded ledger: shed applications are never silently dropped.
    fn rehome(
        &mut self,
        shed: Vec<(StreamGraph, f64)>,
        from: NodeId,
        local_bytes: &mut f64,
    ) -> (Vec<Migration>, usize) {
        let mut migrations = Vec::new();
        let mut stranded = 0;
        for (graph, weight) in shed {
            let name = graph.name().to_owned();
            self.apps.remove(&name);
            match self.place_from_cache(&name, &graph, weight, from, Some(from), local_bytes) {
                Some(m) => migrations.push(m),
                None => {
                    stranded += 1;
                    self.stranded
                        .insert(name, Stranded { graph, weight, from, attempts: 0, cooldown: 0 });
                }
            }
        }
        (migrations, stranded)
    }

    /// One retry pass over the stranded ledger. Entries whose cooldown
    /// has not elapsed skip this pass (and tick down); the rest walk
    /// the fleet again. A failed attempt doubles the cooldown
    /// (`1 << attempts`, capped at 64 passes) — the entry stays in the
    /// ledger until some node finally admits it.
    fn retry_stranded(&mut self, local_bytes: &mut f64) -> Vec<Migration> {
        let mut migrations = Vec::new();
        let entries: Vec<(String, Stranded)> =
            self.stranded.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        for (name, mut entry) in entries {
            if entry.cooldown > 0 {
                entry.cooldown -= 1;
                self.stranded.insert(name, entry);
                continue;
            }
            match self.place_from_cache(
                &name,
                &entry.graph,
                entry.weight,
                entry.from,
                None,
                local_bytes,
            ) {
                Some(m) => {
                    migrations.push(m);
                    self.stranded.remove(&name);
                }
                None => {
                    entry.attempts += 1;
                    entry.cooldown = 1u32 << entry.attempts.min(6);
                    self.stranded.insert(name, entry);
                }
            }
        }
        migrations
    }

    /// Migrate applications off the hottest node onto the coolest while
    /// it pays: a move happens iff the *predicted* fleet-period gain,
    /// amortised over the migration horizon, exceeds the network
    /// transfer cost — the fleet-level twin of the serving loop's
    /// background-adoption rule. Each application moves at most once
    /// per call: the gain estimate shifts after every migration, and
    /// without that guard a marginal app can ping-pong between two
    /// near-tied nodes until the loop bound runs out.
    pub fn rebalance(&mut self) -> ClusterReport {
        let started = Instant::now();
        let mut migrations: Vec<Migration> = Vec::new();
        let mut local_bytes = 0.0;
        let mut moved_apps: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for _ in 0..self.apps.len() {
            let Some(mv) = self.best_rebalance_move(&moved_apps) else { break };
            let (app, to) = mv;
            match self.migrate(&app, Some(to), &mut local_bytes) {
                Some(m) => {
                    moved_apps.insert(m.app.clone());
                    migrations.push(m);
                }
                // the estimate said yes but the target's admission
                // control said no: stop rather than loop on a move that
                // will keep failing
                None => break,
            }
        }
        let moved = migrations.len();
        self.report(
            "rebalance".to_owned(),
            ClusterVerdict::Rebalanced { moved },
            None,
            started,
            migrations,
            local_bytes,
        )
    }

    /// The most profitable single migration right now, if any passes
    /// the horizon rule: the hottest node's best application, moved to
    /// the coolest schedulable node. Applications in `already_moved`
    /// are off the table for this rebalance pass.
    fn best_rebalance_move(
        &mut self,
        already_moved: &std::collections::BTreeSet<String>,
    ) -> Option<(String, NodeId)> {
        let schedulable = |s: &&NodeSummary| self.schedulable(s.node);
        let hot = self
            .summaries
            .iter()
            .filter(schedulable)
            .filter(|s| s.period.is_finite() && s.n_apps > 0)
            .max_by(|a, b| a.period.total_cmp(&b.period))?
            .clone();
        let cool = self
            .summaries
            .iter()
            .filter(schedulable)
            .filter(|s| s.node != hot.node)
            .min_by(|a, b| {
                let load = |s: &NodeSummary| if s.period.is_finite() { s.period } else { 0.0 };
                load(a).total_cmp(&load(b))
            })?
            .clone();
        let cool_base = if cool.period.is_finite() { cool.period } else { 0.0 };

        // pick hot's best move: largest predicted max-period gain that
        // amortises its own network cost over the horizon
        let mut best: Option<(String, f64)> = None;
        let candidates = self
            .apps
            .iter()
            .filter(|(name, p)| p.node == hot.node && !already_moved.contains(*name));
        for (name, placed) in candidates {
            let demand = AppDemand::of(&placed.graph, placed.weight);
            let share = demand.spe_work / hot.n_spe.max(1) as f64;
            let new_hot = (hot.period - share).max(0.0);
            let new_cool = cool_base + demand.spe_work / cool.n_spe.max(1) as f64;
            let gain = hot.period - new_hot.max(new_cool);
            let cost = self.network.transfer_time(hot.node, cool.node, demand.buffer_bytes);
            if gain > 0.0 && gain * self.migration_horizon > cost {
                match &best {
                    Some((_, g)) if *g >= gain => {}
                    _ => best = Some((name.clone(), gain)),
                }
            }
        }
        best.map(|(app, _)| (app, cool.node))
    }

    /// Make-before-break move of one application: admit on the target
    /// (the ranked best, or `force_to`), then retire from the source.
    /// Returns the priced migration, or `None` when no target admits
    /// it (the application stays where it is).
    fn migrate(
        &mut self,
        app: &str,
        force_to: Option<NodeId>,
        local_bytes: &mut f64,
    ) -> Option<Migration> {
        let placed = self.apps.get(app)?.clone();
        let demand = AppDemand::of(&placed.graph, placed.weight);
        let candidates: Vec<NodeSummary> = self
            .summaries
            .iter()
            .filter(|s| s.node != placed.node && self.schedulable(s.node))
            .filter(|s| force_to.is_none_or(|t| s.node == t))
            .cloned()
            .collect();
        for to in self.policy.rank(&candidates, &demand) {
            let reply = self
                .transport
                .send(to, ClusterMsg::Admit { graph: placed.graph.clone(), weight: placed.weight });
            self.absorb(&reply);
            *local_bytes += reply.local_migration_bytes;
            if reply.outcome != AgentOutcome::Admitted {
                continue;
            }
            let bytes = reply.working_set_bytes;
            let bye = self.transport.send(placed.node, ClusterMsg::Retire { app: app.to_owned() });
            self.absorb(&bye);
            *local_bytes += bye.local_migration_bytes;
            #[cfg(feature = "debug_invariants")]
            assert!(!self.draining[to.index()], "migration landed on draining {to}");
            // check:allow(hot-path-panic): inserted above, still placed
            self.apps.get_mut(app).expect("still placed").node = to;
            return Some(Migration {
                app: app.to_owned(),
                from: placed.node,
                to,
                bytes,
                seconds: self.network.transfer_time(placed.node, to, bytes),
            });
        }
        None
    }

    fn absorb(&mut self, msg: &AgentMsg) {
        self.summaries[msg.node.index()] = msg.summary.clone();
    }

    fn report(
        &self,
        event: String,
        verdict: ClusterVerdict,
        app: Option<String>,
        started: Instant,
        migrations: Vec<Migration>,
        local_migration_bytes: f64,
    ) -> ClusterReport {
        let r = ClusterReport {
            event,
            verdict,
            app,
            latency: started.elapsed(),
            migrations,
            local_migration_bytes,
            max_period: self.max_period(),
        };
        self.metrics.note_report(&r, self.stranded.len());
        r
    }

    /// The fleet metric cells and flight recorder.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// One exposition snapshot of the control plane: the fleet metric
    /// cells, fleet gauges from the coordinator's own bookkeeping
    /// (`placed`, `stranded` and their conservation sum `tracked`), and
    /// per-node load digests from the last-known [`NodeSummary`]s. Node
    /// *internals* are not here — [`Cluster::snapshot`] merges each
    /// agent's serving-loop snapshot on top.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let m = &self.metrics;
        let mut s = Snapshot::new();
        s.push_counter("cellstream_cluster_events_total", &[], m.events_total.get());
        s.push_counter("cellstream_cluster_applied_total", &[], m.applied_total.get());
        s.push_counter("cellstream_cluster_rejected_total", &[], m.rejected_total.get());
        s.push_counter(
            "cellstream_cluster_local_migration_bytes_total",
            &[],
            m.local_migration_bytes_total.get(),
        );
        s.push_counter(
            "cellstream_cluster_network_migrations_total",
            &[],
            m.network_migrations_total.get(),
        );
        s.push_counter("cellstream_cluster_network_bytes_total", &[], m.network_bytes_total.get());
        s.push_counter("cellstream_cluster_flight_recorded_total", &[], m.recorder.recorded());
        s.push_counter("cellstream_cluster_flight_dropped_total", &[], m.recorder.dropped());
        s.push_histogram("cellstream_cluster_latency_ns", &[], m.latency_ns.snapshot());
        s.push_gauge("cellstream_cluster_nodes", &[], self.summaries.len() as f64);
        s.push_gauge(
            "cellstream_cluster_draining_nodes",
            &[],
            self.draining.iter().filter(|d| **d).count() as f64,
        );
        s.push_gauge(
            "cellstream_cluster_dead_nodes",
            &[],
            self.dead.iter().filter(|d| **d).count() as f64,
        );
        s.push_gauge("cellstream_cluster_placed", &[], self.apps.len() as f64);
        s.push_gauge("cellstream_cluster_stranded", &[], self.stranded.len() as f64);
        s.push_gauge(
            "cellstream_cluster_tracked",
            &[],
            (self.apps.len() + self.stranded.len()) as f64,
        );
        s.push_gauge("cellstream_cluster_max_period_seconds", &[], self.max_period());
        for (i, sum) in self.summaries.iter().enumerate() {
            let node = i.to_string();
            let labels: &[(&str, &str)] = &[("node", node.as_str())];
            s.push_counter(
                "cellstream_cluster_placed_total",
                labels,
                m.placed_total.get(i).map_or(0, cellstream_telemetry::Counter::get),
            );
            s.push_gauge("cellstream_cluster_node_apps", labels, sum.n_apps as f64);
            s.push_gauge("cellstream_cluster_node_period_seconds", labels, sum.period);
            s.push_gauge("cellstream_cluster_node_spe_load", labels, sum.spe_load);
            s.push_gauge("cellstream_cluster_node_ppe_load", labels, sum.ppe_load);
            s.push_gauge("cellstream_cluster_node_store_used", labels, sum.store_used);
            s.push_gauge("cellstream_cluster_node_store_budget", labels, sum.store_budget);
        }
        s
    }
}

/// The burst-path verdict for an application no node hosts.
fn unknown_app(app: &str) -> ClusterVerdict {
    ClusterVerdict::Rejected(format!("no application named '{app}' in the fleet"))
}

/// The ready-to-use fleet: a [`Coordinator`] over the in-process
/// transport.
pub type Cluster = Coordinator<InProcessTransport>;

impl Cluster {
    /// A homogeneous in-process fleet: `n` nodes of platform `spec`.
    pub fn homogeneous(n: usize, spec: &CellSpec, opts: ClusterOptions) -> Cluster {
        let transport = InProcessTransport::homogeneous(n, spec, &opts.service);
        Coordinator::new(transport, opts)
    }

    /// The per-node agents (read-only).
    pub fn agents(&self) -> &[crate::agent::Agent] {
        self.transport.agents()
    }

    /// The whole fleet's exposition snapshot: the coordinator's
    /// [`telemetry_snapshot`](Coordinator::telemetry_snapshot) plus
    /// every node's serving-loop snapshot stamped with its
    /// `node="<id>"` label. The conservation tests check that the
    /// fleet totals equal the per-node sums on this merged view.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = self.telemetry_snapshot();
        for (i, agent) in self.agents().iter().enumerate() {
            s.merge(agent.service().telemetry_snapshot(), "node", &i.to_string());
        }
        s
    }
}

impl OnlineSystem for Cluster {
    fn apply_event(&mut self, ev: &TraceEvent) -> EventOutcome {
        let report = match ev {
            TraceEvent::Admit { graph, weight } => Some(self.admit(graph, *weight)),
            TraceEvent::Retire { app } => self.retire(app).ok(),
            TraceEvent::Reweight { app, weight } => self.reweight(app, *weight).ok(),
            TraceEvent::PeFailed { node, pe } => self.pe_failed(NodeId(*node), *pe).ok(),
            TraceEvent::PeRestored { node, pe } => self.pe_restored(NodeId(*node), *pe).ok(),
            TraceEvent::CostDrift { app, factor } => self.cost_drift(app, *factor).ok(),
            TraceEvent::NodeFailed { node } => self.node_failed(NodeId(*node)).ok(),
            TraceEvent::NodeRestored { node } => self.node_restored(NodeId(*node)).ok(),
        };
        match report {
            Some(r) => EventOutcome {
                at: 0.0,
                label: r.event.clone(),
                applied: r.applied(),
                queued: false,
                replan: r.latency,
                migration_bytes: r.local_migration_bytes + r.network_bytes(),
                period: r.max_period,
            },
            // unknown application: the trace is data, not a contract
            None => EventOutcome {
                at: 0.0,
                label: ev.label(),
                applied: false,
                queued: false,
                replan: Duration::ZERO,
                migration_bytes: 0.0,
                period: self.max_period(),
            },
        }
    }

    fn incumbents(&self) -> Vec<(&Workload, &Mapping, &CellSpec)> {
        self.agents()
            .iter()
            .filter_map(|a| {
                let s = a.service();
                match (s.workload(), s.mapping()) {
                    (Some(w), Some(m)) => Some((w, m, s.spec())),
                    _ => None,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::{FirstFit, RoundRobin};
    use cellstream_daggen::{chain, CostParams};

    fn app(name: &str, n: usize, seed: u64) -> StreamGraph {
        chain(name, n, &CostParams::default(), seed)
    }

    fn opts_with(policy: Box<dyn PlacePolicy>) -> ClusterOptions {
        ClusterOptions { policy, ..ClusterOptions::default() }
    }

    #[test]
    fn admissions_spread_and_route_back_by_name() {
        let mut fleet = Cluster::homogeneous(3, &CellSpec::ps3(), ClusterOptions::default());
        for i in 0..6 {
            let r = fleet.admit(&app(&format!("a{i}"), 3, i), 1.0 + i as f64);
            assert!(matches!(r.verdict, ClusterVerdict::Admitted(_)), "{:?}", r.verdict);
            assert!(r.migrations.is_empty(), "plain admissions never cross nodes");
        }
        assert_eq!(fleet.n_apps(), 6);
        assert!(fleet.max_period().is_finite());

        // reweight and retire find the right node without being told
        let home = fleet.node_of("a3").unwrap();
        let rw = fleet.reweight("a3", 9.0).unwrap();
        assert_eq!(rw.verdict, ClusterVerdict::Applied);
        assert_eq!(fleet.node_of("a3"), Some(home), "reweight does not move the app");
        assert_eq!(fleet.retire("a3").unwrap().verdict, ClusterVerdict::Applied);
        assert_eq!(fleet.n_apps(), 5);
        assert!(matches!(fleet.retire("a3"), Err(ClusterError::UnknownApp(_))));
        assert!(matches!(fleet.reweight("ghost", 1.0), Err(ClusterError::UnknownApp(_))));
    }

    #[test]
    fn duplicate_names_are_uniquified_fleet_wide() {
        let mut fleet = Cluster::homogeneous(2, &CellSpec::ps3(), ClusterOptions::default());
        let g = app("dup", 3, 7);
        let first = fleet.admit(&g, 1.0);
        let second = fleet.admit(&g, 1.0);
        assert_eq!(first.app.as_deref(), Some("dup"));
        assert_eq!(second.app.as_deref(), Some("dup#1"));
        assert!(second.applied());
        assert_eq!(fleet.n_apps(), 2);
        assert!(fleet.node_of("dup#1").is_some());
    }

    #[test]
    fn drain_evacuates_with_priced_migrations_and_valid_survivors() {
        let mut fleet = Cluster::homogeneous(4, &CellSpec::ps3(), ClusterOptions::default());
        for i in 0..8 {
            assert!(fleet.admit(&app(&format!("a{i}"), 3, 40 + i), 1.0).applied());
        }
        let victim = fleet.node_of("a0").unwrap();
        let before: Vec<String> = fleet
            .status()
            .nodes
            .iter()
            .find(|s| s.node == victim)
            .unwrap()
            .apps
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert!(!before.is_empty(), "the victim hosts something to evacuate");

        let report = fleet.drain(victim).unwrap();
        let ClusterVerdict::Drained { moved, stranded } = report.verdict else {
            panic!("{:?}", report.verdict)
        };
        assert_eq!(moved, before.len(), "every resident app evacuated");
        assert_eq!(stranded, 0);
        assert_eq!(report.migrations.len(), moved);

        let net = NetworkModel::default();
        for m in &report.migrations {
            assert_eq!(m.from, victim);
            assert_ne!(m.to, victim);
            assert!(m.bytes > 0.0, "a chain's working set is never empty");
            let expect = net.transfer_time(m.from, m.to, m.bytes);
            assert!((m.seconds - expect).abs() < 1e-12, "priced by the network model");
            assert_eq!(fleet.node_of(&m.app), Some(m.to), "assignment tracked the move");
        }

        // the drained node is empty and out of placement rotation
        let status = fleet.status();
        let empty = status.nodes.iter().find(|s| s.node == victim).unwrap();
        assert_eq!(empty.n_apps, 0);
        assert!(empty.period.is_infinite());
        assert_eq!(status.draining, vec![victim]);
        let late = fleet.admit(&app("late", 3, 99), 1.0);
        assert!(late.applied());
        assert_ne!(fleet.node_of("late"), Some(victim));

        // capacity invariants: every surviving incumbent still evaluates
        for a in fleet.agents() {
            let s = a.service();
            if let (Some(w), Some(m)) = (s.workload(), s.mapping()) {
                cellstream_core::evaluate(w.graph(), s.spec(), m)
                    .expect("survivor mappings stay structurally valid");
            }
        }

        // and the node can come back
        fleet.undrain(victim).unwrap();
        assert!(fleet.status().draining.is_empty());
        assert!(matches!(fleet.drain(NodeId(42)), Err(ClusterError::UnknownNode(_))));
    }

    #[test]
    fn identical_runs_place_identically() {
        let run = || {
            let mut fleet = Cluster::homogeneous(4, &CellSpec::ps3(), ClusterOptions::default());
            let mut placements = Vec::new();
            for i in 0..10 {
                let r = fleet.admit(&app(&format!("a{i}"), 2 + (i as usize % 3), i), 1.0);
                placements.push((r.app.clone(), format!("{:?}", r.verdict)));
            }
            fleet.retire("a4").unwrap();
            placements.push((None, format!("{:?}", fleet.drain(NodeId(1)).unwrap().verdict)));
            placements.push((None, format!("{:.6}", fleet.max_period())));
            placements
        };
        assert_eq!(run(), run(), "the control plane is deterministic");
    }

    #[test]
    fn rebalance_unpiles_a_first_fit_cluster() {
        // first-fit piles everything onto node 0 while it fits
        let mut fleet =
            Cluster::homogeneous(3, &CellSpec::ps3(), opts_with(Box::<FirstFit>::default()));
        for i in 0..6 {
            assert!(fleet.admit(&app(&format!("a{i}"), 4, 70 + i), 1.0).applied());
        }
        let piled = fleet.max_period();
        let hosts: std::collections::BTreeSet<NodeId> =
            (0..6).map(|i| fleet.node_of(&format!("a{i}")).unwrap()).collect();
        assert_eq!(hosts.len(), 1, "first-fit piled every app on one node");

        let report = fleet.rebalance();
        let ClusterVerdict::Rebalanced { moved } = report.verdict else {
            panic!("{:?}", report.verdict)
        };
        assert!(moved > 0, "a piled cluster has profitable moves");
        assert!(
            fleet.max_period() < piled,
            "rebalance improved the fleet period: {} -> {}",
            piled,
            fleet.max_period()
        );
        for m in &report.migrations {
            assert!(m.seconds > 0.0, "every move is network-priced");
        }

        // a second pass converges rather than ping-ponging forever
        let again = fleet.rebalance();
        let ClusterVerdict::Rebalanced { moved: again_moved } = again.verdict else {
            panic!("{:?}", again.verdict)
        };
        assert!(again_moved <= moved, "rebalance converges");
    }

    #[test]
    fn bursts_land_like_sequential_routing() {
        let mk = || {
            let mut fleet =
                Cluster::homogeneous(3, &CellSpec::ps3(), opts_with(Box::<RoundRobin>::default()));
            for i in 0..6 {
                assert!(fleet.admit(&app(&format!("a{i}"), 3, i), 1.0).applied());
            }
            fleet
        };
        let mut bursty = mk();
        let mut seq = mk();
        let burst = vec![
            TraceEvent::Retire { app: "a1".to_owned() },
            TraceEvent::Reweight { app: "a3".to_owned(), weight: 4.0 },
            TraceEvent::Admit { graph: app("b0", 3, 100), weight: 2.0 },
            TraceEvent::Retire { app: "a4".to_owned() },
            TraceEvent::Admit { graph: app("b1", 4, 101), weight: 1.0 },
        ];

        let report = bursty.process_burst(&burst);
        assert_eq!(report.events.len(), burst.len());
        assert_eq!(report.applied(), burst.len(), "{:?}", report.events);
        assert!(report.batches >= 1 && report.batches <= 3, "grouped per node");

        for ev in &burst {
            seq.apply_event(ev);
        }
        assert_eq!(bursty.n_apps(), seq.n_apps());
        for name in ["a0", "a2", "a3", "a5", "b0", "b1"] {
            assert_eq!(
                bursty.node_of(name),
                seq.node_of(name),
                "{name} routed to the same node either way"
            );
        }
        assert!(bursty.max_period().is_finite());

        // every incumbent the burst produced still evaluates feasible
        for a in bursty.agents() {
            let s = a.service();
            if let (Some(w), Some(m)) = (s.workload(), s.mapping()) {
                let r = cellstream_core::evaluate(w.graph(), s.spec(), m).expect("valid");
                assert!(r.is_feasible(), "burst broke {}: {:?}", a.node(), r.violations);
            }
        }
    }

    #[test]
    fn burst_cuts_at_repeated_names_and_reports_unknowns() {
        let mut fleet = Cluster::homogeneous(2, &CellSpec::ps3(), ClusterOptions::default());
        assert!(fleet.admit(&app("a", 3, 1), 1.0).applied());
        let burst = vec![
            TraceEvent::Retire { app: "ghost".to_owned() },
            TraceEvent::Admit { graph: app("b", 3, 2), weight: 1.0 },
            TraceEvent::Retire { app: "b".to_owned() },
            TraceEvent::Admit { graph: app("b", 3, 3), weight: 2.0 },
        ];
        let report = fleet.process_burst(&burst);
        assert!(
            matches!(&report.events[0].1, ClusterVerdict::Rejected(r) if r.contains("ghost")),
            "{:?}",
            report.events[0]
        );
        assert!(matches!(report.events[1].1, ClusterVerdict::Admitted(_)));
        assert_eq!(report.events[2].1, ClusterVerdict::Applied, "retire saw the in-burst admit");
        assert!(
            matches!(report.events[3].1, ClusterVerdict::Admitted(_)),
            "the re-admission got a clean name after the cut"
        );
        assert_eq!(fleet.n_apps(), 2, "a plus the re-admitted b");
        assert!(fleet.node_of("b").is_some());
        assert!(report.batches >= 3, "dependent ops forced separate groups");
    }

    #[test]
    fn process_routes_every_event_kind() {
        let mut fleet =
            Cluster::homogeneous(2, &CellSpec::ps3(), opts_with(Box::<RoundRobin>::default()));
        let r = fleet.process(ClusterEvent::Admit(app("a", 3, 1), 1.0)).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::Admitted(_)));
        let r = fleet.process(ClusterEvent::Reweight("a".into(), 2.0)).unwrap();
        assert_eq!(r.verdict, ClusterVerdict::Applied);
        let r = fleet.process(ClusterEvent::Rebalance).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::Rebalanced { .. }));
        let r = fleet.process(ClusterEvent::DrainNode(fleet.node_of("a").unwrap())).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::Drained { .. }));
        let r = fleet.process(ClusterEvent::Retire("a".into())).unwrap();
        assert_eq!(r.verdict, ClusterVerdict::Applied);
        assert_eq!(fleet.n_apps(), 0);
        assert!(fleet.max_period().is_infinite(), "empty fleet is idle");
    }

    #[test]
    fn process_routes_every_fault_event_kind() {
        let spec = CellSpec::ps3();
        let spe = spec.pe(spec.n_ppe()); // first SPE
        let mut fleet = Cluster::homogeneous(2, &spec, opts_with(Box::<RoundRobin>::default()));
        assert!(fleet.admit(&app("a", 3, 1), 1.0).applied());
        let home = fleet.node_of("a").unwrap();
        let other = NodeId((home.index() + 1) % 2);

        let r = fleet.process(ClusterEvent::PeFailed(home, spe)).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::Recovered { .. }), "{:?}", r.verdict);
        let r = fleet.process(ClusterEvent::PeRestored(home, spe)).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::NodeReturned { .. }), "{:?}", r.verdict);
        let r = fleet.process(ClusterEvent::CostDrift("a".into(), 1.25)).unwrap();
        assert!(r.applied(), "{:?}", r.verdict);
        let r = fleet.process(ClusterEvent::NodeFailed(other)).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::NodeLost { rehomed: 0, stranded: 0 }));
        let r = fleet.process(ClusterEvent::NodeRestored(other)).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::NodeReturned { readmitted: 0 }));
        assert!(matches!(
            fleet.process(ClusterEvent::NodeFailed(NodeId(9))),
            Err(ClusterError::UnknownNode(_))
        ));
        assert!(matches!(
            fleet.process(ClusterEvent::CostDrift("ghost".into(), 2.0)),
            Err(ClusterError::UnknownApp(_))
        ));
    }

    #[test]
    fn node_failure_rehomes_residents_and_restore_rejoins_cold() {
        let mut fleet =
            Cluster::homogeneous(3, &CellSpec::ps3(), opts_with(Box::<RoundRobin>::default()));
        for i in 0..6 {
            assert!(fleet.admit(&app(&format!("a{i}"), 3, 20 + i), 1.0).applied());
        }
        let victim = fleet.node_of("a0").unwrap();
        let residents = (0..6).filter(|i| fleet.node_of(&format!("a{i}")) == Some(victim)).count();
        assert!(residents > 0);

        let report = fleet.node_failed(victim).unwrap();
        let ClusterVerdict::NodeLost { rehomed, stranded } = report.verdict else {
            panic!("{:?}", report.verdict)
        };
        assert_eq!(rehomed + stranded, residents, "every lost resident is accounted for");
        assert_eq!(report.migrations.len(), rehomed);
        for m in &report.migrations {
            assert_eq!(m.from, victim);
            assert_ne!(m.to, victim, "nothing re-homes onto the dead node");
            assert!(m.seconds >= 0.0);
        }
        assert_eq!(fleet.n_apps() + fleet.status().stranded.len(), 6, "nothing silently dropped");
        assert_eq!(fleet.status().dead, vec![victim]);

        // the dead node is out of rotation: admissions and re-homes avoid it
        let late = fleet.admit(&app("late", 3, 77), 1.0);
        assert!(late.applied());
        assert_ne!(fleet.node_of("late"), Some(victim));
        // faults on a dead node are absorbed, restores of its PEs refused
        let r = fleet.pe_failed(victim, CellSpec::ps3().pe(CellSpec::ps3().n_ppe())).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::Recovered { rehomed: 0, stranded: 0 }));
        let r = fleet.pe_restored(victim, CellSpec::ps3().pe(CellSpec::ps3().n_ppe())).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::Rejected(_)));
        // a second node-failure is an idempotent no-op
        let r = fleet.node_failed(victim).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::NodeLost { rehomed: 0, stranded: 0 }));

        // the node returns empty — cold capacity
        let r = fleet.node_restored(victim).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::NodeReturned { .. }));
        assert!(fleet.status().dead.is_empty());
        let back = fleet.status().nodes.iter().find(|s| s.node == victim).unwrap().clone();
        assert_eq!(back.n_apps, 0, "the crash lost the node's state");
        assert!(back.period.is_infinite());

        // rebalance reads the idle node as the coolest target
        let report = fleet.rebalance();
        let ClusterVerdict::Rebalanced { moved } = report.verdict else {
            panic!("{:?}", report.verdict)
        };
        assert!(moved > 0, "a lopsided fleet has profitable moves");
        assert!(report.migrations.iter().all(|m| m.to == victim), "moves target the cold node");
    }

    /// Cheap on the SPE, expensive on the PPE: a period guarantee can
    /// make the lone SPE load-bearing, so its failure must shed.
    fn lean_app(name: &str) -> StreamGraph {
        use cellstream_graph::TaskSpec;
        let mut b = StreamGraph::builder(name);
        let s = b.add_task(TaskSpec::new("s").ppe_cost(10e-6).spe_cost(2e-6));
        let t = b.add_task(TaskSpec::new("t").ppe_cost(10e-6).spe_cost(2e-6));
        b.add_edge(s, t, 1024.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn pe_failures_shed_to_the_ledger_and_restores_drain_it() {
        use cellstream_platform::{ByteSize, CellSpecBuilder};
        // a one-node fleet has nowhere to re-home: shed applications
        // must land in the stranded ledger, never be dropped.
        // PPE-only arithmetic as in the single-node shed test:
        // heavy(w=2) 40us + light(w=1) 20us = 60us round, light's
        // per-instance 60us breaches the 30us cap — the SPE failure
        // sheds the lighter app
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(ByteSize::kib(256))
            .code_size(ByteSize::kib(64))
            .build()
            .unwrap();
        let service = ServiceOptions { max_period: Some(30e-6), ..Default::default() };
        let opts = ClusterOptions { service, ..ClusterOptions::default() };
        let mut fleet = Cluster::homogeneous(1, &spec, opts);
        assert!(fleet.admit(&lean_app("heavy"), 2.0).applied());
        assert!(fleet.admit(&lean_app("light"), 1.0).applied());
        let spe = PeId(1);

        let r = fleet.pe_failed(NodeId(0), spe).unwrap();
        let ClusterVerdict::Recovered { rehomed, stranded } = r.verdict else {
            panic!("{:?}", r.verdict)
        };
        assert_eq!(rehomed, 0, "a one-node fleet has nowhere else to go");
        assert_eq!(stranded, 1, "the lowest-weight app strands");
        assert_eq!(fleet.status().stranded, vec!["light".to_owned()]);
        assert_eq!(fleet.n_apps(), 1, "heavy kept running through the fault");
        assert_eq!(fleet.node_of("light"), None);
        assert_eq!(fleet.node_of("heavy"), Some(NodeId(0)));

        // the restore replans onto the recovered SPE and the retry
        // pass drains the ledger back into service
        let r = fleet.pe_restored(NodeId(0), spe).unwrap();
        let ClusterVerdict::NodeReturned { readmitted } = r.verdict else {
            panic!("{:?}", r.verdict)
        };
        assert_eq!(readmitted, 1, "the stranded app re-enters on restore");
        assert!(fleet.status().stranded.is_empty());
        assert_eq!(fleet.n_apps(), 2);
        assert_eq!(r.migrations.len(), 1);
        assert_eq!(r.migrations[0].app, "light");
    }

    #[test]
    fn cost_drift_raises_the_period_and_survives_migration() {
        let mut fleet =
            Cluster::homogeneous(2, &CellSpec::ps3(), opts_with(Box::<RoundRobin>::default()));
        assert!(fleet.admit(&app("a", 4, 11), 1.0).applied());
        let before = fleet.max_period();
        assert!(before.is_finite());

        let r = fleet.cost_drift("a", 2.0).unwrap();
        assert!(r.applied(), "{:?}", r.verdict);
        let after = fleet.max_period();
        assert!(after > before, "doubled compute slows the round: {before} -> {after}");

        // the coordinator's cache carries the corrected costs: a drain
        // re-admits the app at its drifted size on the other node
        let home = fleet.node_of("a").unwrap();
        let report = fleet.drain(home).unwrap();
        assert!(matches!(report.verdict, ClusterVerdict::Drained { moved: 1, stranded: 0 }));
        let moved_period = fleet.max_period();
        assert!(
            (moved_period - after).abs() <= 1e-9 * after.max(1.0),
            "the migrated app kept its drifted costs: {after} vs {moved_period}"
        );

        // malformed drifts are refused without touching anything
        let r = fleet.cost_drift("a", 0.0).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::Rejected(_)), "{:?}", r.verdict);
        assert!(matches!(fleet.cost_drift("ghost", 2.0), Err(ClusterError::UnknownApp(_))));
    }

    #[test]
    fn bursts_treat_faults_as_barriers() {
        let spec = CellSpec::ps3();
        let spe = spec.pe(spec.n_ppe());
        let mut fleet = Cluster::homogeneous(2, &spec, opts_with(Box::<RoundRobin>::default()));
        for i in 0..4 {
            assert!(fleet.admit(&app(&format!("a{i}"), 3, i), 1.0).applied());
        }
        let node = fleet.node_of("a0").unwrap();
        let burst = vec![
            TraceEvent::Reweight { app: "a1".to_owned(), weight: 2.0 },
            TraceEvent::PeFailed { node: node.index(), pe: spe },
            TraceEvent::Admit { graph: app("b0", 3, 100), weight: 1.0 },
            TraceEvent::CostDrift { app: "a2".to_owned(), factor: 1.5 },
            TraceEvent::Retire { app: "a3".to_owned() },
        ];
        let report = fleet.process_burst(&burst);
        assert_eq!(report.events.len(), burst.len());
        assert!(matches!(report.events[0].1, ClusterVerdict::Applied));
        assert!(
            matches!(report.events[1].1, ClusterVerdict::Recovered { .. }),
            "{:?}",
            report.events[1]
        );
        assert!(matches!(report.events[2].1, ClusterVerdict::Admitted(_)));
        assert!(
            report.events[3].1 == ClusterVerdict::Applied
                || matches!(report.events[3].1, ClusterVerdict::Recovered { .. }),
            "{:?}",
            report.events[3]
        );
        assert!(matches!(report.events[4].1, ClusterVerdict::Applied));
        assert_eq!(
            fleet.n_apps() + fleet.status().stranded.len(),
            4,
            "churn around the barrier landed and nothing was dropped"
        );
    }
}
