//! The coordinator: cluster state, operation routing, drain and
//! rebalance.
//!
//! One [`Cluster`] owns the fleet's agents and the fleet-wide picture —
//! per-node capacity summaries (refreshed from the agent after every
//! call to it), the application → node assignment, and the cached
//! source graphs it needs to move an application later. Every operation
//! is a [`TraceEvent`] and takes one path, the **group step**: `route`
//! answers it from the coordinator's own books or names its node,
//! `exchange` calls that node's agent and refreshes its summary, and
//! `settle` turns the agent's outcome into routing-table updates,
//! recovery and a [`ClusterVerdict`]. [`Cluster::process`] runs that
//! step over a group of one, [`Cluster::process_burst`] over as many
//! groups as the burst cuts into. [`Cluster::drain`] evacuates a node
//! make-before-break (admit on the target, then retire on the source),
//! and [`Cluster::rebalance`] migrates applications off the hottest
//! node while the predicted period gain, amortised over
//! [`MIGRATION_HORIZON`] rounds, outweighs the network transfer cost. Every cross-node move
//! is priced by the [`NetworkModel`] and reported as a [`Migration`].

use crate::agent::{Agent, AgentOutcome, NodeId, NodeSummary};
use crate::metrics::ClusterMetrics;
use crate::net::NetworkModel;
use crate::placer::{AppDemand, LoadAffinity, PlacePolicy};
use cellstream_core::Mapping;
use cellstream_graph::{StreamGraph, Workload};
use cellstream_heuristics::scheduler_names;
use cellstream_platform::{CellSpec, PeId};
use cellstream_serve::{ServiceOptions, MIGRATION_HORIZON};
use cellstream_sim::online::{EventOutcome, OnlineSystem, TraceEvent};
use cellstream_telemetry::Snapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::{Duration, Instant};

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

    /// `true` when the operation changed what some node serves.
    pub fn applied(&self) -> bool {
        match self {
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
        self.verdict.applied()
    }

    /// Total bytes this operation pushed across the network.
    pub fn network_bytes(&self) -> f64 {
        self.migrations.iter().map(|m| m.bytes).sum()
    }
}

/// What one fleet-level burst did: per-event verdicts in request order
/// plus the aggregate cost of the node batches that carried it — see
/// [`Cluster::process_burst`].
#[derive(Debug, Clone)]
pub struct BurstReport {
    /// Per-event `(label, verdict)` pairs, in request order.
    pub events: Vec<(String, ClusterVerdict)>,
    /// Wall-clock latency of the whole burst, every agent exchange
    /// included.
    pub latency: Duration,
    /// Node batches the burst was carried by (one agent call each).
    pub batches: usize,
    /// EIB traffic of the intra-node replans the burst triggered
    /// (bytes, summed across nodes).
    pub local_migration_bytes: f64,
    /// Worst composed round period across the fleet after the burst.
    pub max_period: f64,
}

impl BurstReport {
    /// Churn events that changed what some node serves.
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

/// Tunables of one [`Cluster`].
pub struct ClusterOptions {
    /// Inter-node placement policy (default: [`LoadAffinity`]).
    pub policy: Box<dyn PlacePolicy>,
    /// Per-node serving options (the coordinator forces
    /// `queue_rejected` off — it owns retry policy fleet-wide).
    pub service: ServiceOptions,
}

impl Default for ClusterOptions {
    fn default() -> ClusterOptions {
        ClusterOptions {
            policy: Box::new(LoadAffinity::default()),
            service: ServiceOptions::default(),
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

/// Where [`Cluster::route`] sends one operation.
enum Route {
    /// Answered from the coordinator's own books — no exchange.
    Done(ClusterVerdict),
    /// Carried to this node.
    To(NodeId),
}

/// What a group step cost beyond its verdicts.
#[derive(Default)]
struct Cost {
    /// EIB traffic of the intra-node replans it triggered (bytes).
    local_bytes: f64,
    /// Cross-node moves it performed.
    migrations: Vec<Migration>,
}

impl Cost {
    fn absorb(&mut self, part: Cost) {
        self.local_bytes += part.local_bytes;
        self.migrations.extend(part.migrations);
    }
}

/// The fleet: its agents (agent `i` is `NodeId(i)`) and the control
/// plane that calls them.
pub struct Cluster {
    agents: Vec<Agent>,
    policy: Box<dyn PlacePolicy>,
    network: NetworkModel,
    summaries: Vec<NodeSummary>,
    draining: Vec<bool>,
    /// Nodes that died ([`TraceEvent::NodeFailed`]) and have not been
    /// restored — excluded from placement, routing, and rebalance.
    dead: Vec<bool>,
    // BTreeMap: drains and rebalances iterate this — keep the order
    // deterministic
    apps: BTreeMap<String, Placed>,
    /// Shed applications awaiting a willing node (BTreeMap: retry
    /// passes iterate this — keep the order deterministic).
    stranded: BTreeMap<String, Stranded>,
    next_unique: u64,
    /// The fleet metric cells and flight recorder; every public call
    /// is recorded once ([`ClusterMetrics::note`]).
    metrics: ClusterMetrics,
}

impl Cluster {
    /// A homogeneous fleet: `n` nodes of platform `spec`, each serving
    /// with `opts.service`.
    pub fn homogeneous(n: usize, spec: &CellSpec, opts: ClusterOptions) -> Cluster {
        assert!(n > 0, "a cluster needs at least one node");
        let agents: Vec<Agent> =
            (0..n).map(|i| Agent::new(NodeId(i), spec.clone(), opts.service.clone())).collect();
        Cluster {
            summaries: agents.iter().map(Agent::summary).collect(),
            agents,
            policy: opts.policy,
            network: NetworkModel::default(),
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

    /// Deep audit (`debug_invariants` feature): the control plane's
    /// view must agree with the nodes — every cached summary equals a
    /// fresh one from its agent, the routing table places every
    /// application on an in-range node, per-node placement counts and
    /// app lists (names *and* weights) match the node summaries, and
    /// the bookkeeping vectors stay parallel. Panics with `ctx` on any
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
        for (i, (s, agent)) in self.summaries.iter().zip(&self.agents).enumerate() {
            assert_eq!(s.node.index(), i, "{ctx}: summary {i} reports node {}", s.node);
            assert_eq!(*s, agent.summary(), "{ctx}: node {i}'s cached summary is stale");
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

    /// Route one fleet-level operation: the group step over a group of
    /// one, reported in full.
    ///
    /// * **Routing.** An admission is given a fleet-unique name
    ///   (`"name#k"` for a duplicate — routing is by name) and goes to
    ///   the placement policy's top-ranked schedulable node. A retire,
    ///   reweight or cost drift goes to the application's home node; for
    ///   a stranded application it is answered from the retry ledger
    ///   instead (the retire removes the entry, a valid new weight or
    ///   drift factor corrects it). A PE or node fault goes to the node
    ///   it names, unless that node is already dead — then only
    ///   [`TraceEvent::NodeRestored`] does anything.
    /// * **Fallback.** An admission its pre-ranked node refuses walks
    ///   the rest of the preference order, re-ranked against the
    ///   refusal's fresh summaries, until some node's own admission
    ///   control accepts; the last refusal is quoted if none does.
    /// * **Recovery.** Applications a fault sheds are re-homed on other
    ///   nodes (drift-corrected source graphs travel with them) or
    ///   parked in the stranded ledger — never dropped — and every
    ///   restore offers the ledger to the fleet again.
    ///
    /// A refused operation is a [`ClusterVerdict::Rejected`] report;
    /// only an unknown application or node is an error.
    pub fn process(&mut self, ev: &TraceEvent) -> Result<ClusterReport, ClusterError> {
        let started = Instant::now();
        let mut cost = Cost::default();
        let (op, verdict) = self
            .group(std::slice::from_ref(ev), &mut cost, &mut 0)
            .pop()
            .expect("one event is one group"); // check:allow(hot-path-panic): a group takes at least its first event
        let app = match &op {
            TraceEvent::Admit { graph, .. } => Some(graph.name().to_owned()),
            _ => None,
        };
        Ok(self.report(op.label(), op.kind(), verdict?, app, started, cost))
    }

    /// Route a burst of fleet-level operations: one agent exchange per
    /// group and node (and on the agent, one composed replan per run of
    /// independent ops) instead of one exchange per event.
    ///
    /// The burst is **cut** into groups, each one group step — the step
    /// [`process`](Self::process) runs for a single event: a fault is a
    /// group of its own (it can shed arbitrary applications, so it runs
    /// in trace order against the summaries the churn before it left
    /// behind), and an event naming an application an earlier event of
    /// the group touched starts the next group, so in-order semantics
    /// hold across the cut. Within a group every op is routed against
    /// the summaries as of the group start and each node gets its ops
    /// in one [`Agent::apply_batch`] call. An unknown application or node
    /// gets a [`ClusterVerdict::Rejected`] verdict — the trace is data,
    /// not a contract.
    pub fn process_burst(&mut self, events: &[TraceEvent]) -> BurstReport {
        let started = Instant::now();
        let mut done = Vec::with_capacity(events.len());
        let mut cost = Cost::default();
        let mut batches = 0;
        while done.len() < events.len() {
            done.extend(self.group(&events[done.len()..], &mut cost, &mut batches));
        }
        let verdicts = done.into_iter().map(|(op, res)| {
            (op.label(), res.unwrap_or_else(|e| ClusterVerdict::Rejected(e.to_string())))
        });
        let report = BurstReport {
            events: verdicts.collect(),
            latency: started.elapsed(),
            batches,
            local_migration_bytes: cost.local_bytes,
            max_period: self.max_period(),
        };
        #[cfg(feature = "debug_invariants")]
        self.check_invariants("process_burst");
        self.metrics.note(
            "burst",
            events.iter().map(TraceEvent::kind).zip(report.events.iter().map(|(_, v)| v)),
            report.latency,
            cost.local_bytes,
            &cost.migrations,
            self.stranded.len(),
        );
        report
    }

    /// The group step: take the longest prefix of `events` that forms
    /// one group (see [`process_burst`](Self::process_burst) for the cut
    /// rule), route every op of it, hand each node's ops to its agent in
    /// one call, and settle the outcomes. Returns the group's ops in
    /// their fleet-level form (admissions under their unique names),
    /// each with its verdict, in request order.
    fn group(
        &mut self,
        events: &[TraceEvent],
        cost: &mut Cost,
        batches: &mut usize,
    ) -> Vec<(TraceEvent, Result<ClusterVerdict, ClusterError>)> {
        let mut done: Vec<(TraceEvent, Result<ClusterVerdict, ClusterError>)> = Vec::new();
        let mut per_node: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for ev in events {
            let touched = |name| done.iter().any(|(op, _)| op.app() == Some(name));
            if !done.is_empty() && (ev.is_fault() || ev.app().is_some_and(touched)) {
                break;
            }
            // until its node answers, an op's verdict is that nothing did
            let silent = || ClusterVerdict::Rejected("the node reported no verdict".to_owned());
            done.push(match self.route(ev) {
                Ok((op, Route::To(node))) => {
                    per_node.entry(node).or_default().push(done.len());
                    (op, Ok(silent()))
                }
                Ok((op, Route::Done(verdict))) => (op, Ok(verdict)),
                Err(e) => (ev.clone(), Err(e)),
            });
            if ev.is_fault() {
                break;
            }
        }
        // one agent call per node, in node order (deterministic)
        for (node, slots) in per_node {
            // each op's recovery sums on its own before joining the
            // group's total, so a byte total has the same bits however
            // the ops around it were grouped
            let mut own = Cost::default();
            let outcomes = match &done[slots[0]].0 {
                fault if fault.is_fault() => {
                    vec![self.exchange(node, node_local(fault), &mut own).0]
                }
                _ => {
                    *batches += 1;
                    let ops = slots.iter().map(|&i| done[i].0.clone()).collect();
                    let (outcomes, local_bytes) = self.agents[node.index()].apply_batch(ops);
                    cost.local_bytes += local_bytes;
                    self.refresh(node);
                    outcomes
                }
            };
            for (i, outcome) in slots.into_iter().zip(outcomes) {
                done[i].1 = Ok(self.settle(node, &done[i].0, outcome, &mut own));
                cost.absorb(std::mem::take(&mut own));
            }
        }
        done
    }

    /// Answer `ev` from the coordinator's own books or name the node
    /// that must: returns the op in its fleet-level form — an admission
    /// under its fleet-unique name — and where it goes. Routing reads
    /// the summaries as they stand; it talks to no node.
    fn route(&mut self, ev: &TraceEvent) -> Result<(TraceEvent, Route), ClusterError> {
        let unknown = |app: &str| ClusterError::UnknownApp(app.to_owned());
        let route = match ev {
            TraceEvent::Admit { graph, weight } => {
                // routing is by name, so names must be fleet-unique: free
                // of every placed and every stranded application
                let mut name = graph.name().to_owned();
                while self.apps.contains_key(&name) || self.stranded.contains_key(&name) {
                    name = format!("{}#{}", graph.name(), self.next_unique);
                    self.next_unique += 1;
                }
                let graph = match name == graph.name() {
                    true => graph.clone(),
                    false => graph.renamed(name),
                };
                let order = self.ranked(&AppDemand::of(&graph, *weight), None, None);
                let route = match order.first() {
                    Some(&node) => Route::To(node),
                    None => Route::Done(ClusterVerdict::Rejected("no schedulable node".to_owned())),
                };
                return Ok((TraceEvent::Admit { graph, weight: *weight }, route));
            }
            TraceEvent::Retire { app } => match self.node_of(app) {
                Some(node) => Route::To(node),
                // a stranded application retires straight out of the ledger
                None => {
                    self.stranded.remove(app).ok_or_else(|| unknown(app))?;
                    Route::Done(ClusterVerdict::Applied)
                }
            },
            TraceEvent::Reweight { app, weight: x } | TraceEvent::CostDrift { app, factor: x } => {
                match self.node_of(app) {
                    Some(node) => Route::To(node),
                    // both reach a stranded application's ledger copy, so
                    // its eventual re-admission asks for the new weight at
                    // the real costs — and neither may poison that copy
                    None => {
                        let entry = self.stranded.get_mut(app).ok_or_else(|| unknown(app))?;
                        if !(x.is_finite() && *x > 0.0) {
                            let refusal = format!("invalid {}", ev.label());
                            Route::Done(ClusterVerdict::Rejected(refusal))
                        } else {
                            match ev {
                                TraceEvent::Reweight { .. } => entry.weight = *x,
                                _ => entry.graph = entry.graph.rescale_costs(*x),
                            }
                            Route::Done(ClusterVerdict::Applied)
                        }
                    }
                }
            }
            TraceEvent::PeFailed { node, .. }
            | TraceEvent::PeRestored { node, .. }
            | TraceEvent::NodeFailed { node }
            | TraceEvent::NodeRestored { node } => {
                let node = NodeId(*node);
                self.check_node(node)?;
                let dead = &mut self.dead[node.index()];
                match (ev, *dead) {
                    // the whole node is gone: a PE fault on it is a
                    // no-op, and only a node restore brings it back
                    (TraceEvent::PeFailed { .. }, true) => {
                        Route::Done(ClusterVerdict::Recovered { rehomed: 0, stranded: 0 })
                    }
                    (TraceEvent::PeRestored { .. }, true) => {
                        let refusal = format!("{node} is down — restore the node, not its PEs");
                        Route::Done(ClusterVerdict::Rejected(refusal))
                    }
                    // a second node failure, or restoring a live node, is
                    // an idempotent no-op
                    (TraceEvent::NodeFailed { .. }, true) => {
                        Route::Done(ClusterVerdict::NodeLost { rehomed: 0, stranded: 0 })
                    }
                    (TraceEvent::NodeRestored { .. }, false) => {
                        Route::Done(ClusterVerdict::NodeReturned { readmitted: 0 })
                    }
                    // a PE fault on a live node leaves it live; a node
                    // fault flips it
                    _ => {
                        *dead = matches!(ev, TraceEvent::NodeFailed { .. });
                        Route::To(node)
                    }
                }
            }
        };
        Ok((ev.clone(), route))
    }

    /// Apply one operation on `node`: add the replan's EIB traffic to
    /// `cost`, refresh the node's summary, and hand back the outcome
    /// with the working set the agent sized.
    fn exchange(&mut self, node: NodeId, op: TraceEvent, cost: &mut Cost) -> (AgentOutcome, f64) {
        let (outcome, local_bytes, working_set) = self.agents[node.index()].apply(op);
        cost.local_bytes += local_bytes;
        self.refresh(node);
        (outcome, working_set)
    }

    /// Re-read `node`'s summary from its agent: the coordinator's view
    /// of a node is exactly as stale as its last call to it.
    fn refresh(&mut self, node: NodeId) {
        self.summaries[node.index()] = self.agents[node.index()].summary();
    }

    /// The one `(op, outcome)` table: turn the answer of `op`'s node
    /// into routing-table updates, recovery and a verdict.
    fn settle(
        &mut self,
        node: NodeId,
        op: &TraceEvent,
        outcome: AgentOutcome,
        cost: &mut Cost,
    ) -> ClusterVerdict {
        let shed = |(rehomed, stranded)| ClusterVerdict::Recovered { rehomed, stranded };
        match (op, outcome) {
            (TraceEvent::Admit { graph, weight }, AgentOutcome::Admitted) => {
                self.place(graph, *weight, node)
            }
            // the pre-ranked node refused: walk the rest of the order,
            // re-ranked against the refusal's fresh summaries
            (TraceEvent::Admit { graph, weight }, refused @ AgentOutcome::Rejected(_)) => {
                let order = self.ranked(&AppDemand::of(graph, *weight), Some(node), None);
                match self.walk(graph, *weight, order, cost) {
                    Ok((to, _)) => self.place(graph, *weight, to),
                    Err(last) => {
                        ClusterVerdict::Rejected(last.unwrap_or_else(|| refusal(node, &refused)))
                    }
                }
            }
            (TraceEvent::Retire { app }, AgentOutcome::Applied) => {
                self.apps.remove(app);
                ClusterVerdict::Applied
            }
            (TraceEvent::Reweight { app, weight }, AgentOutcome::Applied) => {
                if let Some(placed) = self.apps.get_mut(app) {
                    placed.weight = *weight;
                }
                ClusterVerdict::Applied
            }
            // the node rescaled the source costs and replanned, possibly
            // shedding applications (the drifted one included): mirror
            // the correction into the cached graph so later migrations
            // admit the app at its real size — for shed applications
            // the agent's corrected source graph is authoritative and
            // overwrites the cache on re-homing
            (
                TraceEvent::CostDrift { app, factor },
                answer @ (AgentOutcome::Applied | AgentOutcome::Recovered { .. }),
            ) => {
                if let Some(placed) = self.apps.get_mut(app) {
                    placed.graph = placed.graph.rescale_costs(*factor);
                }
                match answer {
                    AgentOutcome::Recovered { shed: lost } => shed(self.rehome(lost, node, cost)),
                    _ => ClusterVerdict::Applied,
                }
            }
            // the node replanned around the dead PE; what no longer fits
            // comes back for re-homing
            (TraceEvent::PeFailed { .. }, AgentOutcome::Applied) => shed((0, 0)),
            (TraceEvent::PeFailed { .. }, AgentOutcome::Recovered { shed: lost }) => {
                shed(self.rehome(lost, node, cost))
            }
            // capacity only grows on a restore — agents never shed here —
            // so the stranded ledger gets a retry
            (
                TraceEvent::PeRestored { .. },
                AgentOutcome::Applied | AgentOutcome::Recovered { .. },
            )
            | (TraceEvent::NodeRestored { .. }, _) => {
                ClusterVerdict::NodeReturned { readmitted: self.retry_stranded(cost) }
            }
            // the crash lost the node's state: its residents re-home
            // from the coordinator's cache, whose source graphs are
            // exactly what a cold re-admission needs
            (TraceEvent::NodeFailed { .. }, _) => {
                let lost = self.apps.values().filter(|p| p.node == node);
                let lost = lost.map(|p| (p.graph.clone(), p.weight)).collect();
                let (rehomed, stranded) = self.rehome(lost, node, cost);
                ClusterVerdict::NodeLost { rehomed, stranded }
            }
            (_, other) => ClusterVerdict::Rejected(refusal(node, &other)),
        }
    }

    /// Record an accepted admission in the routing table.
    fn place(&mut self, graph: &StreamGraph, weight: f64, node: NodeId) -> ClusterVerdict {
        #[cfg(feature = "debug_invariants")]
        assert!(self.schedulable(node), "admission landed on unschedulable {node}");
        self.apps.insert(graph.name().to_owned(), Placed { graph: graph.clone(), weight, node });
        ClusterVerdict::Admitted(node)
    }

    /// The placement policy's preference order for `demand` over the
    /// schedulable nodes — without `exclude`, and only `only` when set.
    fn ranked(
        &mut self,
        demand: &AppDemand,
        exclude: Option<NodeId>,
        only: Option<NodeId>,
    ) -> Vec<NodeId> {
        let candidates: Vec<NodeSummary> = self
            .summaries
            .iter()
            .filter(|s| self.schedulable(s.node) && Some(s.node) != exclude)
            .filter(|s| only.is_none_or(|t| s.node == t))
            .cloned()
            .collect();
        self.policy.rank(&candidates, demand)
    }

    /// Offer an application to the nodes of `order` in turn. The first
    /// whose admission control accepts hosts it: `Ok` with that node
    /// and the working set it sized, else the last refusal (`None` for
    /// an empty order).
    fn walk(
        &mut self,
        graph: &StreamGraph,
        weight: f64,
        order: Vec<NodeId>,
        cost: &mut Cost,
    ) -> Result<(NodeId, f64), Option<String>> {
        let mut last = None;
        for to in order {
            let admit = TraceEvent::Admit { graph: graph.clone(), weight };
            match self.exchange(to, admit, cost) {
                (AgentOutcome::Admitted, working_set) => return Ok((to, working_set)),
                (refused, _) => last = Some(refusal(to, &refused)),
            }
        }
        Err(last)
    }

    /// Evacuate every application from `node` and exclude it from
    /// placement until [`undrain`](Self::undrain). Each application is
    /// moved make-before-break: admitted on the best willing target
    /// first, then retired from the source, so fleet capacity
    /// invariants hold at every step. Applications no other node will
    /// take stay put and are counted as stranded.
    pub fn drain(&mut self, node: NodeId) -> Result<ClusterReport, ClusterError> {
        let started = Instant::now();
        self.check_node(node)?;
        self.draining[node.index()] = true;
        let resident: Vec<String> = self
            .apps
            .iter()
            .filter(|(_, p)| p.node == node)
            .map(|(name, _)| name.clone())
            .collect();
        let mut cost = Cost::default();
        for app in &resident {
            self.migrate(app, None, &mut cost);
        }
        let moved = cost.migrations.len();
        let verdict = ClusterVerdict::Drained { moved, stranded: resident.len() - moved };
        Ok(self.report(format!("drain {node}"), "drain", verdict, None, started, cost))
    }

    /// Put a drained node back into placement rotation.
    pub fn undrain(&mut self, node: NodeId) -> Result<(), ClusterError> {
        self.check_node(node)?;
        self.draining[node.index()] = false;
        Ok(())
    }

    /// Admit an application somewhere in the fleet
    /// ([`process`](Self::process) of a [`TraceEvent::Admit`]).
    pub fn admit(&mut self, g: &StreamGraph, weight: f64) -> ClusterReport {
        self.process(&TraceEvent::Admit { graph: g.clone(), weight })
            .expect("admissions name no application or node") // check:allow(hot-path-panic): routing an admission never errors
    }

    /// Retire an application wherever it lives
    /// ([`process`](Self::process) of a [`TraceEvent::Retire`]).
    pub fn retire(&mut self, app: &str) -> Result<ClusterReport, ClusterError> {
        self.process(&TraceEvent::Retire { app: app.to_owned() })
    }

    /// Change an application's throughput weight wherever it lives
    /// ([`process`](Self::process) of a [`TraceEvent::Reweight`]).
    pub fn reweight(&mut self, app: &str, weight: f64) -> Result<ClusterReport, ClusterError> {
        self.process(&TraceEvent::Reweight { app: app.to_owned(), weight })
    }

    /// One SPE on a node failed ([`process`](Self::process) of a
    /// [`TraceEvent::PeFailed`]).
    pub fn pe_failed(&mut self, node: NodeId, pe: PeId) -> Result<ClusterReport, ClusterError> {
        self.process(&TraceEvent::PeFailed { node: node.index(), pe })
    }

    /// A failed SPE came back ([`process`](Self::process) of a
    /// [`TraceEvent::PeRestored`]).
    pub fn pe_restored(&mut self, node: NodeId, pe: PeId) -> Result<ClusterReport, ClusterError> {
        self.process(&TraceEvent::PeRestored { node: node.index(), pe })
    }

    /// The named application's measured compute drifted by `factor`
    /// ([`process`](Self::process) of a [`TraceEvent::CostDrift`]).
    pub fn cost_drift(&mut self, app: &str, factor: f64) -> Result<ClusterReport, ClusterError> {
        self.process(&TraceEvent::CostDrift { app: app.to_owned(), factor })
    }

    /// A whole node died ([`process`](Self::process) of a
    /// [`TraceEvent::NodeFailed`]): its residents' buffer state is
    /// *lost*, not migrated.
    pub fn node_failed(&mut self, node: NodeId) -> Result<ClusterReport, ClusterError> {
        self.process(&TraceEvent::NodeFailed { node: node.index() })
    }

    /// A dead node came back — empty, as cold capacity
    /// ([`process`](Self::process) of a [`TraceEvent::NodeRestored`]);
    /// [`rebalance`](Self::rebalance) reads the idle node (infinite
    /// period ⇒ load 0) as the coldest target for later moves.
    pub fn node_restored(&mut self, node: NodeId) -> Result<ClusterReport, ClusterError> {
        self.process(&TraceEvent::NodeRestored { node: node.index() })
    }

    fn check_node(&self, node: NodeId) -> Result<(), ClusterError> {
        match node.index() < self.summaries.len() {
            true => Ok(()),
            false => Err(ClusterError::UnknownNode(node)),
        }
    }

    /// Admission-only placement of an application the fleet no longer
    /// hosts (shed or lost): walk the schedulable nodes (optionally
    /// excluding one), record the placement, and price the move from
    /// `from`. There is no retire leg — the source already lost the
    /// application.
    fn rehouse(
        &mut self,
        graph: &StreamGraph,
        weight: f64,
        from: NodeId,
        exclude: Option<NodeId>,
        cost: &mut Cost,
    ) -> bool {
        let order = self.ranked(&AppDemand::of(graph, weight), exclude, None);
        let Ok((to, bytes)) = self.walk(graph, weight, order, cost) else { return false };
        self.place(graph, weight, to);
        cost.migrations.push(self.migration(graph.name(), from, to, bytes));
        true
    }

    /// A cross-node move of `bytes`, priced by the network model.
    fn migration(&self, app: &str, from: NodeId, to: NodeId, bytes: f64) -> Migration {
        let seconds = self.network.transfer_time(bytes);
        Migration { app: app.to_owned(), from, to, bytes, seconds }
    }

    /// Re-home applications a node shed or lost: `(rehomed, stranded)`.
    /// The shed list carries drift-corrected source graphs — they
    /// overwrite the cache on placement. Whatever no surviving node
    /// admits goes to the stranded ledger: shed applications are never
    /// silently dropped.
    fn rehome(
        &mut self,
        shed: Vec<(StreamGraph, f64)>,
        from: NodeId,
        cost: &mut Cost,
    ) -> (usize, usize) {
        let (mut rehomed, mut stranded) = (0, 0);
        for (graph, weight) in shed {
            self.apps.remove(graph.name());
            if self.rehouse(&graph, weight, from, Some(from), cost) {
                rehomed += 1;
            } else {
                stranded += 1;
                let name = graph.name().to_owned();
                self.stranded
                    .insert(name, Stranded { graph, weight, from, attempts: 0, cooldown: 0 });
            }
        }
        (rehomed, stranded)
    }

    /// One retry pass over the stranded ledger; returns how many
    /// entries re-entered service. Entries whose cooldown has not
    /// elapsed skip this pass (and tick down); the rest walk the fleet
    /// again. A failed attempt doubles the cooldown (`1 << attempts`,
    /// capped at 64 passes) — the entry stays in the ledger until some
    /// node finally admits it.
    fn retry_stranded(&mut self, cost: &mut Cost) -> usize {
        let mut readmitted = 0;
        for (name, mut entry) in std::mem::take(&mut self.stranded) {
            if entry.cooldown > 0 {
                entry.cooldown -= 1;
            } else if self.rehouse(&entry.graph, entry.weight, entry.from, None, cost) {
                readmitted += 1;
                continue;
            } else {
                entry.attempts += 1;
                entry.cooldown = 1u32 << entry.attempts.min(6);
            }
            self.stranded.insert(name, entry);
        }
        readmitted
    }

    /// Migrate applications off the hottest node onto the coolest while
    /// it pays: a move happens iff the *predicted* fleet-period gain,
    /// amortised over [`MIGRATION_HORIZON`] rounds, exceeds the network
    /// transfer cost — the fleet-level twin of the serving loop's
    /// background-adoption rule. Each application moves at most once
    /// per call: the gain estimate shifts after every migration, and
    /// without that guard a marginal app can ping-pong between two
    /// near-tied nodes until the loop bound runs out.
    pub fn rebalance(&mut self) -> ClusterReport {
        let started = Instant::now();
        let mut cost = Cost::default();
        let mut moved_apps: BTreeSet<String> = BTreeSet::new();
        for _ in 0..self.apps.len() {
            let Some((app, to)) = self.best_rebalance_move(&moved_apps) else { break };
            // the estimate said yes but the target's admission control
            // said no: stop rather than loop on a move that will keep
            // failing
            if !self.migrate(&app, Some(to), &mut cost) {
                break;
            }
            moved_apps.insert(app);
        }
        let verdict = ClusterVerdict::Rebalanced { moved: cost.migrations.len() };
        self.report("rebalance".to_owned(), "rebalance", verdict, None, started, cost)
    }

    /// The most profitable single migration right now, if any passes
    /// the horizon rule: the hottest node's best application, moved to
    /// the coolest schedulable node. Applications in `already_moved`
    /// are off the table for this rebalance pass.
    fn best_rebalance_move(
        &mut self,
        already_moved: &BTreeSet<String>,
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
            let cost = self.network.transfer_time(demand.buffer_bytes);
            if gain > 0.0 && gain * MIGRATION_HORIZON > cost {
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
    /// `false` when no target admits it (the application stays where it
    /// is).
    fn migrate(&mut self, app: &str, force_to: Option<NodeId>, cost: &mut Cost) -> bool {
        let Some(placed) = self.apps.get(app).cloned() else { return false };
        let demand = AppDemand::of(&placed.graph, placed.weight);
        let order = self.ranked(&demand, Some(placed.node), force_to);
        let Ok((to, bytes)) = self.walk(&placed.graph, placed.weight, order, cost) else {
            return false;
        };
        let retire = TraceEvent::Retire { app: app.to_owned() };
        self.exchange(placed.node, retire, cost);
        self.place(&placed.graph, placed.weight, to);
        cost.migrations.push(self.migration(app, placed.node, to, bytes));
        true
    }

    /// Wrap one operation's outcome up and record it.
    fn report(
        &self,
        event: String,
        kind: &'static str,
        verdict: ClusterVerdict,
        app: Option<String>,
        started: Instant,
        cost: Cost,
    ) -> ClusterReport {
        #[cfg(feature = "debug_invariants")]
        self.check_invariants(&event);
        let r = ClusterReport {
            event,
            verdict,
            app,
            latency: started.elapsed(),
            migrations: cost.migrations,
            local_migration_bytes: cost.local_bytes,
            max_period: self.max_period(),
        };
        self.metrics.note(
            kind,
            std::iter::once((kind, &r.verdict)),
            r.latency,
            r.local_migration_bytes,
            &r.migrations,
            self.stranded.len(),
        );
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
    /// *internals* are not here — [`snapshot`](Self::snapshot) merges each
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

    /// The per-node agents (read-only).
    pub fn agents(&self) -> &[Agent] {
        &self.agents
    }

    /// The whole fleet's exposition snapshot: the coordinator's
    /// [`telemetry_snapshot`](Self::telemetry_snapshot) plus every
    /// node's serving-loop snapshot stamped with its `node="<id>"`
    /// label. The conservation tests check that the fleet totals equal
    /// the per-node sums on this merged view.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = self.telemetry_snapshot();
        for (i, agent) in self.agents.iter().enumerate() {
            s.merge(agent.service().telemetry_snapshot(), "node", &i.to_string());
        }
        s
    }
}

/// A non-accepting answer as refusal prose, the answering node named.
fn refusal(node: NodeId, outcome: &AgentOutcome) -> String {
    match outcome {
        AgentOutcome::Rejected(reason) => format!("{node}: {reason}"),
        // assignment said the app lives there but the agent disagrees —
        // surface the drift
        AgentOutcome::UnknownApp => {
            format!("{node}: assignment drift — node does not host this application")
        }
        other => format!("{node}: unexpected answer {other:?}"),
    }
}

/// `op` as its node sees it: every node is fleet index 0 of its own
/// serving loop.
fn node_local(op: &TraceEvent) -> TraceEvent {
    match op {
        TraceEvent::PeFailed { pe, .. } => TraceEvent::PeFailed { node: 0, pe: *pe },
        TraceEvent::PeRestored { pe, .. } => TraceEvent::PeRestored { node: 0, pe: *pe },
        TraceEvent::NodeFailed { .. } => TraceEvent::NodeFailed { node: 0 },
        TraceEvent::NodeRestored { .. } => TraceEvent::NodeRestored { node: 0 },
        named => named.clone(),
    }
}

impl OnlineSystem for Cluster {
    fn apply_event(&mut self, ev: &TraceEvent) -> EventOutcome {
        // an unknown application or node: the trace is data, not a
        // contract
        let (label, applied, replan, migration_bytes) = match self.process(ev) {
            Ok(r) => (
                r.event.clone(),
                r.applied(),
                r.latency,
                r.local_migration_bytes + r.network_bytes(),
            ),
            Err(_) => (ev.label(), false, Duration::ZERO, 0.0),
        };
        let period = self.max_period();
        EventOutcome { at: 0.0, label, applied, queued: false, replan, migration_bytes, period }
    }

    fn incumbents(&self) -> Vec<(&Workload, &Mapping, &CellSpec)> {
        self.agents
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
    use crate::placer::RoundRobin;
    use cellstream_daggen::{chain, CostParams};

    fn app(name: &str, n: usize, seed: u64) -> StreamGraph {
        chain(name, n, &CostParams::default(), seed)
    }

    /// Lowest node id first, whatever the load: piles every admission
    /// onto node 0 while it accepts.
    struct IdOrder;

    impl PlacePolicy for IdOrder {
        fn name(&self) -> &'static str {
            "id_order"
        }

        fn rank(&mut self, nodes: &[NodeSummary], _demand: &AppDemand) -> Vec<NodeId> {
            let mut ids: Vec<NodeId> = nodes.iter().map(|n| n.node).collect();
            ids.sort();
            ids
        }
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

    /// The coordinator's app set matches what the nodes serve, by name.
    fn served_names(fleet: &Cluster) -> BTreeSet<String> {
        let nodes = fleet.status().nodes;
        nodes.iter().flat_map(|s| s.apps.iter().map(|(n, _)| n.clone())).collect()
    }

    #[test]
    fn admitted_names_skip_the_stranded_ledger() {
        let spec = CellSpec::ps3();
        let service = ServiceOptions { max_period: Some(1e-6), ..Default::default() };
        let mut fleet =
            Cluster::homogeneous(1, &spec, ClusterOptions { service, ..Default::default() });
        assert!(fleet.admit(&app("x", 6, 2), 1.0).applied());
        for pe in spec.spes() {
            fleet.pe_failed(NodeId(0), pe).unwrap();
        }
        assert_eq!(fleet.status().stranded, vec!["x".to_owned()]);

        let late = fleet.admit(&app("x", 1, 4), 1.0);
        assert!(late.applied(), "{:?}", late.verdict);
        let late = late.app.unwrap();
        assert_ne!(late, "x", "the stranded x still owns its name");
        for pe in spec.spes() {
            fleet.pe_restored(NodeId(0), pe).unwrap();
        }
        assert!(fleet.status().stranded.is_empty(), "the restores re-admitted x");
        assert_eq!(fleet.n_apps(), 2);
        let tracked: BTreeSet<String> = ["x".to_owned(), late.clone()].into();
        assert_eq!(served_names(&fleet), tracked, "the nodes serve what the coordinator routes");

        fleet.retire("x").unwrap();
        fleet.retire(&late).unwrap();
        assert_eq!(fleet.n_apps(), 0);
        assert!(served_names(&fleet).is_empty(), "every retire reached its app");
    }

    #[test]
    fn admitted_names_skip_names_already_suffixed() {
        let mut fleet = Cluster::homogeneous(2, &CellSpec::ps3(), ClusterOptions::default());
        for (name, seed) in [("x", 1), ("x#1", 2), ("x", 3)] {
            assert!(fleet.admit(&app(name, 3, seed), 1.0).applied());
        }
        assert_eq!(fleet.n_apps(), 3);
        let tracked: BTreeSet<String> = ["x", "x#1", "x#2"].map(str::to_owned).into();
        assert_eq!(served_names(&fleet), tracked);
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
            let expect = net.transfer_time(m.bytes);
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
    fn rebalance_unpiles_a_piled_cluster() {
        let mut fleet = Cluster::homogeneous(3, &CellSpec::ps3(), opts_with(Box::new(IdOrder)));
        for i in 0..6 {
            assert!(fleet.admit(&app(&format!("a{i}"), 4, 70 + i), 1.0).applied());
        }
        let piled = fleet.max_period();
        let hosts: std::collections::BTreeSet<NodeId> =
            (0..6).map(|i| fleet.node_of(&format!("a{i}")).unwrap()).collect();
        assert_eq!(hosts.len(), 1, "id order piled every app on one node");

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
    fn process_routes_every_event_kind_and_labels_its_report() {
        let spec = CellSpec::ps3();
        let spe = spec.pe(spec.n_ppe()); // first SPE
        let mut fleet = Cluster::homogeneous(2, &spec, opts_with(Box::<RoundRobin>::default()));
        let r = fleet.process(&TraceEvent::Admit { graph: app("a", 3, 1), weight: 1.0 }).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::Admitted(_)));
        assert_eq!((r.event.as_str(), r.app.as_deref()), ("admit a w=1", Some("a")));
        let home = fleet.node_of("a").unwrap().index();
        let other = (home + 1) % 2;

        let r = fleet.process(&TraceEvent::Reweight { app: "a".into(), weight: 2.0 }).unwrap();
        assert_eq!((r.verdict, r.app), (ClusterVerdict::Applied, None));
        let r = fleet.process(&TraceEvent::PeFailed { node: home, pe: spe }).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::Recovered { .. }), "{:?}", r.verdict);
        assert_eq!(
            r.event,
            format!("fail n{home} {spe}"),
            "the fleet-level label, not the node-local one"
        );
        let r = fleet.process(&TraceEvent::PeRestored { node: home, pe: spe }).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::NodeReturned { .. }), "{:?}", r.verdict);
        let r = fleet.process(&TraceEvent::CostDrift { app: "a".into(), factor: 1.25 }).unwrap();
        assert!(r.applied(), "{:?}", r.verdict);
        let r = fleet.process(&TraceEvent::NodeFailed { node: other }).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::NodeLost { rehomed: 0, stranded: 0 }));
        let r = fleet.process(&TraceEvent::NodeRestored { node: other }).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::NodeReturned { readmitted: 0 }));
        assert!(matches!(
            fleet.process(&TraceEvent::NodeFailed { node: 9 }),
            Err(ClusterError::UnknownNode(_))
        ));
        assert!(matches!(
            fleet.process(&TraceEvent::CostDrift { app: "ghost".into(), factor: 2.0 }),
            Err(ClusterError::UnknownApp(_))
        ));

        // the fleet-only operations stay plain methods
        assert!(matches!(fleet.rebalance().verdict, ClusterVerdict::Rebalanced { .. }));
        let r = fleet.drain(fleet.node_of("a").unwrap()).unwrap();
        assert!(matches!(r.verdict, ClusterVerdict::Drained { .. }));
        let r = fleet.process(&TraceEvent::Retire { app: "a".into() }).unwrap();
        assert_eq!(r.verdict, ClusterVerdict::Applied);
        assert_eq!(fleet.n_apps(), 0);
        assert!(fleet.max_period().is_infinite(), "empty fleet is idle");
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
