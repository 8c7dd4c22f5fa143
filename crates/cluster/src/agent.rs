//! The per-node agent: one `Service` incumbent the coordinator calls.
//!
//! An agent is deliberately thin — all scheduling intelligence stays in
//! the serving loop it wraps. Its one mutating call,
//! [`apply`](Agent::apply), resolves the group of [`TraceEvent`]s the
//! coordinator cut into one `Service::process_batch` call and
//! translates the verdicts back into [`AgentOutcome`]s. Its
//! [`summary`](Agent::summary) is the node's capacity as the
//! coordinator's placer scores it.

use cellstream_core::evaluate;
use cellstream_core::steady::buffers::BufferPlan;
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_platform::CellSpec;
use cellstream_serve::{Event, Service, ServiceOptions, Verdict};
use cellstream_sim::online::TraceEvent;
use std::fmt;

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

/// What an agent did with one operation.
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
    /// A fault was absorbed but the node had to shed applications to
    /// stay feasible: their drift-corrected source graphs and weights,
    /// in shed order. The coordinator owns their re-placement — a shed
    /// application no longer lives on this node.
    Recovered {
        /// `(source graph, weight)` of each shed application.
        shed: Vec<(StreamGraph, f64)>,
    },
}

/// One node's capacity summary: everything the inter-node placer scores
/// on. The coordinator refreshes its copy after every call to the node.
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

/// One node's control loop: a local [`Service`] the coordinator calls.
pub struct Agent {
    node: NodeId,
    service: Service,
    /// Kept so a [`TraceEvent::NodeFailed`] crash-wipe can rebuild the
    /// serving loop from scratch.
    spec: CellSpec,
    opts: ServiceOptions,
}

/// A serving-loop verdict as an agent outcome. Queueing is disabled in
/// [`Agent::new`] and nothing a request triggers ends
/// `Adopted`/`NoChange` — any such drift is a refusal rather than a
/// crash.
fn outcome_of(verdict: &Verdict) -> AgentOutcome {
    match verdict {
        Verdict::Admitted(_) => AgentOutcome::Admitted,
        Verdict::Applied => AgentOutcome::Applied,
        Verdict::Rejected(r) => AgentOutcome::Rejected(r.to_string()),
        other => AgentOutcome::Rejected(format!("unexpected verdict {other:?}")),
    }
}

impl Agent {
    /// An agent for `node` running a fresh serving loop on `spec`.
    ///
    /// The coordinator owns retry policy fleet-wide, so the local wait
    /// queue is forced off: a cluster agent must answer every admission
    /// definitively or the placer cannot move on to the next node (and
    /// fault-shed applications surface in [`AgentOutcome::Recovered`]
    /// instead of parking locally).
    pub fn new(node: NodeId, spec: CellSpec, opts: ServiceOptions) -> Agent {
        let opts = ServiceOptions { queue_rejected: false, ..opts };
        Agent { node, service: Service::with_options(spec.clone(), opts.clone()), spec, opts }
    }

    /// This agent's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The wrapped serving loop (read-only; mutate via
    /// [`apply`](Self::apply)).
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// One group the coordinator cut, in one call: one outcome per op
    /// in request order, and `local_bytes`, the EIB traffic of the
    /// node's replan (tasks the repair planner shuffled *within* the
    /// node).
    ///
    /// A group is one op — a fault, or either leg of a cross-node move
    /// — or a run of requests with distinct names and no fault. Each op
    /// resolves by name against the serving loop (the node is fleet
    /// index 0 of its own loop, whatever index the fleet gave it), and
    /// the resolved ones replan once through `Service::process_batch`.
    /// An op naming no resident application is
    /// [`AgentOutcome::UnknownApp`]. An absorbed fault that displaced
    /// anyone answers [`AgentOutcome::Recovered`] with the shed
    /// applications. [`TraceEvent::NodeFailed`] is the in-process
    /// stand-in for process death: the serving state is wiped,
    /// resident applications and their buffer state are *lost*, not
    /// migrated; [`TraceEvent::NodeRestored`] is then a no-op — the
    /// node rejoins empty and cold.
    pub fn apply(&mut self, ops: &[&TraceEvent]) -> (Vec<AgentOutcome>, f64) {
        debug_assert!(
            ops.len() == 1
                || ops.iter().enumerate().all(|(i, op)| {
                    let repeated = |app| ops[..i].iter().any(|o| o.app() == Some(app));
                    !op.is_fault() && !op.app().is_some_and(repeated)
                }),
            "a group is one op or a run of requests with distinct names"
        );
        match ops {
            [TraceEvent::NodeFailed { .. }] => {
                self.service = Service::with_options(self.spec.clone(), self.opts.clone());
                return (vec![AgentOutcome::Applied], 0.0);
            }
            [TraceEvent::NodeRestored { .. }] => return (vec![AgentOutcome::Applied], 0.0),
            _ => {}
        }
        let mut outcomes = vec![AgentOutcome::UnknownApp; ops.len()];
        let (mut slots, mut events) = (Vec::new(), Vec::with_capacity(ops.len()));
        for (i, op) in ops.iter().enumerate() {
            let event = match **op {
                TraceEvent::PeFailed { pe, .. } => Some(Event::PeFailed(pe)),
                TraceEvent::PeRestored { pe, .. } => Some(Event::PeRestored(pe)),
                _ => self.service.resolve(op),
            };
            if let Some(event) = event {
                slots.push(i);
                events.push(event);
            }
        }
        if events.is_empty() {
            return (outcomes, 0.0);
        }
        let report = match self.service.process_batch(&events) {
            Ok(report) => report,
            // a PE the node cannot fail; handles were just resolved
            Err(e) => {
                for &i in &slots {
                    outcomes[i] = AgentOutcome::Rejected(e.to_string());
                }
                return (outcomes, 0.0);
            }
        };
        let shed = self.service.take_shed();
        if !shed.is_empty() {
            // only a fault sheds, and a fault travels alone
            return (vec![AgentOutcome::Recovered { shed }], report.migration_bytes());
        }
        for (&i, (_, verdict)) in slots.iter().zip(&report.events) {
            outcomes[i] = outcome_of(verdict);
        }
        (outcomes, report.migration_bytes())
    }

    /// Buffer working set (bytes) of one resident application on the
    /// current composed graph — the state a cross-node migration of it
    /// would push over the network. 0 for unknown applications.
    pub(crate) fn working_set(&self, app: &str) -> f64 {
        let Some(w) = self.service.workload() else { return 0.0 };
        let Some(a) = w.app_id(app) else { return 0.0 };
        let g = w.graph();
        let tasks: Vec<TaskId> = w.app(a).tasks.clone().map(TaskId).collect();
        BufferPlan::new(g).for_tasks_dedup(g, &tasks)
    }

    /// A fresh capacity summary of this node.
    pub fn summary(&self) -> NodeSummary {
        let spec = self.service.spec();
        let mut s = NodeSummary::idle(self.node, spec);
        let (Some(w), Some(m)) = (self.service.workload(), self.service.mapping()) else {
            return s;
        };
        let g = w.graph();
        // check:allow(hot-path-panic): the incumbent mapping is structurally valid
        let report = evaluate(g, spec, m).expect("incumbent mapping is structurally valid");
        s.n_apps = w.n_apps();
        s.n_tasks = g.n_tasks();
        s.period = self.service.period();
        s.spe_load = spec.spes().map(|pe| report.compute_load[pe.index()]).sum::<f64>()
            / spec.n_spe().max(1) as f64;
        s.ppe_load = spec.ppes().map(|pe| report.compute_load[pe.index()]).sum();
        s.store_used = spec.spes().map(|pe| report.memory_bytes[pe.index()]).sum();
        s.min_weight = w.apps().iter().map(|a| a.weight).fold(f64::INFINITY, f64::min);
        s.apps = w.apps().iter().map(|a| (a.name.clone(), a.weight)).collect();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_daggen::{chain, CostParams};
    use cellstream_platform::PeId;

    fn agent() -> Agent {
        Agent::new(NodeId(3), CellSpec::ps3(), ServiceOptions::default())
    }

    /// A three-task chain admitted at weight 1.
    fn admit(name: &str, seed: u64) -> TraceEvent {
        let graph = chain(name, 3, &CostParams::default(), seed);
        TraceEvent::Admit { graph, weight: 1.0 }
    }

    /// One op through [`Agent::apply`]: its outcome.
    fn apply_one(a: &mut Agent, op: TraceEvent) -> AgentOutcome {
        let (mut outcomes, _) = a.apply(&[&op]);
        assert_eq!(outcomes.len(), 1, "one outcome per op");
        outcomes.remove(0)
    }

    #[test]
    fn admit_retire_round_trip_updates_the_summary() {
        let mut a = agent();
        let idle = a.summary();
        assert_eq!(idle.n_apps, 0);
        assert!(idle.period.is_infinite());

        let g = chain("app", 4, &CostParams::default(), 11);
        let outcome = apply_one(&mut a, TraceEvent::Admit { graph: g, weight: 2.0 });
        assert_eq!(outcome, AgentOutcome::Admitted);
        let admitted = a.summary();
        assert_eq!(admitted.node, NodeId(3));
        assert_eq!(admitted.n_apps, 1);
        assert_eq!(admitted.apps, vec![("app".to_owned(), 2.0)]);
        assert!(admitted.period.is_finite());
        assert_eq!(admitted.min_weight, 2.0);
        assert!(a.working_set("app") > 0.0, "a chain has buffers to move");

        let outcome = apply_one(&mut a, TraceEvent::Retire { app: "app".to_owned() });
        assert_eq!(outcome, AgentOutcome::Applied);
        assert_eq!(a.working_set("app"), 0.0, "a retired app has nothing to move");
        let gone = a.summary();
        assert_eq!(gone.n_apps, 0);
        assert!(gone.period.is_infinite());

        let ghost = apply_one(&mut a, TraceEvent::Retire { app: "app".to_owned() });
        assert_eq!(ghost, AgentOutcome::UnknownApp);
    }

    #[test]
    fn reweight_routes_by_name_and_rejects_nonsense() {
        let mut a = agent();
        apply_one(&mut a, admit("app", 5));
        let ok = apply_one(&mut a, TraceEvent::Reweight { app: "app".to_owned(), weight: 2.5 });
        assert_eq!(ok, AgentOutcome::Applied);
        assert_eq!(a.summary().apps[0].1, 2.5);

        let bad = apply_one(&mut a, TraceEvent::Reweight { app: "app".to_owned(), weight: -1.0 });
        assert!(matches!(bad, AgentOutcome::Rejected(_)));
        assert_eq!(a.summary().apps[0].1, 2.5, "refused reweight rolls back");

        let ghost =
            apply_one(&mut a, TraceEvent::Reweight { app: "ghost".to_owned(), weight: 1.0 });
        assert_eq!(ghost, AgentOutcome::UnknownApp);
    }

    #[test]
    fn a_run_fuses_ops_and_reports_outcomes_in_request_order() {
        let mut a = agent();
        apply_one(&mut a, admit("x", 1));
        apply_one(&mut a, admit("y", 2));

        let run = [
            TraceEvent::Reweight { app: "x".to_owned(), weight: 2.0 },
            TraceEvent::Retire { app: "ghost".to_owned() },
            TraceEvent::Admit { graph: chain("z", 3, &CostParams::default(), 3), weight: 1.5 },
            TraceEvent::Admit { graph: chain("bad", 3, &CostParams::default(), 5), weight: 0.0 },
            TraceEvent::Retire { app: "y".to_owned() },
        ];
        let (outcomes, _) = a.apply(&run.iter().collect::<Vec<_>>());
        assert!(matches!(outcomes[3], AgentOutcome::Rejected(_)), "a bad weight is refused per op");
        assert_eq!(
            [&outcomes[..3], &outcomes[4..]].concat(),
            vec![
                AgentOutcome::Applied,
                AgentOutcome::UnknownApp,
                AgentOutcome::Admitted,
                AgentOutcome::Applied,
            ],
            "one outcome per op, in request order"
        );
        let summary = a.summary();
        assert_eq!(summary.n_apps, 2, "x reweighted, y retired, z admitted");
        let names: Vec<&str> = summary.apps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["x", "z"]);
        assert_eq!(summary.apps[0].1, 2.0, "the reweight landed");
        assert_eq!(a.service().metrics().batches_total.get(), 3, "one replan for the run");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a group is one op or a run of requests with distinct names")]
    fn a_fault_inside_a_run_is_a_cut_bug() {
        let run = [admit("x", 1), TraceEvent::PeFailed { node: 0, pe: PeId(2) }];
        agent().apply(&run.iter().collect::<Vec<_>>());
    }

    #[test]
    fn faults_address_the_agents_own_node() {
        let mut a = agent();
        apply_one(&mut a, admit("x", 1));
        // the fleet numbers this node 3; its own serving loop calls it 0
        let fail = apply_one(&mut a, TraceEvent::PeFailed { node: 3, pe: PeId(2) });
        assert_eq!(fail, AgentOutcome::Applied);
        assert!(a.service().availability().is_dead(PeId(2)));
        let ppe = apply_one(&mut a, TraceEvent::PeFailed { node: 3, pe: PeId(0) });
        assert!(matches!(ppe, AgentOutcome::Rejected(_)), "a dead PPE is a dead node: {ppe:?}");
        let restore = apply_one(&mut a, TraceEvent::PeRestored { node: 3, pe: PeId(2) });
        assert_eq!(restore, AgentOutcome::Applied);
        assert!(a.service().availability().all_healthy());

        assert_eq!(apply_one(&mut a, TraceEvent::NodeFailed { node: 3 }), AgentOutcome::Applied);
        assert_eq!(a.summary().n_apps, 0, "the crash wiped the node");
        assert_eq!(apply_one(&mut a, TraceEvent::NodeRestored { node: 3 }), AgentOutcome::Applied);
    }
}
