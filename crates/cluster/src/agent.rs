//! The per-node agent: one `Service` incumbent behind the message
//! protocol.
//!
//! An agent is deliberately thin — all scheduling intelligence stays in
//! the serving loop it wraps. Its job is to resolve the [`TraceEvent`]s
//! a [`ClusterMsg`] carries into `Service` calls, translate the
//! verdicts back into [`AgentOutcome`]s, and stamp every reply with a fresh
//! [`NodeSummary`] so the coordinator's capacity view tracks reality.

use crate::msg::{AgentMsg, AgentOutcome, ClusterMsg, NodeId, NodeSummary};
use cellstream_core::evaluate;
use cellstream_core::steady::buffers::BufferPlan;
use cellstream_graph::TaskId;
use cellstream_platform::CellSpec;
use cellstream_serve::{Service, ServiceOptions, Verdict};
use cellstream_sim::online::TraceEvent;
use std::collections::VecDeque;
use std::time::Duration;

/// One node's control loop: a local [`Service`] plus the protocol glue.
pub struct Agent {
    node: NodeId,
    service: Service,
    /// Kept so a [`TraceEvent::NodeFailed`] crash-wipe can rebuild the
    /// serving loop from scratch.
    spec: CellSpec,
    opts: ServiceOptions,
}

/// A serving-loop verdict in protocol terms. Queueing is disabled in
/// [`Agent::new`] and nothing a request triggers ends
/// `Adopted`/`NoChange` — any such protocol drift is a refusal rather
/// than a crash.
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

    /// The wrapped serving loop (read-only; mutate via [`handle`](Self::handle)).
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Handle one coordinator request.
    pub fn handle(&mut self, msg: ClusterMsg) -> AgentMsg {
        match msg {
            // the crash stand-in: resident applications and their buffer
            // state are lost with the process — rebuild an empty serving
            // loop so the restored node rejoins cold
            ClusterMsg::Op(TraceEvent::NodeFailed { .. }) => {
                self.service = Service::with_options(self.spec.clone(), self.opts.clone());
                self.reply(AgentOutcome::Applied, Duration::ZERO, 0.0, 0.0)
            }
            // state was already wiped at failure; rejoining is a no-op
            // beyond handing the coordinator a fresh (idle) summary
            ClusterMsg::Op(TraceEvent::NodeRestored { .. }) => {
                self.reply(AgentOutcome::Applied, Duration::ZERO, 0.0, 0.0)
            }
            ClusterMsg::Op(op) => self.apply(op),
            ClusterMsg::Batch { ops } => self.handle_batch(ops),
            ClusterMsg::Status => self.reply(AgentOutcome::Status, Duration::ZERO, 0.0, 0.0),
        }
    }

    /// One name-addressed operation through the serving loop, which
    /// serves fleet index 0. An absorbed fault that displaced anyone
    /// replies [`AgentOutcome::Recovered`] carrying the shed
    /// applications. The reply sizes the working set of the application
    /// the operation named: before a retire (it is what the departing
    /// state transfer would cost), after anything else.
    fn apply(&mut self, ev: TraceEvent) -> AgentMsg {
        let app = ev.app().map(str::to_owned);
        let retiring = matches!(ev, TraceEvent::Retire { .. });
        let leaving = app.as_deref().filter(|_| retiring).map(|app| self.working_set(app));
        let Some(event) = self.service.resolve(ev) else {
            return self.reply(AgentOutcome::UnknownApp, Duration::ZERO, 0.0, 0.0);
        };
        let report = match self.service.process(event) {
            Ok(report) => report,
            Err(e) => {
                return self.reply(AgentOutcome::Rejected(e.to_string()), Duration::ZERO, 0.0, 0.0)
            }
        };
        let shed = self.service.take_shed();
        let outcome = match shed.is_empty() {
            true => outcome_of(&report.verdict),
            false => AgentOutcome::Recovered { shed },
        };
        let ws = leaving.unwrap_or_else(|| app.map_or(0.0, |app| self.working_set(&app)));
        self.reply(outcome, report.replan, report.migration_bytes(), ws)
    }

    /// Apply a coordinator burst through `Service::process_batch`: one
    /// composed replan per run [`Service::resolve_run`] cuts — a
    /// repeated name ends a run, so in-order semantics hold across the
    /// cut. Unresolved retires/reweights get [`AgentOutcome::UnknownApp`]
    /// without poisoning the rest of the burst; a fault is refused in
    /// place (faults travel as their own messages, never batched).
    fn handle_batch(&mut self, ops: Vec<TraceEvent>) -> AgentMsg {
        let mut outcomes = Vec::with_capacity(ops.len());
        let (mut replan, mut local_bytes) = (Duration::ZERO, 0.0);
        let mut pending = VecDeque::from(ops);
        let mut events = Vec::new();
        while let Some(front) = pending.front() {
            if front.is_fault() {
                let refusal = format!("{} arrived inside a batch", front.label());
                outcomes.push(AgentOutcome::Rejected(refusal));
                pending.pop_front();
                continue;
            }
            let known = self.service.resolve_run(&mut pending, usize::MAX, &mut events);
            let mut verdicts = Vec::new();
            if !events.is_empty() {
                verdicts = match self.service.process_batch(&events) {
                    Ok(report) => {
                        replan += report.replan;
                        local_bytes += report.migration_bytes();
                        report.events.iter().map(|(_, verdict)| outcome_of(verdict)).collect()
                    }
                    // unreachable by construction — handles were just
                    // resolved and names within a run are distinct — but
                    // refuse rather than crash should validation ever fail
                    Err(e) => {
                        vec![AgentOutcome::Rejected(format!("batch refused: {e}")); events.len()]
                    }
                };
            }
            let mut verdicts = verdicts.into_iter();
            outcomes.extend(known.into_iter().map(|resolved| match resolved {
                true => verdicts.next().unwrap_or_else(|| {
                    AgentOutcome::Rejected("the batch reported no verdict".to_owned())
                }),
                false => AgentOutcome::UnknownApp,
            }));
        }
        self.reply(AgentOutcome::Batch(outcomes), replan, local_bytes, 0.0)
    }

    /// Buffer working set (bytes) of one resident application on the
    /// current composed graph — the state a cross-node migration of it
    /// would push over the network. 0 for unknown applications.
    pub fn working_set(&self, app: &str) -> f64 {
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

    fn reply(
        &self,
        outcome: AgentOutcome,
        replan: Duration,
        local_migration_bytes: f64,
        working_set_bytes: f64,
    ) -> AgentMsg {
        AgentMsg {
            node: self.node,
            outcome,
            replan,
            local_migration_bytes,
            working_set_bytes,
            summary: self.summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_daggen::{chain, CostParams};

    fn agent() -> Agent {
        Agent::new(NodeId(3), CellSpec::ps3(), ServiceOptions::default())
    }

    /// A three-task chain admitted at weight 1.
    fn admit(name: &str, seed: u64) -> ClusterMsg {
        let graph = chain(name, 3, &CostParams::default(), seed);
        ClusterMsg::Op(TraceEvent::Admit { graph, weight: 1.0 })
    }

    #[test]
    fn admit_retire_round_trip_updates_the_summary() {
        let mut a = agent();
        let idle = a.handle(ClusterMsg::Status);
        assert_eq!(idle.outcome, AgentOutcome::Status);
        assert_eq!(idle.summary.n_apps, 0);
        assert!(idle.summary.period.is_infinite());

        let g = chain("app", 4, &CostParams::default(), 11);
        let admitted = a.handle(ClusterMsg::Op(TraceEvent::Admit { graph: g, weight: 2.0 }));
        assert_eq!(admitted.outcome, AgentOutcome::Admitted);
        assert_eq!(admitted.node, NodeId(3));
        assert_eq!(admitted.summary.n_apps, 1);
        assert_eq!(admitted.summary.apps, vec![("app".to_owned(), 2.0)]);
        assert!(admitted.summary.period.is_finite());
        assert_eq!(admitted.summary.min_weight, 2.0);
        assert!(admitted.working_set_bytes > 0.0, "a chain has buffers to move");

        let gone = a.handle(ClusterMsg::Op(TraceEvent::Retire { app: "app".to_owned() }));
        assert_eq!(gone.outcome, AgentOutcome::Applied);
        assert!(gone.working_set_bytes > 0.0, "sized before the retire");
        assert_eq!(gone.summary.n_apps, 0);
        assert!(gone.summary.period.is_infinite());

        let ghost = a.handle(ClusterMsg::Op(TraceEvent::Retire { app: "app".to_owned() }));
        assert_eq!(ghost.outcome, AgentOutcome::UnknownApp);
    }

    #[test]
    fn reweight_routes_by_name_and_rejects_nonsense() {
        let mut a = agent();
        a.handle(admit("app", 5));
        let ok =
            a.handle(ClusterMsg::Op(TraceEvent::Reweight { app: "app".to_owned(), weight: 2.5 }));
        assert_eq!(ok.outcome, AgentOutcome::Applied);
        assert_eq!(ok.summary.apps[0].1, 2.5);

        let bad =
            a.handle(ClusterMsg::Op(TraceEvent::Reweight { app: "app".to_owned(), weight: -1.0 }));
        assert!(matches!(bad.outcome, AgentOutcome::Rejected(_)));
        assert_eq!(bad.summary.apps[0].1, 2.5, "refused reweight rolls back");

        let ghost =
            a.handle(ClusterMsg::Op(TraceEvent::Reweight { app: "ghost".to_owned(), weight: 1.0 }));
        assert_eq!(ghost.outcome, AgentOutcome::UnknownApp);
    }

    #[test]
    fn batch_fuses_ops_and_reports_outcomes_in_request_order() {
        let mut a = agent();
        a.handle(admit("x", 1));
        a.handle(admit("y", 2));

        let reply = a.handle(ClusterMsg::Batch {
            ops: vec![
                TraceEvent::Reweight { app: "x".to_owned(), weight: 2.0 },
                TraceEvent::Retire { app: "ghost".to_owned() },
                TraceEvent::Admit { graph: chain("z", 3, &CostParams::default(), 3), weight: 1.5 },
                TraceEvent::Retire { app: "y".to_owned() },
            ],
        });
        assert_eq!(
            reply.outcome,
            AgentOutcome::Batch(vec![
                AgentOutcome::Applied,
                AgentOutcome::UnknownApp,
                AgentOutcome::Admitted,
                AgentOutcome::Applied,
            ]),
            "one outcome per op, in request order"
        );
        assert_eq!(reply.summary.n_apps, 2, "x reweighted, y retired, z admitted");
        let names: Vec<&str> = reply.summary.apps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["x", "z"]);
        assert_eq!(reply.summary.apps[0].1, 2.0, "the reweight landed");
    }

    #[test]
    fn a_fault_inside_a_batch_is_refused_and_changes_nothing() {
        let mut a = agent();
        a.handle(admit("x", 1));
        let reply = a.handle(ClusterMsg::Batch {
            ops: vec![
                TraceEvent::PeFailed { node: 0, pe: cellstream_platform::PeId(2) },
                TraceEvent::Reweight { app: "x".to_owned(), weight: 2.0 },
                TraceEvent::CostDrift { app: "x".to_owned(), factor: 3.0 },
                TraceEvent::NodeFailed { node: 0 },
            ],
        });
        let AgentOutcome::Batch(outs) = reply.outcome else { panic!("batch reply") };
        assert!(matches!(outs[0], AgentOutcome::Rejected(_)), "{:?}", outs[0]);
        assert_eq!(outs[1], AgentOutcome::Applied, "the churn around the faults still lands");
        assert!(matches!(outs[2], AgentOutcome::Rejected(_)), "{:?}", outs[2]);
        assert!(matches!(outs[3], AgentOutcome::Rejected(_)), "{:?}", outs[3]);
        assert!(a.service().availability().all_healthy(), "no PE was failed");
        assert_eq!(reply.summary.apps, vec![("x".to_owned(), 2.0)], "x stays, reweighted");
    }

    #[test]
    fn batch_cuts_at_repeated_names_so_dependent_ops_still_apply() {
        let mut a = agent();
        // admit then retire the same name in one burst: the second op
        // cannot resolve until the first commits, so the agent splits
        // the run and both land
        let reply = a.handle(ClusterMsg::Batch {
            ops: vec![
                TraceEvent::Admit { graph: chain("w", 3, &CostParams::default(), 9), weight: 1.0 },
                TraceEvent::Retire { app: "w".to_owned() },
            ],
        });
        assert_eq!(
            reply.outcome,
            AgentOutcome::Batch(vec![AgentOutcome::Admitted, AgentOutcome::Applied])
        );
        assert_eq!(reply.summary.n_apps, 0, "the burst admitted and retired the same app");

        // an invalid weight inside a batch is refused per-op, not per-burst
        let reply = a.handle(ClusterMsg::Batch {
            ops: vec![
                TraceEvent::Admit { graph: chain("ok", 3, &CostParams::default(), 4), weight: 1.0 },
                TraceEvent::Admit {
                    graph: chain("bad", 3, &CostParams::default(), 5),
                    weight: 0.0,
                },
            ],
        });
        let AgentOutcome::Batch(outs) = reply.outcome else { panic!("batch reply") };
        assert_eq!(outs[0], AgentOutcome::Admitted);
        assert!(matches!(outs[1], AgentOutcome::Rejected(_)));
        assert_eq!(reply.summary.n_apps, 1);
    }
}
