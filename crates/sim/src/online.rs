//! The online half of the simulator: timestamped event traces and the
//! replay driver that measures a serving system under churn.
//!
//! The paper's evaluation maps one application and streams it forever;
//! the serving scenario (a Cell blade shared by media pipelines) sees
//! applications **arrive, change rate, and depart**. An [`EventTrace`]
//! captures such a run as timestamped [`TraceEvent`]s; [`replay`] feeds
//! them to any [`OnlineSystem`] (the `cellstream-serve::Service`
//! implements it) and, between events, simulates the system's current
//! workload + mapping to attribute delivered throughput per application.
//!
//! Measured per run:
//!
//! * per-application **delivered instances** (simulated steady-state
//!   throughput of the incumbent mapping × residency interval, in
//!   application-instance terms);
//! * per-event **replan latency** and **migration bytes** (what the
//!   serving layer reports);
//! * **rejected / queued admissions**.
//!
//! Events name applications by their graph name (stable across workload
//! recompositions), not by positional app id — a trace is data and must
//! survive the id shifts that retirements cause.

use crate::engine::{simulate, SimConfig};
use cellstream_core::Mapping;
use cellstream_graph::{StreamGraph, Workload};
use cellstream_platform::{CellSpec, PeId};
use std::time::Duration;

/// One workload-churn event, application named by graph name.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// An application arrives, asking for the given throughput weight.
    Admit {
        /// The application's graph (its name identifies it from now on).
        graph: StreamGraph,
        /// Relative throughput target (instances per composed round).
        weight: f64,
    },
    /// The named application departs.
    Retire {
        /// Application (graph) name.
        app: String,
    },
    /// The named application changes its throughput weight.
    Reweight {
        /// Application (graph) name.
        app: String,
        /// New weight.
        weight: f64,
    },
    /// A processing element fails (dies or is fenced off). `node` is the
    /// fleet index of the machine hosting it — single-node systems serve
    /// node 0 and ignore events addressed elsewhere.
    PeFailed {
        /// Fleet index of the affected node.
        node: usize,
        /// The failed PE on that node's platform.
        pe: PeId,
    },
    /// A previously failed processing element returns to service.
    PeRestored {
        /// Fleet index of the affected node.
        node: usize,
        /// The restored PE.
        pe: PeId,
    },
    /// The named application's declared compute costs turn out to be
    /// misestimated: multiply them by `factor` (>1 = heavier than
    /// declared). Traffic and buffer sizes are untouched — misestimated
    /// compute does not move bytes.
    CostDrift {
        /// Application (graph) name.
        app: String,
        /// Multiplicative cost correction.
        factor: f64,
    },
    /// A whole machine drops out of the fleet (power loss, network
    /// partition). Meaningless for single-node systems.
    NodeFailed {
        /// Fleet index of the lost node.
        node: usize,
    },
    /// A failed machine rejoins the fleet, empty and cold.
    NodeRestored {
        /// Fleet index of the returning node.
        node: usize,
    },
}

impl TraceEvent {
    /// Compact human label (`"admit audio"`, `"retire video"`, ...).
    pub fn label(&self) -> String {
        match self {
            TraceEvent::Admit { graph, weight } => format!("admit {} w={weight}", graph.name()),
            TraceEvent::Retire { app } => format!("retire {app}"),
            TraceEvent::Reweight { app, weight } => format!("reweight {app} w={weight}"),
            TraceEvent::PeFailed { node, pe } => format!("fail n{node} {pe}"),
            TraceEvent::PeRestored { node, pe } => format!("restore n{node} {pe}"),
            TraceEvent::CostDrift { app, factor } => format!("drift {app} x{factor}"),
            TraceEvent::NodeFailed { node } => format!("node-fail n{node}"),
            TraceEvent::NodeRestored { node } => format!("node-restore n{node}"),
        }
    }

    /// The event's static kind — the label's first word, as telemetry
    /// keys on it.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Admit { .. } => "admit",
            TraceEvent::Retire { .. } => "retire",
            TraceEvent::Reweight { .. } => "reweight",
            TraceEvent::PeFailed { .. } => "fail",
            TraceEvent::PeRestored { .. } => "restore",
            TraceEvent::CostDrift { .. } => "drift",
            TraceEvent::NodeFailed { .. } => "node-fail",
            TraceEvent::NodeRestored { .. } => "node-restore",
        }
    }

    /// The application the event names, if it names one.
    pub fn app(&self) -> Option<&str> {
        match self {
            TraceEvent::Admit { graph, .. } => Some(graph.name()),
            TraceEvent::Retire { app }
            | TraceEvent::Reweight { app, .. }
            | TraceEvent::CostDrift { app, .. } => Some(app),
            _ => None,
        }
    }

    /// `true` for the impairment variants (PE/node failures, restores,
    /// cost drift) — the events a scenario's impairment schedule injects,
    /// as opposed to workload churn.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            TraceEvent::PeFailed { .. }
                | TraceEvent::PeRestored { .. }
                | TraceEvent::CostDrift { .. }
                | TraceEvent::NodeFailed { .. }
                | TraceEvent::NodeRestored { .. }
        )
    }
}

/// A timestamped [`TraceEvent`].
#[derive(Debug, Clone)]
pub struct TimedEvent {
    /// Seconds since the start of the trace.
    pub at: f64,
    /// The event.
    pub event: TraceEvent,
}

/// A replayable arrival/departure trace: events sorted by timestamp plus
/// a measurement horizon.
#[derive(Debug, Clone, Default)]
pub struct EventTrace {
    events: Vec<TimedEvent>,
    /// End of the measured run (seconds). Intervals past the last event
    /// up to the horizon still count toward delivered throughput.
    pub horizon: f64,
}

impl EventTrace {
    /// An empty trace with the given horizon.
    pub fn new(horizon: f64) -> Self {
        assert!(horizon.is_finite() && horizon >= 0.0, "horizon must be finite, got {horizon}");
        EventTrace { events: Vec::new(), horizon }
    }

    /// Append an event (kept sorted by timestamp; ties keep insertion
    /// order). Builder-style.
    pub fn at(mut self, t: f64, event: TraceEvent) -> Self {
        self.push(t, event);
        self
    }

    /// Append an event, keeping the trace sorted by timestamp.
    pub fn push(&mut self, t: f64, event: TraceEvent) {
        assert!(t.is_finite() && t >= 0.0, "event timestamps must be finite, got {t}");
        let idx = self.events.partition_point(|e| e.at <= t);
        self.events.insert(idx, TimedEvent { at: t, event });
    }

    /// The events, sorted by timestamp.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

// Traces are data: benches persist them under `bench/traces/` so the
// online and cluster drivers replay the identical churn. Events render
// as tagged objects ({"type": "admit", ...}); the unit-enum macro cannot
// express payload-carrying variants, so the impls are spelled out.
impl serde::Serialize for TraceEvent {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let obj = |pairs: Vec<(&str, Value)>| {
            Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        match self {
            TraceEvent::Admit { graph, weight } => obj(vec![
                ("type", Value::Str("admit".into())),
                ("graph", graph.to_value()),
                ("weight", Value::Num(*weight)),
            ]),
            TraceEvent::Retire { app } => {
                obj(vec![("type", Value::Str("retire".into())), ("app", Value::Str(app.clone()))])
            }
            TraceEvent::Reweight { app, weight } => obj(vec![
                ("type", Value::Str("reweight".into())),
                ("app", Value::Str(app.clone())),
                ("weight", Value::Num(*weight)),
            ]),
            TraceEvent::PeFailed { node, pe } => obj(vec![
                ("type", Value::Str("pe_failed".into())),
                ("node", Value::Num(*node as f64)),
                ("pe", pe.to_value()),
            ]),
            TraceEvent::PeRestored { node, pe } => obj(vec![
                ("type", Value::Str("pe_restored".into())),
                ("node", Value::Num(*node as f64)),
                ("pe", pe.to_value()),
            ]),
            TraceEvent::CostDrift { app, factor } => obj(vec![
                ("type", Value::Str("cost_drift".into())),
                ("app", Value::Str(app.clone())),
                ("factor", Value::Num(*factor)),
            ]),
            TraceEvent::NodeFailed { node } => obj(vec![
                ("type", Value::Str("node_failed".into())),
                ("node", Value::Num(*node as f64)),
            ]),
            TraceEvent::NodeRestored { node } => obj(vec![
                ("type", Value::Str("node_restored".into())),
                ("node", Value::Num(*node as f64)),
            ]),
        }
    }
}

impl serde::Deserialize for TraceEvent {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.field("type")?.as_str()? {
            "admit" => Ok(TraceEvent::Admit {
                graph: StreamGraph::from_value(v.field("graph")?)?,
                weight: v.field("weight")?.as_f64()?,
            }),
            "retire" => Ok(TraceEvent::Retire { app: v.field("app")?.as_str()?.to_owned() }),
            "reweight" => Ok(TraceEvent::Reweight {
                app: v.field("app")?.as_str()?.to_owned(),
                weight: v.field("weight")?.as_f64()?,
            }),
            "pe_failed" => Ok(TraceEvent::PeFailed {
                node: v.field("node")?.as_u64()? as usize,
                pe: PeId::from_value(v.field("pe")?)?,
            }),
            "pe_restored" => Ok(TraceEvent::PeRestored {
                node: v.field("node")?.as_u64()? as usize,
                pe: PeId::from_value(v.field("pe")?)?,
            }),
            "cost_drift" => Ok(TraceEvent::CostDrift {
                app: v.field("app")?.as_str()?.to_owned(),
                factor: v.field("factor")?.as_f64()?,
            }),
            "node_failed" => {
                Ok(TraceEvent::NodeFailed { node: v.field("node")?.as_u64()? as usize })
            }
            "node_restored" => {
                Ok(TraceEvent::NodeRestored { node: v.field("node")?.as_u64()? as usize })
            }
            other => Err(serde::Error::new(format!("unknown TraceEvent type `{other}`"))),
        }
    }
}

serde::impl_json_struct!(TimedEvent { at, event });

impl serde::Serialize for EventTrace {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("horizon".to_owned(), serde::Value::Num(self.horizon)),
            ("events".to_owned(), self.events.to_value()),
        ])
    }
}

impl serde::Deserialize for EventTrace {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let horizon = v.field("horizon")?.as_f64()?;
        if !(horizon.is_finite() && horizon >= 0.0) {
            return Err(serde::Error::new(format!("invalid trace horizon {horizon}")));
        }
        // rebuild through push so the sorted-by-timestamp invariant (and
        // timestamp validity) is re-established, whatever the file says
        let events = Vec::<TimedEvent>::from_value(v.field("events")?)?;
        for e in &events {
            if !(e.at.is_finite() && e.at >= 0.0) {
                return Err(serde::Error::new(format!("invalid event timestamp {}", e.at)));
            }
        }
        let mut trace = EventTrace::new(horizon);
        for e in events {
            trace.push(e.at, e.event);
        }
        Ok(trace)
    }
}

/// What a serving system reports back for one applied event. The replay
/// driver stamps [`at`](EventOutcome::at); everything else comes from
/// the system (the serve crate maps its richer `ServeReport` into this).
#[derive(Debug, Clone)]
pub struct EventOutcome {
    /// Trace timestamp (stamped by [`replay`]).
    pub at: f64,
    /// Event label.
    pub label: String,
    /// `true` when the event changed the served workload (admitted /
    /// retired / reweighted); `false` for rejected or queued admissions
    /// and unknown-app events.
    pub applied: bool,
    /// `true` when an admission was parked in the wait queue rather than
    /// rejected outright.
    pub queued: bool,
    /// Wall-clock replanning latency of this event.
    pub replan: Duration,
    /// Migration traffic the adopted plan requires (bytes over the EIB).
    pub migration_bytes: f64,
    /// Composed round period after the event (`+∞` when nothing is
    /// being served).
    pub period: f64,
}

/// A system that can be driven by an [`EventTrace`]: apply one event,
/// expose every incumbent workload + mapping for measurement. A
/// single-node service is a fleet of one; the `cellstream-cluster`
/// crate's in-process `Cluster` is a fleet of many.
pub trait OnlineSystem {
    /// Apply one event and report what happened, system-wide.
    fn apply_event(&mut self, ev: &TraceEvent) -> EventOutcome;

    /// Every node's incumbent `(workload, mapping, platform)` triple,
    /// idle nodes omitted. Application names are unique system-wide,
    /// so the per-node tallies merge into one account.
    fn incumbents(&self) -> Vec<(&Workload, &Mapping, &CellSpec)>;
}

/// Per-application delivery tally of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct AppServed {
    /// Application (graph) name.
    pub app: String,
    /// Seconds the application was resident over the measured horizon.
    pub seconds: f64,
    /// Application instances delivered while resident (simulated
    /// steady-state throughput × residency, summed over intervals).
    pub instances: f64,
}

impl AppServed {
    /// Mean delivered throughput over the application's residency
    /// (instances per second); 0 for zero residency.
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.instances / self.seconds
        } else {
            0.0
        }
    }
}

/// Everything [`replay`] measures.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// One outcome per trace event, in trace order.
    pub events: Vec<EventOutcome>,
    /// Delivered instances per application name.
    pub served: Vec<AppServed>,
    /// Admissions that did not enter service immediately (rejected or
    /// queued).
    pub rejected: usize,
    /// Total migration traffic across all adopted replans (bytes).
    pub total_migration_bytes: f64,
}

impl OnlineReport {
    /// Median replanning latency across the *applied* events (what a
    /// serving SLO would track). Zero for an empty trace.
    pub fn median_replan(&self) -> Duration {
        let mut applied: Vec<Duration> =
            self.events.iter().filter(|e| e.applied).map(|e| e.replan).collect();
        if applied.is_empty() {
            return Duration::ZERO;
        }
        applied.sort();
        applied[applied.len() / 2]
    }

    /// Delivery tally of one application by name.
    pub fn app(&self, name: &str) -> Option<&AppServed> {
        self.served.iter().find(|a| a.app == name)
    }

    /// Total application instances delivered across all applications —
    /// the aggregate-throughput numerator the cluster bench gates on.
    pub fn total_instances(&self) -> f64 {
        self.served.iter().map(|a| a.instances).sum()
    }
}

/// Replay a trace against a serving system.
///
/// Between consecutive events (and from the last event to the trace
/// horizon) **every** node's incumbent mapping is simulated for
/// `instances_per_measure` instances under the **ideal** config (the
/// model-faithful limit, same convention as the co-scheduling bench) and
/// each resident application is credited, on whichever node hosts it,
/// its measured steady-state throughput × interval length. Replan
/// latencies and migration bytes
/// come from the system's own per-event reports.
pub fn replay<S: OnlineSystem>(
    sys: &mut S,
    trace: &EventTrace,
    instances_per_measure: u64,
) -> OnlineReport {
    let mut report = OnlineReport {
        events: Vec::with_capacity(trace.len()),
        served: Vec::new(),
        rejected: 0,
        total_migration_bytes: 0.0,
    };
    for (i, te) in trace.events().iter().enumerate() {
        let mut outcome = sys.apply_event(&te.event);
        outcome.at = te.at;
        if !outcome.applied {
            report.rejected += 1;
        }
        report.total_migration_bytes += outcome.migration_bytes;
        report.events.push(outcome);

        let until = trace.events().get(i + 1).map_or(trace.horizon, |n| n.at);
        let interval = (until - te.at).max(0.0);
        if interval > 0.0 {
            for (w, m, spec) in sys.incumbents() {
                credit_node(w, m, spec, interval, instances_per_measure, &mut report.served);
            }
        }
    }
    report
}

/// Credit one node's resident applications for one interval.
fn credit_node(
    w: &Workload,
    m: &Mapping,
    spec: &CellSpec,
    interval: f64,
    instances: u64,
    served: &mut Vec<AppServed>,
) {
    let per_app = match simulate(w.graph(), spec, m, &SimConfig::ideal(), instances) {
        Ok(trace) => trace.per_app_throughput(w),
        Err(_) => vec![0.0; w.n_apps()],
    };
    for (info, thr) in w.apps().iter().zip(per_app) {
        let entry = match served.iter_mut().find(|a| a.app == info.name) {
            Some(e) => e,
            None => {
                served.push(AppServed { app: info.name.clone(), seconds: 0.0, instances: 0.0 });
                served.last_mut().expect("just pushed")
            }
        };
        entry.seconds += interval;
        entry.instances += thr * interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_graph::TaskSpec;
    use cellstream_platform::PeId;

    fn tiny_app(name: &str) -> StreamGraph {
        let mut b = StreamGraph::builder(name);
        let s = b.add_task(TaskSpec::new("s").uniform_cost(1e-6));
        let t = b.add_task(TaskSpec::new("t").uniform_cost(1e-6));
        b.add_edge(s, t, 64.0).unwrap();
        b.build().unwrap()
    }

    /// Minimal serving stand-in: admits everything onto the PPE, retires
    /// by name, rejects admissions once `cap` apps are live.
    struct PpeServer {
        spec: CellSpec,
        state: Option<(Workload, Mapping)>,
        cap: usize,
    }

    impl PpeServer {
        fn replan(&mut self, w: Option<Workload>) {
            self.state = w.map(|w| {
                let m = Mapping::all_on(w.graph(), PeId(0));
                (w, m)
            });
        }
        fn outcome(&self, ev: &TraceEvent, applied: bool) -> EventOutcome {
            EventOutcome {
                at: 0.0,
                label: ev.label(),
                applied,
                queued: false,
                replan: Duration::from_micros(10),
                migration_bytes: if applied { 64.0 } else { 0.0 },
                period: self
                    .state
                    .as_ref()
                    .map_or(f64::INFINITY, |(w, _)| w.graph().total_ppe_work()),
            }
        }
    }

    impl OnlineSystem for PpeServer {
        fn apply_event(&mut self, ev: &TraceEvent) -> EventOutcome {
            match ev {
                TraceEvent::Admit { graph, weight } => {
                    let n = self.state.as_ref().map_or(0, |(w, _)| w.n_apps());
                    if n >= self.cap {
                        return self.outcome(ev, false);
                    }
                    let w = match self.state.take() {
                        None => {
                            let mut b = Workload::builder("served");
                            b.push(graph, *weight).unwrap();
                            b.build().unwrap()
                        }
                        Some((mut w, _)) => {
                            w.add(graph, *weight).unwrap();
                            w
                        }
                    };
                    self.replan(Some(w));
                    self.outcome(ev, true)
                }
                TraceEvent::Retire { app } => {
                    let Some((mut w, _)) = self.state.take() else {
                        return self.outcome(ev, false);
                    };
                    let Some(id) = w.app_id(app) else {
                        self.state = Some((w.clone(), Mapping::all_on(w.graph(), PeId(0))));
                        return self.outcome(ev, false);
                    };
                    if w.n_apps() == 1 {
                        self.replan(None);
                    } else {
                        w.retire(id).unwrap();
                        self.replan(Some(w));
                    }
                    self.outcome(ev, true)
                }
                TraceEvent::Reweight { app, weight } => {
                    let Some((mut w, _)) = self.state.take() else {
                        return self.outcome(ev, false);
                    };
                    let applied = match w.app_id(app) {
                        Some(id) => w.reweight(id, *weight).is_ok(),
                        None => false,
                    };
                    self.replan(Some(w));
                    self.outcome(ev, applied)
                }
                // the toy server models no impairments: faults bounce
                TraceEvent::PeFailed { .. }
                | TraceEvent::PeRestored { .. }
                | TraceEvent::CostDrift { .. }
                | TraceEvent::NodeFailed { .. }
                | TraceEvent::NodeRestored { .. } => self.outcome(ev, false),
            }
        }

        fn incumbents(&self) -> Vec<(&Workload, &Mapping, &CellSpec)> {
            self.state.iter().map(|(w, m)| (w, m, &self.spec)).collect()
        }
    }

    #[test]
    fn trace_stays_sorted_and_labelled() {
        let trace = EventTrace::new(1.0)
            .at(0.5, TraceEvent::Retire { app: "a".into() })
            .at(0.1, TraceEvent::Admit { graph: tiny_app("a"), weight: 1.0 })
            .at(0.3, TraceEvent::Reweight { app: "a".into(), weight: 2.0 });
        let ts: Vec<f64> = trace.events().iter().map(|e| e.at).collect();
        assert_eq!(ts, vec![0.1, 0.3, 0.5]);
        assert_eq!(trace.events()[0].event.label(), "admit a w=1");
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
    }

    #[test]
    fn replay_credits_residency_and_counts_rejections() {
        let mut sys = PpeServer { spec: CellSpec::ps3(), state: None, cap: 1 };
        let trace = EventTrace::new(1.0)
            .at(0.0, TraceEvent::Admit { graph: tiny_app("a"), weight: 1.0 })
            .at(0.4, TraceEvent::Admit { graph: tiny_app("b"), weight: 1.0 }) // over cap
            .at(0.6, TraceEvent::Retire { app: "a".into() });
        let report = replay(&mut sys, &trace, 400);
        assert_eq!(report.events.len(), 3);
        assert_eq!(report.rejected, 1, "the over-cap admission is rejected");
        assert!(report.events[0].applied && !report.events[1].applied);
        // a is resident from 0.0 to 0.6 and delivers ~1/(2us) inst/s
        let a = report.app("a").expect("a was served");
        assert!((a.seconds - 0.6).abs() < 1e-12);
        assert!(a.instances > 0.0);
        let thr = a.throughput();
        let model = 1.0 / sys.spec.pes().count() as f64; // unused sanity anchor
        let _ = model;
        assert!((thr - 1.0 / 2e-6).abs() / (1.0 / 2e-6) < 0.05, "ppe-only chain rate, got {thr}");
        // nothing served after the retire; b never entered
        assert!(report.app("b").is_none());
        assert_eq!(report.total_migration_bytes, 64.0 * 2.0);
        assert!(report.median_replan() > Duration::ZERO);
    }

    #[test]
    fn traces_round_trip_through_json() {
        let trace = EventTrace::new(2.5)
            .at(0.0, TraceEvent::Admit { graph: tiny_app("a"), weight: 1.5 })
            .at(0.25, TraceEvent::Reweight { app: "a".into(), weight: 3.0 })
            .at(1.0, TraceEvent::Retire { app: "a".into() });
        let json = serde_json::to_string(&trace).unwrap();
        let back: EventTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.horizon, trace.horizon);
        assert_eq!(back.len(), trace.len());
        for (orig, re) in trace.events().iter().zip(back.events()) {
            assert_eq!(orig.at, re.at);
            assert_eq!(orig.event.label(), re.event.label());
        }
        match &back.events()[0].event {
            TraceEvent::Admit { graph, weight } => {
                assert_eq!(graph.name(), "a");
                assert_eq!(graph.n_tasks(), 2);
                assert_eq!(*weight, 1.5);
            }
            other => panic!("expected admit, got {}", other.label()),
        }
        // a bogus tag is rejected, not misparsed
        let bad = r#"{"horizon": 1.0, "events": [{"at": 0.0, "event": {"type": "explode"}}]}"#;
        assert!(serde_json::from_str::<EventTrace>(bad).is_err());
    }

    #[test]
    fn fault_events_round_trip_through_json() {
        let trace = EventTrace::new(4.0)
            .at(0.0, TraceEvent::Admit { graph: tiny_app("a"), weight: 1.0 })
            .at(0.5, TraceEvent::PeFailed { node: 0, pe: PeId(3) })
            .at(1.0, TraceEvent::CostDrift { app: "a".into(), factor: 1.75 })
            .at(1.5, TraceEvent::NodeFailed { node: 2 })
            .at(2.0, TraceEvent::PeRestored { node: 0, pe: PeId(3) })
            .at(2.5, TraceEvent::NodeRestored { node: 2 });
        let json = serde_json::to_string(&trace).unwrap();
        let back: EventTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), trace.len());
        for (orig, re) in trace.events().iter().zip(back.events()) {
            assert_eq!(orig.at, re.at);
            assert_eq!(orig.event.label(), re.event.label());
            assert_eq!(orig.event.is_fault(), re.event.is_fault());
            assert_eq!(re.event.label().split(' ').next(), Some(re.event.kind()));
        }
        match &back.events()[1].event {
            TraceEvent::PeFailed { node, pe } => {
                assert_eq!(*node, 0);
                assert_eq!(*pe, PeId(3));
            }
            other => panic!("expected pe_failed, got {}", other.label()),
        }
        match &back.events()[2].event {
            TraceEvent::CostDrift { app, factor } => {
                assert_eq!(app, "a");
                assert_eq!(*factor, 1.75);
            }
            other => panic!("expected cost_drift, got {}", other.label()),
        }
        assert!(back.events()[1].event.is_fault());
        let names: Vec<_> = back.events().iter().map(|e| e.event.app()).collect();
        assert_eq!(names, [Some("a"), None, Some("a"), None, None, None]);
        assert!(!back.events()[0].event.is_fault());
    }

    /// Two independent [`PpeServer`]s behind a modulo router: enough of
    /// a fleet to pin `replay`'s cluster-wide crediting.
    struct TwoNode {
        nodes: [PpeServer; 2],
        next: usize,
        homes: Vec<(String, usize)>,
    }

    impl OnlineSystem for TwoNode {
        fn apply_event(&mut self, ev: &TraceEvent) -> EventOutcome {
            let node = match ev {
                TraceEvent::Admit { graph, .. } => {
                    let n = self.next % 2;
                    self.next += 1;
                    self.homes.push((graph.name().to_owned(), n));
                    n
                }
                TraceEvent::Retire { app }
                | TraceEvent::Reweight { app, .. }
                | TraceEvent::CostDrift { app, .. } => {
                    self.homes.iter().find(|(name, _)| name == app).map_or(0, |&(_, n)| n)
                }
                TraceEvent::PeFailed { node, .. }
                | TraceEvent::PeRestored { node, .. }
                | TraceEvent::NodeFailed { node }
                | TraceEvent::NodeRestored { node } => *node % 2,
            };
            self.nodes[node].apply_event(ev)
        }

        fn incumbents(&self) -> Vec<(&Workload, &Mapping, &CellSpec)> {
            self.nodes.iter().flat_map(PpeServer::incumbents).collect()
        }
    }

    #[test]
    fn fleet_replay_credits_every_node() {
        let node = || PpeServer { spec: CellSpec::ps3(), state: None, cap: 8 };
        let mut fleet = TwoNode { nodes: [node(), node()], next: 0, homes: Vec::new() };
        let trace = EventTrace::new(1.0)
            .at(0.0, TraceEvent::Admit { graph: tiny_app("a"), weight: 1.0 })
            .at(0.0, TraceEvent::Admit { graph: tiny_app("b"), weight: 1.0 });
        let report = replay(&mut fleet, &trace, 400);
        assert_eq!(report.rejected, 0);
        // both apps run the whole horizon, one per node, each at the
        // full single-node ppe-chain rate — the fleet doubles delivery
        let (a, b) = (report.app("a").unwrap(), report.app("b").unwrap());
        assert!((a.seconds - 1.0).abs() < 1e-12);
        assert!((b.seconds - 1.0).abs() < 1e-12);
        let rate = 1.0 / 2e-6;
        assert!((a.throughput() - rate).abs() / rate < 0.05, "{}", a.throughput());
        assert!((b.throughput() - rate).abs() / rate < 0.05, "{}", b.throughput());
        assert!((report.total_instances() - 2.0 * rate).abs() / (2.0 * rate) < 0.05);
    }

    #[test]
    fn idle_trace_reports_nothing_served() {
        let mut sys = PpeServer { spec: CellSpec::ps3(), state: None, cap: 8 };
        let trace = EventTrace::new(0.5).at(0.2, TraceEvent::Retire { app: "ghost".into() });
        let report = replay(&mut sys, &trace, 100);
        assert!(report.served.is_empty());
        assert_eq!(report.rejected, 1);
    }
}
