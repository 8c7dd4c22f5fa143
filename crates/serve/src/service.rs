//! The event-driven serving loop. See the crate docs for the model.
//!
//! Every event — admit, retire, reweight, PE fault, cost drift — is
//! "re-solve the mapping for a slightly different composed workload",
//! so there is one path: events → canonical sort → **cut** into groups
//! → **group step** (candidate workload → warm replan → commit rule →
//! report). [`Service::process`] is that path for a burst of one.

use cellstream_core::workload::AppReport;
use cellstream_core::{evaluate_workload_with, Availability, Mapping, MappingDelta};
use cellstream_graph::{AppId, StreamGraph, Workload};
use cellstream_heuristics::repair::{carry_over_into, repair};
use cellstream_heuristics::LocalSearchOptions;
use cellstream_platform::{CellSpec, PeId};
use cellstream_sim::online::{EventOutcome, OnlineSystem, TraceEvent};
use cellstream_telemetry::Snapshot;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::background::Background;
use crate::metrics::ServeMetrics;
use crate::report::{
    BatchReport, EventLabel, QueueBackoff, RecoveryReport, RejectReason, ServeError, ServeReport,
    Verdict,
};

/// One workload-churn event. Applications are addressed by the **stable
/// handle** [`Service::process`] returned at admission — handles never
/// shift, unlike the positional ids inside the composed [`Workload`].
#[derive(Debug, Clone)]
pub enum Event {
    /// An application arrives, asking for the given throughput weight.
    Admit(StreamGraph, f64),
    /// The application with this handle departs.
    Retire(AppId),
    /// The application with this handle changes its throughput weight.
    Reweight(AppId, f64),
    /// An SPE dies. The service evacuates its seats via a recovery
    /// replan and sheds applications if the shrunken platform cannot
    /// carry everyone ([`Service::fail_pe`]).
    PeFailed(PeId),
    /// A failed PE comes back to life; the service rebalances onto it
    /// and retries parked admissions. A no-op on a PE that is alive.
    PeRestored(PeId),
    /// The application's declared compute costs turn out wrong by this
    /// factor (`> 1` underestimated). The service corrects the declared
    /// costs and re-validates the incumbent ([`Service::cost_drift`]).
    CostDrift(AppId, f64),
}

impl Event {
    /// Compact label (`"admit w=1"`, `"retire A3"`, ...). Admissions
    /// learn their handle at commit time, so an [`Event::Admit`] label
    /// carries only the weight until then.
    pub fn label(&self) -> EventLabel {
        match self {
            Event::Admit(_, w) => EventLabel::admit(*w),
            Event::Retire(id) => EventLabel::retire(*id),
            Event::Reweight(id, w) => EventLabel::reweight(*id, *w),
            Event::PeFailed(pe) => EventLabel::pe_failed(*pe),
            Event::PeRestored(pe) => EventLabel::pe_restored(*pe),
            Event::CostDrift(id, f) => EventLabel::cost_drift(*id, *f),
        }
    }
}

/// Amortisation horizon (in composed rounds) for a plan change that
/// migrates state: adopt it iff
/// `(T_incumbent − T_candidate) · MIGRATION_HORIZON > migration_time`.
/// 10⁶ rounds — a streaming pipeline runs many millions. The background
/// improver's adoption rule and the fleet's rebalance both read it.
pub const MIGRATION_HORIZON: f64 = 1e6;

/// Tunables of one [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Local-search refinement applied by the repair replanner on every
    /// event: first-improvement sweeps, so a warm-started repair applies
    /// the whole delta's worth of moves in a few O(K·n) passes — which
    /// is what keeps replan latency an order of magnitude under a
    /// from-scratch solve.
    pub repair: LocalSearchOptions,
    /// Uniform per-instance period guarantee: an admission (or reweight)
    /// is refused if any application's per-instance period `T / w_i`
    /// would exceed this under the candidate plan. `None` (default)
    /// admits anything feasible.
    pub max_period: Option<f64>,
    /// Park refused admissions in a FIFO wait queue and retry them
    /// whenever a retire/reweight frees capacity (default: reject
    /// outright).
    pub queue_rejected: bool,
    /// Retry budget per queued admission. Each failed retry backs the
    /// entry off exponentially (it sits out `2^attempts` drain passes,
    /// capped at 64) so one unadmittable application cannot starve the
    /// drain loop; after this many failed attempts the entry expires
    /// and is reported as [`RejectReason::Expired`] — visible, never
    /// silently dropped. Applications shed by fault recovery ride the
    /// same queue and the same budget.
    pub queue_max_attempts: u32,
    /// Budget for the asynchronous full-portfolio improver spawned after
    /// every adopted replan. `None` (default) disables background
    /// improvement.
    pub background: Option<Duration>,
    /// Maintain the telemetry cells and the replan flight recorder
    /// (default). Off, every record call early-returns — the baseline
    /// of the benchmark's `telemetry.record_overhead_share`.
    pub telemetry: bool,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            repair: LocalSearchOptions::default(),
            max_period: None,
            queue_rejected: false,
            queue_max_attempts: 8,
            background: None,
            telemetry: true,
        }
    }
}

/// The live state: what is currently being served.
pub(crate) struct Live {
    pub(crate) workload: Workload,
    pub(crate) mapping: Mapping,
    pub(crate) period: f64,
}

/// A queued (admission-refused or fault-shed) application awaiting
/// capacity, with its retry bookkeeping.
struct Queued {
    graph: StreamGraph,
    weight: f64,
    /// Failed admission attempts so far.
    attempts: u32,
    /// Drain passes this entry still sits out (exponential backoff).
    cooldown: u32,
}

/// The online serving loop. See the crate docs.
pub struct Service {
    pub(crate) spec: CellSpec,
    pub(crate) opts: ServiceOptions,
    pub(crate) live: Option<Live>,
    /// Stable handle of each live application, parallel to the
    /// workload's positional app list.
    handles: Vec<AppId>,
    next_handle: usize,
    /// Bumped on every workload change; stale background results are
    /// discarded by comparing against it.
    pub(crate) version: u64,
    queue: VecDeque<Queued>,
    pub(crate) background: Option<Background>,
    /// Seat changes of a background adoption no report has surfaced
    /// yet; the next report takes them.
    pub(crate) adoption_delta: Option<MappingDelta>,
    /// The dead-PE mask: every replan plans against it
    /// ([`Service::fail_pe`]).
    pub(crate) avail: Availability,
    /// Reusable carry-over scratch — one seat per task, cleared and
    /// refilled per event instead of reallocated.
    scratch_partial: Vec<Option<PeId>>,
    /// Applications a recovery shed while the retry queue is disabled
    /// (cluster agents): the caller collects them via
    /// [`Service::take_shed`] and owns their re-placement.
    shed_out: Vec<(StreamGraph, f64)>,
    /// The metric cells and flight recorder, shared (`Arc`) so the
    /// pipeline planner thread records into the same cells across the
    /// thread move ([`Service::metrics_handle`]).
    metrics: Arc<ServeMetrics>,
}

/// One event's label and verdict, as a burst reports it.
type Outcome = (EventLabel, Verdict);

/// Canonical application order within a burst: faults report reality,
/// which precedes requests; then the order that frees capacity before
/// asking for more.
fn rank(ev: &Event) -> u8 {
    match ev {
        Event::PeFailed(_) | Event::PeRestored(_) | Event::CostDrift(..) => 0,
        Event::Retire(_) => 1,
        Event::Reweight(..) => 2,
        Event::Admit(..) => 3,
    }
}

/// Seat changes from one incumbent to the next; either side may be idle.
fn delta_between(prev: Option<&Live>, next: Option<&Live>) -> MappingDelta {
    let names = |l: &Live| l.workload.graph().tasks().iter().map(|t| t.name.clone()).collect();
    match (prev, next) {
        (Some(p), Some(n)) => {
            MappingDelta::between(p.workload.graph(), &p.mapping, n.workload.graph(), &n.mapping)
        }
        (Some(p), None) => MappingDelta { dropped: names(p), ..MappingDelta::default() },
        (None, Some(n)) => MappingDelta { placed: names(n), ..MappingDelta::default() },
        (None, None) => MappingDelta::default(),
    }
}

impl Service {
    /// A service on the given platform with default options.
    pub fn new(spec: CellSpec) -> Self {
        Service::with_options(spec, ServiceOptions::default())
    }

    /// A service with explicit options.
    pub fn with_options(spec: CellSpec, opts: ServiceOptions) -> Self {
        assert!(spec.n_ppe() >= 1, "the serving loop needs a PPE to evict to");
        let avail = Availability::full(&spec);
        let metrics = Arc::new(ServeMetrics::new(opts.telemetry));
        Service {
            spec,
            opts,
            live: None,
            handles: Vec::new(),
            next_handle: 0,
            version: 0,
            queue: VecDeque::new(),
            background: None,
            adoption_delta: None,
            avail,
            scratch_partial: Vec::new(),
            shed_out: Vec::new(),
            metrics,
        }
    }

    /// The platform.
    pub fn spec(&self) -> &CellSpec {
        &self.spec
    }

    /// The served workload (`None` while idle).
    pub fn workload(&self) -> Option<&Workload> {
        self.live.as_ref().map(|l| &l.workload)
    }

    /// The incumbent mapping (`None` while idle).
    pub fn mapping(&self) -> Option<&Mapping> {
        self.live.as_ref().map(|l| &l.mapping)
    }

    /// Composed round period of the incumbent (`+∞` while idle).
    pub fn period(&self) -> f64 {
        self.live.as_ref().map_or(f64::INFINITY, |l| l.period)
    }

    /// Live applications as `(stable handle, name)` pairs, in workload
    /// order — a borrowing iterator, so listing allocates nothing.
    pub fn apps(&self) -> impl Iterator<Item = (AppId, &str)> + '_ {
        self.handles
            .iter()
            .zip(self.live.as_ref().map(|l| l.workload.apps()).into_iter().flatten())
            .map(|(&h, info)| (h, info.name.as_str()))
    }

    /// Number of live applications.
    pub fn n_apps(&self) -> usize {
        self.handles.len()
    }

    /// The stable handle of a live application by name.
    pub fn handle_of(&self, name: &str) -> Option<AppId> {
        let l = self.live.as_ref()?;
        let idx = l.workload.app_id(name)?;
        Some(self.handles[idx.index()])
    }

    /// Number of admissions waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The dead-PE mask every replan currently plans against.
    pub fn availability(&self) -> &Availability {
        &self.avail
    }

    /// Hand over the applications a recovery shed while the retry queue
    /// was disabled ([`ServiceOptions::queue_rejected`] `false`): their
    /// drift-corrected source graphs and weights, in shed order. The
    /// caller (a cluster agent's coordinator) owns their re-placement;
    /// with queueing enabled this is always empty — shed apps park in
    /// the local queue instead.
    pub fn take_shed(&mut self) -> Vec<(StreamGraph, f64)> {
        std::mem::take(&mut self.shed_out)
    }

    /// The serving loop's metric cells and flight recorder.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// A shared handle to the metric cells — how the pipeline planner
    /// thread keeps recording into the same cells after the service
    /// moves into it ([`ServePipeline`](crate::ServePipeline)).
    pub fn metrics_handle(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// One exposition snapshot of the serving loop: every metric cell,
    /// liveness gauges derived from the live bookkeeping (`serving`,
    /// `queued`, `stranded` and their conservation sum `tracked`), and
    /// per-application weight / retry-backoff rows. Render it with
    /// [`Snapshot::to_prometheus`] or [`Snapshot::to_json`].
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let m = &self.metrics;
        let mut s = Snapshot::new();
        s.push_counter("cellstream_serve_events_total", &[], m.events_total.get());
        for (verdict, c) in [
            ("admitted", &m.admitted_total),
            ("applied", &m.applied_total),
            ("queued", &m.queued_total),
            ("rejected", &m.rejected_total),
            ("adopted", &m.adopted_total),
            ("nochange", &m.nochange_total),
        ] {
            s.push_counter("cellstream_serve_verdicts_total", &[("verdict", verdict)], c.get());
        }
        s.push_counter(
            "cellstream_serve_migration_bytes_total",
            &[],
            m.migration_bytes_total.get(),
        );
        s.push_counter("cellstream_serve_readmitted_total", &[], m.readmitted_total.get());
        s.push_counter("cellstream_serve_expired_total", &[], m.expired_total.get());
        s.push_counter("cellstream_serve_recoveries_total", &[], m.recoveries_total.get());
        s.push_counter("cellstream_serve_shed_total", &[], m.shed_total.get());
        s.push_counter(
            "cellstream_serve_evacuated_seats_total",
            &[],
            m.evacuated_seats_total.get(),
        );
        s.push_counter("cellstream_serve_batches_total", &[], m.batches_total.get());
        s.push_counter(
            "cellstream_serve_skipped_fusions_total",
            &[],
            m.skipped_fusions_total.get(),
        );
        s.push_counter("cellstream_serve_flight_recorded_total", &[], m.recorder.recorded());
        s.push_counter("cellstream_serve_flight_dropped_total", &[], m.recorder.dropped());
        s.push_histogram("cellstream_serve_replan_ns", &[], m.replan_ns.snapshot());
        s.push_histogram("cellstream_serve_batch_events", &[], m.batch_events.snapshot());
        s.push_histogram("cellstream_serve_ring_occupancy", &[], m.ring_occupancy.snapshot());
        // liveness gauges from the live bookkeeping, not the cells: the
        // conservation law `tracked = serving + queued + stranded` ties
        // four independent structures together (see tests/invariants.rs)
        let serving = self.live.as_ref().map_or(0, |l| l.workload.n_apps());
        s.push_gauge("cellstream_serve_serving", &[], serving as f64);
        s.push_gauge("cellstream_serve_queued", &[], self.queue.len() as f64);
        s.push_gauge("cellstream_serve_stranded", &[], self.shed_out.len() as f64);
        s.push_gauge(
            "cellstream_serve_tracked",
            &[],
            (self.handles.len() + self.queue.len() + self.shed_out.len()) as f64,
        );
        s.push_gauge("cellstream_serve_period_seconds", &[], self.period());
        s.push_gauge("cellstream_serve_queue_depth", &[], m.queue_depth.get());
        s.push_gauge("cellstream_serve_dead_pes", &[], self.avail.dead_pes().count() as f64);
        if let Some(l) = &self.live {
            for a in l.workload.apps() {
                s.push_gauge("cellstream_serve_app_weight", &[("app", a.name.as_str())], a.weight);
            }
        }
        for q in &self.queue {
            let app = q.graph.name();
            s.push_gauge("cellstream_serve_queue_attempts", &[("app", app)], f64::from(q.attempts));
            s.push_gauge("cellstream_serve_queue_cooldown", &[("app", app)], f64::from(q.cooldown));
        }
        s
    }

    /// Stamp the retry-queue view onto a finished report (its
    /// `queue_depth` / `queue_backoff` fields) and hand it to the
    /// metric cells with the verdicts of the events it covers: every
    /// group step and background poll returns through here, so
    /// telemetry sees each event exactly once.
    pub(crate) fn finish<'a>(
        &self,
        mut r: ServeReport,
        verdicts: impl Iterator<Item = &'a Verdict>,
    ) -> ServeReport {
        r.queue_depth = self.queue.len();
        r.queue_backoff = self
            .queue
            .iter()
            .map(|q| QueueBackoff {
                app: q.graph.name().to_owned(),
                attempts: q.attempts,
                cooldown: q.cooldown,
            })
            .collect();
        self.metrics.note_report(&r, verdicts, self.shed_out.len());
        r
    }

    /// The one report constructor: `headline` and what the step changed,
    /// over the state it left behind.
    pub(crate) fn report(
        &self,
        (event, verdict): Outcome,
        started: Instant,
        delta: MappingDelta,
        recovery: Option<RecoveryReport>,
    ) -> ServeReport {
        let mut per_app = Vec::new();
        self.app_reports_into(&mut per_app);
        ServeReport {
            event,
            verdict,
            replan: started.elapsed(),
            delta,
            period: self.period(),
            per_app,
            background_adopted: false,
            background_delta: MappingDelta::default(),
            drained: Vec::new(),
            recovery,
            queue_depth: 0,
            queue_backoff: Vec::new(),
        }
    }

    /// Per-application reports of the incumbent (empty while idle).
    pub fn app_reports(&self) -> Vec<AppReport> {
        let mut out = Vec::new();
        self.app_reports_into(&mut out);
        out
    }

    /// [`app_reports`](Self::app_reports) into a caller-owned buffer:
    /// `out` is cleared and refilled, so a monitoring loop reuses one
    /// allocation across polls.
    fn app_reports_into(&self, out: &mut Vec<AppReport>) {
        out.clear();
        if let Some(l) = &self.live {
            out.extend(
                evaluate_workload_with(&l.workload, &self.spec, &self.avail, &l.mapping)
                    .expect("incumbents stay structurally valid") // check:allow(hot-path-panic): incumbent mappings were validated when committed
                    .per_app,
            );
        }
    }

    /// Process one event: [`process_batch`](Self::process_batch) for a
    /// burst of one, reported in full. Refused admissions come back as
    /// [`Verdict::Rejected`]/[`Verdict::Queued`] reports; only malformed
    /// events (unknown handles, unfailable PEs) are errors.
    pub fn process(&mut self, ev: Event) -> Result<ServeReport, ServeError> {
        let (mut reports, _) = self.run(std::slice::from_ref(&ev))?;
        Ok(reports.pop().expect("one event is one group")) // check:allow(hot-path-panic): a burst of one always cuts into exactly one group
    }

    /// Process a burst of events. The burst is validated upfront against
    /// its canonical order — an unknown handle (including a reweight of
    /// a handle the same burst retires) or an unfailable PE fails the
    /// whole burst before anything applies — then sorted *faults →
    /// retires → reweights → admits* (stable within each class: reality
    /// precedes requests, and capacity is freed before more is asked
    /// for) and **cut** into groups, each of which is one replan:
    ///
    /// * a fault ([`Event::PeFailed`] / [`Event::PeRestored`] /
    ///   [`Event::CostDrift`]) is a group of its own — recovery can shed
    ///   applications, which does not fuse;
    /// * with a per-instance guarantee configured
    ///   ([`ServiceOptions::max_period`]) every event is a group of its
    ///   own — admission control needs a candidate replan per request
    ///   to refuse selectively;
    /// * everything else is **one** group: one workload recomposition,
    ///   one carry-over and one repair for the whole burst instead of
    ///   one of each per event — that fusion is the serving hot path's
    ///   throughput. Should the fused candidate be infeasible, the
    ///   group is re-run one event at a time so the refusal lands on
    ///   the request that caused it.
    ///
    /// The final application set matches processing the events one at a
    /// time in canonical order. Per-event verdicts come back in
    /// **request order**; an event whose handle a fault earlier in the
    /// same burst shed is reported [`Verdict::NoChange`].
    pub fn process_batch(&mut self, events: &[Event]) -> Result<BatchReport, ServeError> {
        let started = Instant::now();
        let (reports, outcomes) = self.run(events)?;
        let mut batch = BatchReport {
            events: outcomes,
            replan: started.elapsed(),
            delta: MappingDelta::default(),
            period: self.period(),
            per_app: Vec::new(),
            background_adopted: false,
            background_delta: MappingDelta::default(),
            drained: Vec::new(),
        };
        if reports.is_empty() {
            self.app_reports_into(&mut batch.per_app);
        }
        for mut r in reports {
            batch.delta.moved.append(&mut r.delta.moved);
            batch.delta.placed.append(&mut r.delta.placed);
            batch.delta.dropped.append(&mut r.delta.dropped);
            batch.delta.migration_bytes += r.delta.migration_bytes;
            if r.background_adopted {
                batch.background_adopted = true;
                batch.background_delta = r.background_delta;
            }
            batch.drained.append(&mut r.drained);
            batch.per_app = r.per_app; // the last group's describes the final state
        }
        self.metrics.note_batch(events.len());
        Ok(batch)
    }

    /// Validate, sort, cut and run a burst: one report per group, plus
    /// every event's label and verdict in request order.
    fn run(&mut self, events: &[Event]) -> Result<(Vec<ServeReport>, Vec<Outcome>), ServeError> {
        let mut order: Vec<usize> = (0..events.len()).collect();
        order.sort_by_key(|&i| rank(&events[i]));

        // upfront validation: the whole burst applies or none of it does
        let mut sim = self.handles.clone();
        for &i in &order {
            match &events[i] {
                Event::Retire(id) => {
                    let pos =
                        sim.iter().position(|h| h == id).ok_or(ServeError::UnknownApp(*id))?;
                    sim.remove(pos);
                }
                Event::Reweight(id, _) | Event::CostDrift(id, _) => {
                    if !sim.contains(id) {
                        return Err(ServeError::UnknownApp(*id));
                    }
                }
                Event::Admit(..) => {}
                // the serving loop itself runs on the PPE: a dead PPE is
                // a dead node, the cluster layer's event
                Event::PeFailed(pe) | Event::PeRestored(pe) => {
                    let fails = matches!(events[i], Event::PeFailed(_));
                    if pe.index() >= self.spec.n_pes() || (fails && !self.spec.is_spe(*pe)) {
                        return Err(ServeError::InvalidPe(*pe));
                    }
                }
            }
        }

        let mut outcomes: Vec<Outcome> =
            events.iter().map(|ev| (ev.label(), Verdict::NoChange)).collect();
        let mut reports = Vec::new();
        // a new event cancels the improver; whatever it adopted on the
        // way out rides on the first group's report
        let _ = self.reap_background(true);
        // the cut rule (faults sort first, so what follows the last
        // of them is all requests)
        let selective = self.opts.max_period.is_some();
        let mut rest = order.as_slice();
        while let Some(&first) = rest.first() {
            let n = match selective || rank(&events[first]) == 0 {
                true => 1,
                false => rest.len(),
            };
            let (group, tail) = rest.split_at(n);
            rest = tail;
            self.step(events, group, &mut outcomes, &mut reports);
        }
        // respawn even after a refusal: the (unchanged) workload still
        // deserves its improver
        self.spawn_background();
        Ok((reports, outcomes))
    }

    /// One group, start to finish: the replan, the retry-queue drain if
    /// the group may have freed capacity, the metrics. A fused group
    /// the platform cannot carry is re-run one event at a time.
    fn step(
        &mut self,
        events: &[Event],
        group: &[usize],
        outcomes: &mut [Outcome],
        reports: &mut Vec<ServeReport>,
    ) {
        let may_queue = self.opts.queue_rejected;
        let Some(mut report) = self.replan_group(events, group, outcomes, may_queue) else {
            for i in group {
                self.step(events, std::slice::from_ref(i), outcomes, reports);
            }
            return;
        };
        if let Some(delta) = self.adoption_delta.take() {
            report.background_adopted = true;
            report.background_delta = delta;
        }
        // restored capacity and applied retires/reweights are exactly
        // what parked admissions wait for
        let freed = group.iter().any(|&i| {
            matches!(
                (&events[i], &outcomes[i].1),
                (Event::Retire(_) | Event::Reweight(..), Verdict::Applied)
                    | (Event::PeRestored(_), _)
            )
        });
        if freed {
            self.drain_queue_into(&mut report.drained);
            if !report.drained.is_empty() {
                // the report describes the *post-event* state, drained
                // admissions included
                report.period = self.period();
                self.app_reports_into(&mut report.per_app);
            }
        }
        reports.push(self.finish(report, group.iter().map(|&i| &outcomes[i].1)));
        #[cfg(feature = "debug_invariants")]
        self.check_invariants("group step");
    }

    /// The one replan path. Compose the group's candidate workload
    /// through one mutation guard, replan it warm from the incumbent,
    /// and apply the commit rule: a *request* the platform cannot carry
    /// within feasibility and guarantees is **refused** (the incumbent
    /// stands; an admission parks in the retry queue when `may_queue`),
    /// a *fault* it cannot carry **sheds** lowest-weight applications
    /// until the survivors fit — reality cannot be refused. Verdicts
    /// land in `outcomes` at the events' request slots.
    ///
    /// `None` only for a fused group (more than one event) whose
    /// candidate was refused: nothing was touched, and the caller
    /// re-runs the events one by one.
    fn replan_group(
        &mut self,
        events: &[Event],
        group: &[usize],
        outcomes: &mut [Outcome],
        may_queue: bool,
    ) -> Option<ServeReport> {
        let started = Instant::now();
        let prev = self.live.take();
        let mut handles = self.handles.clone();
        let mut next = self.next_handle;
        let mut recovery = None;
        // events that took effect, and whether one of them can be refused
        let (mut applied, mut refusable) = (0usize, false);
        let index_of = |handles: &[AppId], id: &AppId| handles.iter().position(|h| h == id);

        // reality first. A fault is alone in its group; a PE fault
        // changes the platform, never the application set
        if let [i] = *group {
            match events[i] {
                // idempotent on an already-dead PE
                Event::PeFailed(pe) => {
                    let mut rec = RecoveryReport::default();
                    if !self.avail.is_dead(pe) {
                        rec.evacuated_seats = prev.as_ref().map_or(0, |l| l.mapping.count_on(pe));
                        self.avail.fail(pe);
                        applied = 1;
                    }
                    recovery = Some(rec);
                    outcomes[i].1 = Verdict::Applied;
                }
                // idempotent on a live PE (the queue is still retried)
                Event::PeRestored(pe) => {
                    if self.avail.is_dead(pe) {
                        self.avail.restore(pe);
                        applied = 1;
                    }
                    recovery = Some(RecoveryReport::default());
                    outcomes[i].1 = Verdict::Applied;
                }
                _ => {}
            }
        }

        // cost drift and requests: the whole group edits a copy of the
        // incumbent's sources (an idle service starts from none), and
        // the candidate is composed from them once
        let mut edit = match &prev {
            Some(l) => l.workload.to_builder(),
            None => Workload::builder("served"),
        };
        let faults = applied;
        for &i in group {
            let verdict = match &events[i] {
                Event::Retire(id) => match index_of(&handles, id) {
                    Some(pos) => {
                        edit.retire(AppId(pos)).expect("handles parallel the sources"); // check:allow(hot-path-panic): the position comes from the handle table, parallel to the source list
                        handles.remove(pos);
                        Verdict::Applied
                    }
                    None => Verdict::NoChange,
                },
                Event::Reweight(id, weight) => match index_of(&handles, id) {
                    Some(pos) => match edit.reweight(AppId(pos), *weight) {
                        Ok(()) => {
                            refusable = true;
                            Verdict::Applied
                        }
                        Err(_) => Verdict::Rejected(RejectReason::InvalidWeight(*weight)),
                    },
                    None => Verdict::NoChange,
                },
                // the correction sticks across every later recomposition;
                // a handle shed earlier in the same burst is a no-op
                Event::CostDrift(id, factor) => match index_of(&handles, id) {
                    Some(pos) => match edit.rescale_costs(AppId(pos), *factor) {
                        Ok(()) => {
                            recovery = Some(RecoveryReport::default());
                            Verdict::Applied
                        }
                        Err(_) => Verdict::Rejected(RejectReason::InvalidFactor(*factor)),
                    },
                    None => Verdict::NoChange,
                },
                Event::Admit(g, weight) => {
                    // unique name: a second "video" becomes
                    // "video#<handle>"
                    let unique = match edit.contains(g.name()) {
                        true => Cow::Owned(g.renamed(format!("{}#{next}", g.name()))),
                        false => Cow::Borrowed(g),
                    };
                    // the name is fresh, so a refusal is the weight's:
                    // malformed, not capacity-bound — never queued
                    match edit.push(&unique, *weight) {
                        Ok(_) => {
                            let handle = AppId(next);
                            next += 1;
                            handles.push(handle);
                            refusable = true;
                            outcomes[i].0 = outcomes[i].0.with_app(handle);
                            Verdict::Admitted(handle)
                        }
                        Err(_) => Verdict::Rejected(RejectReason::InvalidWeight(*weight)),
                    }
                }
                _ => continue, // the PE fault above
            };
            applied += usize::from(matches!(verdict, Verdict::Applied | Verdict::Admitted(_)));
            outcomes[i].1 = verdict;
        }
        let headline = |outcomes: &[Outcome]| match *group {
            [i] => outcomes[i].clone(),
            _ => (EventLabel::batch(), Verdict::Applied),
        };

        if applied == 0 {
            // nothing to replan: the incumbent stands
            self.live = prev;
            return Some(self.report(
                headline(outcomes),
                started,
                MappingDelta::default(),
                recovery,
            ));
        }
        // the candidate: the edited sources, or the incumbent itself when
        // only the platform changed; none when the group emptied the
        // service
        let work = match (applied > faults, handles.is_empty()) {
            (_, true) => None,
            // check:allow(hot-path-panic): every source here is an incumbent's or an admission the builder accepted
            (true, false) => Some(edit.build().expect("retained sources compose")),
            (false, false) => prev.as_ref().map(|l| l.workload.clone()),
        };

        // the group's one replan (skipped when it emptied the service)
        let mut next_live = None;
        if let Some(mut workload) = work {
            let from = prev.as_ref().map(|l| (l.workload.graph(), &l.mapping));
            let (mut mapping, mut period) = self.replan(from, workload.graph());
            let broken = |svc: &Service, w: &Workload, period: f64| match period.is_finite() {
                // repair evicts until the §3.2 constraints hold, so an
                // infinite period means no PPE fallback existed
                false => Some(RejectReason::Infeasible),
                true => svc.guarantee_violation(w, period),
            };
            if let Some(rec) = recovery.as_mut() {
                // shed: graceful degradation instead of serving a
                // §3.2-violating plan
                while broken(self, &workload, period).is_some() {
                    let idx = workload
                        .apps()
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.weight.total_cmp(&b.1.weight))
                        .map(|(i, _)| i)
                        .expect("a live workload has applications"); // check:allow(hot-path-panic): live workloads are non-empty by construction
                    let weight = workload.apps()[idx].weight;
                    // the *unscaled* source graph (drift corrections
                    // included): what re-admission at the same weight
                    // wants
                    let graph = workload.source_graph(AppId(idx));
                    rec.shed.push(graph.name().to_owned());
                    // with queueing off (cluster agents: the coordinator
                    // owns retry policy fleet-wide) the shed app leaves
                    // the node entirely — the caller re-homes it via
                    // `take_shed`
                    match self.opts.queue_rejected {
                        true => {
                            self.queue.push_back(Queued { graph, weight, attempts: 0, cooldown: 0 })
                        }
                        false => self.shed_out.push((graph, weight)),
                    }
                    handles.remove(idx);
                    if handles.is_empty() {
                        break; // everything shed: the service goes idle
                    }
                    let seated = workload.graph().clone();
                    // the guard recomposes the survivors as it drops
                    // check:allow(hot-path-panic): the index was just enumerated against this workload
                    workload.batch().retire(AppId(idx)).expect("index from the live app list");
                    (mapping, period) = self.replan(Some((&seated, &mapping)), workload.graph());
                }
            } else if let Some(reason) = broken(self, &workload, period).filter(|_| refusable) {
                // refuse: the incumbent stands
                self.live = prev;
                let [i] = *group else { return None };
                outcomes[i] = match &events[i] {
                    Event::Admit(g, weight) if may_queue => {
                        self.queue.push_back(Queued {
                            graph: g.clone(),
                            weight: *weight,
                            attempts: 0,
                            cooldown: 0,
                        });
                        (events[i].label(), Verdict::Queued)
                    }
                    ev => (ev.label(), Verdict::Rejected(reason)),
                };
                return Some(self.report(
                    outcomes[i].clone(),
                    started,
                    MappingDelta::default(),
                    None,
                ));
            }
            if !handles.is_empty() {
                next_live = Some(Live { workload, mapping, period });
            }
        }

        // commit
        let delta = delta_between(prev.as_ref(), next_live.as_ref());
        if let Some(rec) = recovery.as_mut() {
            rec.migration_bytes = delta.migration_bytes;
        }
        self.live = next_live;
        self.handles = handles;
        self.next_handle = next;
        self.version += 1;
        Some(self.report(headline(outcomes), started, delta, recovery))
    }

    /// Deep audit (`debug_invariants` feature): the service's
    /// bookkeeping must be self-consistent — the handle table is
    /// parallel to (and exactly covers) the live workload, handles are
    /// unique and below the allocator watermark, the incumbent still
    /// evaluates feasible with its cached period, and nothing invalid
    /// sits in the admission queue. Panics with `ctx` on any breach.
    /// Allocating and O(V + E) — never call it outside the feature.
    #[cfg(feature = "debug_invariants")]
    pub fn check_invariants(&self, ctx: &str) {
        match &self.live {
            None => {
                assert!(self.handles.is_empty(), "{ctx}: handles without a live workload");
            }
            Some(l) => {
                assert_eq!(
                    self.handles.len(),
                    l.workload.n_apps(),
                    "{ctx}: handle table and workload disagree on the app count"
                );
                let rep = evaluate_workload_with(&l.workload, &self.spec, &self.avail, &l.mapping)
                    .expect("audited incumbents evaluate"); // check:allow(hot-path-panic): debug_invariants audit, not the serving path
                assert!(
                    rep.is_feasible(),
                    "{ctx}: incumbent mapping violates the placement constraints (live capacity)"
                );
                for pe in self.avail.dead_pes() {
                    assert_eq!(
                        l.mapping.count_on(pe),
                        0,
                        "{ctx}: incumbent seats tasks on dead {pe}"
                    );
                }
                let verified = rep.aggregate.period;
                let tol = 1e-9 * verified.abs().max(1e-12);
                assert!(
                    (verified - l.period).abs() <= tol,
                    "{ctx}: cached period {} drifted from verified {verified}",
                    l.period
                );
            }
        }
        for (i, a) in self.handles.iter().enumerate() {
            assert!(
                a.index() < self.next_handle,
                "{ctx}: handle {a} at or above the allocator watermark {}",
                self.next_handle
            );
            assert!(!self.handles[..i].contains(a), "{ctx}: duplicate handle {a}");
        }
        for q in &self.queue {
            assert!(
                q.weight.is_finite() && q.weight > 0.0,
                "{ctx}: queued app {} carries invalid weight {} (must be rejected, not queued)",
                q.graph.name(),
                q.weight
            );
            assert!(
                q.attempts < self.opts.queue_max_attempts,
                "{ctx}: queued app {} sits at {} attempts past the {} budget (must have expired)",
                q.graph.name(),
                q.attempts,
                self.opts.queue_max_attempts
            );
        }
        for pe in self.spec.ppes() {
            assert!(!self.avail.is_dead(pe), "{ctx}: {pe} is dead, and a PPE may never fail");
        }
    }

    /// Admit an application (see [`Event::Admit`]).
    pub fn admit(&mut self, g: &StreamGraph, weight: f64) -> ServeReport {
        // check:allow(hot-path-panic): only unknown handles and unfailable PEs fail validation, and an admission carries neither
        self.process(Event::Admit(g.clone(), weight)).expect("admissions name no handle or PE")
    }

    /// Retire an application by handle (see [`Event::Retire`]).
    pub fn retire(&mut self, id: AppId) -> Result<ServeReport, ServeError> {
        self.process(Event::Retire(id))
    }

    /// Change an application's throughput weight (see
    /// [`Event::Reweight`]). Guarantee-breaking reweights are refused
    /// with [`Verdict::Rejected`] and leave the incumbent untouched.
    pub fn reweight(&mut self, id: AppId, weight: f64) -> Result<ServeReport, ServeError> {
        self.process(Event::Reweight(id, weight))
    }

    /// An SPE dies (see [`Event::PeFailed`]): mark it dead, evacuate
    /// every seat it held via a recovery replan (the evaluator reads
    /// dead-PE occupancy as a §3.2 violation, so the ordinary evict
    /// machinery does the evacuation), and shed lowest-weight
    /// applications into the retry queue if the shrunken platform cannot
    /// carry everyone within feasibility and guarantees. Idempotent on
    /// an already-dead PE. Failing the PPE — where the serving loop
    /// itself runs — or an out-of-range id is [`ServeError::InvalidPe`]:
    /// a dead PPE is a dead *node*, the cluster layer's event.
    pub fn fail_pe(&mut self, pe: PeId) -> Result<ServeReport, ServeError> {
        self.process(Event::PeFailed(pe))
    }

    /// An application's declared compute costs turn out wrong by
    /// `factor` (see [`Event::CostDrift`]): correct the declared costs
    /// — the correction sticks across every later recomposition — and
    /// re-validate the incumbent under them, shedding lowest-weight
    /// applications if reality no longer fits. Drift is a
    /// *measurement*, not a request: it cannot be refused, only
    /// absorbed (malformed factors are rejected, though).
    pub fn cost_drift(&mut self, id: AppId, factor: f64) -> Result<ServeReport, ServeError> {
        self.process(Event::CostDrift(id, factor))
    }

    /// Resolve one name-addressed event into a handle-addressed
    /// [`Event`] against the live incumbent. `None`: no resident
    /// application has that name, or the event addresses another fleet
    /// node — a single node is fleet index 0, and whole-node loss is
    /// the cluster's event. The trace is data, not a contract: such an
    /// event means nothing here and is dropped, never an error.
    pub fn resolve(&self, ev: &TraceEvent) -> Option<Event> {
        Some(match *ev {
            TraceEvent::Admit { ref graph, weight } => Event::Admit(graph.clone(), weight),
            TraceEvent::Retire { ref app } => Event::Retire(self.handle_of(app)?),
            TraceEvent::Reweight { ref app, weight } => {
                Event::Reweight(self.handle_of(app)?, weight)
            }
            TraceEvent::CostDrift { ref app, factor } => {
                Event::CostDrift(self.handle_of(app)?, factor)
            }
            TraceEvent::PeFailed { node: 0, pe } => Event::PeFailed(pe),
            TraceEvent::PeRestored { node: 0, pe } => Event::PeRestored(pe),
            _ => return None,
        })
    }

    // ---- internals --------------------------------------------------------

    /// The first application whose per-instance period guarantee the
    /// candidate round `period` would break.
    fn guarantee_violation(&self, w: &Workload, period: f64) -> Option<RejectReason> {
        let cap = self.opts.max_period?;
        for info in w.apps() {
            let per_instance = period / info.weight;
            if per_instance > cap * (1.0 + 1e-12) {
                return Some(RejectReason::Guarantee {
                    app: info.name.clone(),
                    period: per_instance,
                    guarantee: cap,
                });
            }
        }
        None
    }

    /// Retry queued admissions after capacity freed up: one rotation
    /// over the queue in FIFO order, each retry a group step of its own
    /// (never re-queued from inside — this loop owns the bookkeeping).
    /// An entry still cooling down from its exponential backoff sits
    /// the pass out; a retry that fails again deepens the backoff and
    /// re-queues — so one unadmittable application no longer blocks
    /// everything behind it — until the entry exhausts
    /// [`ServiceOptions::queue_max_attempts`] and expires with a visible
    /// [`RejectReason::Expired`] report. Reports (both admissions and
    /// expiries) land in the caller's buffer.
    fn drain_queue_into(&mut self, out: &mut Vec<ServeReport>) {
        let mut pass = self.queue.len();
        while pass > 0 {
            pass -= 1;
            let Some(mut q) = self.queue.pop_front() else { break };
            if q.cooldown > 0 {
                q.cooldown -= 1;
                self.queue.push_back(q);
                continue;
            }
            let retry = [Event::Admit(q.graph.clone(), q.weight)];
            let mut outcome = [(retry[0].label(), Verdict::NoChange)];
            match self.replan_group(&retry, &[0], &mut outcome, false) {
                Some(report) if report.applied() => out.push(report),
                Some(mut report) if q.attempts + 1 >= self.opts.queue_max_attempts => {
                    report.verdict = Verdict::Rejected(RejectReason::Expired {
                        app: q.graph.name().to_owned(),
                        attempts: q.attempts + 1,
                    });
                    out.push(report);
                }
                _ => {
                    q.attempts += 1;
                    q.cooldown = 1u32 << q.attempts.min(6);
                    self.queue.push_back(q);
                }
            }
        }
    }

    /// One warm-started replan: carry the seats of `from` (an incumbent
    /// or an earlier candidate; nothing is seated when the service was
    /// idle) over into the reusable scratch vector and repair. Reuses
    /// the same carry-over allocation across every event the service
    /// processes.
    fn replan(
        &mut self,
        from: Option<(&StreamGraph, &Mapping)>,
        new_g: &StreamGraph,
    ) -> (Mapping, f64) {
        let mut partial = std::mem::take(&mut self.scratch_partial);
        match from {
            Some((old_g, old_m)) => carry_over_into(old_g, old_m, new_g, &self.spec, &mut partial),
            None => {
                partial.clear();
                partial.resize(new_g.n_tasks(), None);
            }
        }
        let out = repair(new_g, &self.spec, &self.avail, &partial, &self.opts.repair);
        self.scratch_partial = partial;
        out
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A service is a fleet of one.
impl OnlineSystem for Service {
    fn apply_event(&mut self, ev: &TraceEvent) -> EventOutcome {
        // a name that does not resolve: nothing happened
        let report = self.resolve(ev).and_then(|e| self.process(e).ok());
        let r = report.as_ref();
        EventOutcome {
            applied: r.is_some_and(|r| r.applied() || r.drained.iter().any(|d| d.applied())),
            replan: r.map_or(Duration::ZERO, |r| r.replan),
            migration_bytes: r.map_or(0.0, ServeReport::migration_bytes),
        }
    }

    fn incumbents(&self) -> Vec<(&Workload, &Mapping, &CellSpec)> {
        self.live.iter().map(|l| (&l.workload, &l.mapping, &self.spec)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_core::evaluate;
    use cellstream_daggen::{chain, CostParams};
    use cellstream_graph::TaskSpec;
    use cellstream_platform::{ByteSize, CellSpecBuilder, PeId};

    fn app(name: &str, n: usize) -> StreamGraph {
        chain(name, n, &CostParams::default(), (n * 7 + 1) as u64)
    }

    /// An app whose single cross-task edge carries a huge buffer: fits
    /// nowhere but the PPE.
    fn fat_app(name: &str, kib: f64) -> StreamGraph {
        let mut b = StreamGraph::builder(name);
        let s = b.add_task(TaskSpec::new("s").ppe_cost(5e-6).spe_cost(1e-6));
        let t = b.add_task(TaskSpec::new("t").ppe_cost(5e-6).spe_cost(1e-6));
        b.add_edge(s, t, kib * 1024.0).unwrap();
        b.build().unwrap()
    }

    fn incumbent_feasible(svc: &Service) {
        if let (Some(w), Some(m)) = (svc.workload(), svc.mapping()) {
            let r = evaluate(w.graph(), svc.spec(), m).unwrap();
            assert!(r.is_feasible(), "incumbent must stay feasible: {:?}", r.violations);
            assert!((r.period - svc.period()).abs() <= 1e-9 * r.period.max(1e-12));
        }
    }

    #[test]
    fn lifecycle_admit_reweight_retire() {
        let mut svc = Service::new(CellSpec::ps3());
        assert!(svc.period().is_infinite());
        assert_eq!(svc.n_apps(), 0);

        let r1 = svc.process(Event::Admit(app("a", 5), 1.0)).unwrap();
        let a = r1.admitted().expect("admitted");
        assert_eq!(r1.delta.placed.len(), 5, "first admit places everything");
        assert_eq!(r1.delta.migration_bytes, 0.0, "fresh placements cost no migration");
        incumbent_feasible(&svc);

        let r2 = svc.process(Event::Admit(app("b", 4), 2.0)).unwrap();
        let b = r2.admitted().expect("admitted");
        assert_ne!(a, b, "stable handles are distinct");
        assert_eq!(svc.n_apps(), 2);
        assert_eq!(r2.per_app.len(), 2);
        incumbent_feasible(&svc);

        let r3 = svc.process(Event::Reweight(b, 3.0)).unwrap();
        assert_eq!(r3.verdict, Verdict::Applied);
        incumbent_feasible(&svc);
        // b now three times a's rate: per-instance periods differ 3x
        let reports = svc.app_reports();
        assert!((reports[0].period / reports[1].period - 3.0).abs() < 1e-9);

        let r4 = svc.process(Event::Retire(a)).unwrap();
        assert_eq!(r4.verdict, Verdict::Applied);
        assert!(r4.delta.dropped.iter().all(|t| t.starts_with("a/")));
        assert_eq!(svc.n_apps(), 1);
        // b's stable handle survives a's retirement
        assert_eq!(svc.handle_of("b"), Some(b));
        svc.process(Event::Reweight(b, 1.0)).unwrap();
        incumbent_feasible(&svc);

        let r5 = svc.process(Event::Retire(b)).unwrap();
        assert!(r5.period.is_infinite());
        assert!(svc.workload().is_none());
        // unknown handles are errors, not panics
        assert!(
            matches!(svc.process(Event::Retire(b)), Err(ServeError::UnknownApp(id)) if id == b)
        );
    }

    #[test]
    fn duplicate_names_are_uniquified() {
        let mut svc = Service::new(CellSpec::ps3());
        svc.process(Event::Admit(app("video", 3), 1.0)).unwrap();
        let r = svc.process(Event::Admit(app("video", 3), 1.0)).unwrap();
        assert!(r.admitted().is_some());
        let names: Vec<&str> = svc.apps().map(|(_, n)| n).collect();
        assert_eq!(names.len(), 2);
        assert_eq!(names[0], "video");
        assert!(names[1].starts_with("video#"), "{names:?}");
    }

    #[test]
    fn admission_never_violates_spe_local_store() {
        // one tiny SPE: each fat app fits only on the PPE
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(ByteSize::kib(96))
            .code_size(ByteSize::kib(64))
            .build()
            .unwrap();
        let mut svc = Service::new(spec);
        for i in 0..4 {
            let r = svc.admit(&fat_app(&format!("f{i}"), 64.0), 1.0);
            assert!(r.admitted().is_some(), "feasible via PPE fallback: {:?}", r.verdict);
            incumbent_feasible(&svc);
        }
        // everything fat sits on the PPE, not the overflowing SPE
        let m = svc.mapping().unwrap();
        let w = svc.workload().unwrap();
        let r = evaluate(w.graph(), svc.spec(), m).unwrap();
        assert!(r.is_feasible());
        let _ = m.count_on(PeId(1));
    }

    #[test]
    fn guarantee_rejects_and_queue_drains_on_retire() {
        // PPE-only capacity: each 2-task fat app costs 10us on the PPE;
        // guarantee caps the per-instance period at 25us, so the third
        // app cannot be admitted until one leaves
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(ByteSize::kib(96))
            .code_size(ByteSize::kib(64))
            .build()
            .unwrap();
        let opts =
            ServiceOptions { max_period: Some(25e-6), queue_rejected: true, ..Default::default() };
        let mut svc = Service::with_options(spec, opts);
        let a = svc.admit(&fat_app("a", 64.0), 1.0).admitted().expect("fits");
        let _b = svc.admit(&fat_app("b", 64.0), 1.0).admitted().expect("fits");
        let r = svc.admit(&fat_app("c", 64.0), 1.0);
        assert_eq!(r.verdict, Verdict::Queued, "third app breaks the 25us guarantee");
        assert_eq!(svc.queued(), 1);
        incumbent_feasible(&svc);

        // capacity frees: the queued app enters service
        let r = svc.retire(a).unwrap();
        assert_eq!(r.drained.len(), 1, "queued admission drained on retire");
        assert!(r.drained[0].admitted().is_some());
        assert_eq!(svc.queued(), 0);
        assert_eq!(svc.n_apps(), 2);
        incumbent_feasible(&svc);
    }

    #[test]
    fn retiring_the_last_app_reports_post_drain_state() {
        // the queued app enters service the moment the last live one
        // leaves; the retire report must describe that state, not the
        // momentary idle one between retire and drain
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(ByteSize::kib(96))
            .code_size(ByteSize::kib(64))
            .build()
            .unwrap();
        // one fat app fills the 15us budget alone: c queues behind a
        let opts =
            ServiceOptions { max_period: Some(15e-6), queue_rejected: true, ..Default::default() };
        let mut svc = Service::with_options(spec, opts);
        let a = svc.admit(&fat_app("a", 64.0), 1.0).admitted().expect("fits");
        let c = svc.admit(&fat_app("c", 64.0), 1.0);
        assert_eq!(c.verdict, Verdict::Queued);
        let r = svc.retire(a).unwrap();
        assert_eq!(r.drained.len(), 1, "c enters as the last app leaves");
        assert!(r.period.is_finite(), "the report reflects the drained admission");
        assert_eq!(r.per_app.len(), 1);
        assert_eq!(r.per_app[0].app, "c");
        assert_eq!(svc.n_apps(), 1);
    }

    #[test]
    fn guarantee_rejects_outright_without_queueing() {
        let opts = ServiceOptions { max_period: Some(1e-9), ..Default::default() };
        let mut svc = Service::with_options(CellSpec::ps3(), opts);
        let r = svc.admit(&app("a", 5), 1.0);
        assert!(
            matches!(r.verdict, Verdict::Rejected(RejectReason::Guarantee { .. })),
            "{:?}",
            r.verdict
        );
        assert!(svc.workload().is_none(), "rejected admissions leave the service idle");
        assert_eq!(svc.queued(), 0);
    }

    #[test]
    fn invalid_weights_are_rejected_not_queued() {
        let opts = ServiceOptions { queue_rejected: true, ..Default::default() };
        let mut svc = Service::with_options(CellSpec::ps3(), opts);
        let r = svc.admit(&app("a", 3), f64::NAN);
        assert!(matches!(r.verdict, Verdict::Rejected(RejectReason::InvalidWeight(_))));
        assert_eq!(svc.queued(), 0, "malformed admissions never queue");
        let a = svc.admit(&app("a", 3), 1.0).admitted().unwrap();
        let r = svc.reweight(a, -2.0).unwrap();
        assert!(matches!(r.verdict, Verdict::Rejected(RejectReason::InvalidWeight(_))));
        incumbent_feasible(&svc);
    }

    #[test]
    fn guarantee_breaking_reweight_is_refused_and_reverted() {
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(ByteSize::kib(96))
            .code_size(ByteSize::kib(64))
            .build()
            .unwrap();
        let opts = ServiceOptions { max_period: Some(25e-6), ..Default::default() };
        let mut svc = Service::with_options(spec, opts);
        let a = svc.admit(&fat_app("a", 64.0), 1.0).admitted().unwrap();
        let _b = svc.admit(&fat_app("b", 64.0), 1.0).admitted().unwrap();
        let before = svc.period();
        // weight 40 would need a 40x faster round than the cap allows
        let r = svc.reweight(a, 40.0).unwrap();
        assert!(matches!(r.verdict, Verdict::Rejected(RejectReason::Guarantee { .. })));
        assert_eq!(svc.period(), before, "refused reweight leaves the incumbent untouched");
        assert_eq!(svc.workload().unwrap().app(cellstream_graph::AppId(0)).weight, 1.0);
    }

    #[test]
    fn repair_reports_migration_bytes_when_seats_move() {
        let mut svc = Service::new(CellSpec::with_spes(2));
        svc.admit(&app("a", 6), 1.0);
        // grow the workload until something has to move; sum deltas
        let mut total_moved_bytes = 0.0;
        for i in 0..3 {
            let r = svc.admit(&app(&format!("x{i}"), 5), 1.0);
            assert!(r.admitted().is_some());
            total_moved_bytes += r.delta.migration_bytes;
            for mv in &r.delta.moved {
                assert!(mv.bytes > 0.0);
                assert_ne!(mv.from, mv.to);
            }
            incumbent_feasible(&svc);
        }
        // migration time is consistent with the byte count
        let t = MappingDelta { migration_bytes: total_moved_bytes, ..Default::default() }
            .migration_time(svc.spec());
        assert!(t >= 0.0);
    }

    /// Batched processing must land in the same final state as
    /// processing the same events one at a time in canonical order.
    fn assert_batch_matches_sequential(events: Vec<Event>, seed: &[(&str, usize, f64)]) {
        let mut batched = Service::new(CellSpec::ps3());
        let mut seq = Service::new(CellSpec::ps3());
        for &(name, n, w) in seed {
            let hb = batched.admit(&app(name, n), w).admitted().expect("seed fits");
            let hs = seq.admit(&app(name, n), w).admitted().expect("seed fits");
            assert_eq!(hb, hs, "seeding runs in lockstep");
        }
        let report = batched.process_batch(&events).expect("valid burst");

        // sequential reference: canonical order, same events
        let rank = |ev: &Event| match ev {
            Event::PeFailed(_) | Event::PeRestored(_) | Event::CostDrift(..) => 0u8,
            Event::Retire(_) => 1,
            Event::Reweight(..) => 2,
            Event::Admit(..) => 3,
        };
        let mut order: Vec<usize> = (0..events.len()).collect();
        order.sort_by_key(|&i| rank(&events[i]));
        for &i in &order {
            seq.process(events[i].clone()).expect("valid event");
        }

        let bn: Vec<(AppId, String)> = batched.apps().map(|(h, n)| (h, n.to_owned())).collect();
        let sn: Vec<(AppId, String)> = seq.apps().map(|(h, n)| (h, n.to_owned())).collect();
        assert_eq!(bn, sn, "handles and names agree");
        assert_eq!(batched.workload(), seq.workload(), "composed workloads agree");
        // both replans descend to a feasible local optimum over the SAME
        // composed workload, but from different warm starts (one fused
        // repair vs one per event) — plans may differ, quality must not
        // diverge wildly
        let (bp, sp) = (batched.period(), seq.period());
        assert_eq!(bp.is_finite(), sp.is_finite(), "batched {bp} vs sequential {sp}");
        if bp.is_finite() {
            assert!(bp <= 2.0 * sp && sp <= 2.0 * bp, "batched {bp} vs sequential {sp}");
        }
        incumbent_feasible(&batched);
        incumbent_feasible(&seq);
        assert_eq!(report.events.len(), events.len(), "every event gets a verdict");
    }

    #[test]
    fn batch_matches_sequential_processing() {
        // churn over a seeded service: retires + reweights + admits
        assert_batch_matches_sequential(
            vec![
                Event::Admit(app("d", 4), 1.0),
                Event::Retire(AppId(0)),
                Event::Reweight(AppId(1), 2.5),
                Event::Admit(app("e", 3), 2.0),
                Event::Retire(AppId(2)),
            ],
            &[("a", 5), ("b", 4), ("c", 3)].map(|(n, k)| (n, k, 1.0)),
        );
        // duplicate names uniquify identically
        assert_batch_matches_sequential(
            vec![Event::Admit(app("a", 3), 1.0), Event::Admit(app("a", 3), 2.0)],
            &[("a", 5, 1.0)],
        );
        // burst from idle: admits only
        assert_batch_matches_sequential(
            vec![Event::Admit(app("x", 4), 1.0), Event::Admit(app("y", 3), 3.0)],
            &[],
        );
        // invalid weights are rejected in place, rest applies
        assert_batch_matches_sequential(
            vec![
                Event::Admit(app("x", 3), f64::NAN),
                Event::Reweight(AppId(0), -1.0),
                Event::Admit(app("y", 3), 1.0),
            ],
            &[("a", 4, 1.0)],
        );
    }

    #[test]
    fn batch_empties_and_refills_the_service() {
        let mut svc = Service::new(CellSpec::ps3());
        let a = svc.admit(&app("a", 4), 1.0).admitted().unwrap();
        let b = svc.admit(&app("b", 3), 1.0).admitted().unwrap();
        let r = svc
            .process_batch(&[Event::Retire(a), Event::Retire(b), Event::Admit(app("c", 5), 2.0)])
            .unwrap();
        assert_eq!(r.applied(), 3);
        assert_eq!(svc.n_apps(), 1);
        let names: Vec<&str> = svc.apps().map(|(_, n)| n).collect();
        assert_eq!(names, ["c"]);
        incumbent_feasible(&svc);

        // emptying burst goes idle
        let c = svc.handle_of("c").unwrap();
        let r = svc.process_batch(&[Event::Retire(c)]).unwrap();
        assert!(r.period.is_infinite());
        assert!(svc.workload().is_none());
        assert!(r.delta.dropped.iter().all(|t| t.starts_with("c/")));
    }

    #[test]
    fn a_burst_that_applies_nothing_reports_the_incumbent() {
        let mut svc = Service::new(CellSpec::ps3());
        let a = svc.admit(&app("a", 4), 1.0).admitted().unwrap();
        let r = svc
            .process_batch(&[Event::Reweight(a, f64::NAN), Event::Admit(app("b", 3), 0.0)])
            .unwrap();
        assert_eq!(r.applied(), 0, "both weights are malformed");
        assert!(r.delta.is_empty());
        assert_eq!(svc.n_apps(), 1);
        let names: Vec<&str> = r.per_app.iter().map(|p| p.app.as_str()).collect();
        assert_eq!(names, ["a"], "per_app describes the untouched incumbent");
        assert_eq!(r.per_app[0].period.to_bits(), svc.app_reports()[0].period.to_bits());
        assert_eq!(r.period.to_bits(), svc.period().to_bits());
    }

    #[test]
    fn batch_verdicts_come_back_in_request_order() {
        let mut svc = Service::new(CellSpec::ps3());
        let a = svc.admit(&app("a", 4), 1.0).admitted().unwrap();
        let b = svc.admit(&app("b", 3), 1.0).admitted().unwrap();
        // canonical order applies the fault, then the retire, then the
        // reweight, then the admit; the report lists them as requested
        let r = svc
            .process_batch(&[
                Event::Admit(app("c", 3), 2.0),
                Event::Reweight(b, 2.0),
                Event::Retire(a),
                Event::PeFailed(PeId(3)),
            ])
            .unwrap();
        let kinds: Vec<&str> = r.events.iter().map(|(label, _)| label.kind).collect();
        assert_eq!(kinds, ["admit", "reweight", "retire", "pe failed"]);
        assert!(matches!(r.events[0].1, Verdict::Admitted(_)));
        assert_eq!(r.applied(), 4);
        let names: Vec<&str> = svc.apps().map(|(_, n)| n).collect();
        assert_eq!(names, ["b", "c"]);
        incumbent_feasible_live(&svc);
    }

    #[test]
    fn batch_validates_handles_upfront() {
        let mut svc = Service::new(CellSpec::ps3());
        let a = svc.admit(&app("a", 4), 1.0).admitted().unwrap();
        let bogus = AppId(99);
        let before = svc.period();
        let err = svc
            .process_batch(&[Event::Admit(app("b", 3), 1.0), Event::Reweight(bogus, 2.0)])
            .unwrap_err();
        assert_eq!(err, ServeError::UnknownApp(bogus));
        assert_eq!(svc.n_apps(), 1, "nothing applied");
        assert_eq!(svc.period(), before);

        // reweighting a handle the same burst retires resolves
        // retire-first and fails the burst
        let err = svc.process_batch(&[Event::Reweight(a, 2.0), Event::Retire(a)]).unwrap_err();
        assert_eq!(err, ServeError::UnknownApp(a));
        assert_eq!(svc.n_apps(), 1);
    }

    #[test]
    fn guarantee_gated_batches_refuse_selectively() {
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(ByteSize::kib(96))
            .code_size(ByteSize::kib(64))
            .build()
            .unwrap();
        let opts = ServiceOptions { max_period: Some(25e-6), ..Default::default() };
        let mut svc = Service::with_options(spec, opts);
        let a = svc.admit(&fat_app("a", 64.0), 1.0).admitted().expect("fits");
        // b fits next to a, c breaks the guarantee and is refused —
        // under a guarantee every request is a group of its own
        let r = svc
            .process_batch(&[
                Event::Admit(fat_app("b", 64.0), 1.0),
                Event::Admit(fat_app("c", 64.0), 1.0),
            ])
            .unwrap();
        let verdicts: Vec<bool> =
            r.events.iter().map(|(_, v)| matches!(v, Verdict::Admitted(_))).collect();
        assert_eq!(verdicts, [true, false], "b admitted, c refused");
        assert_eq!(svc.n_apps(), 2);
        incumbent_feasible(&svc);
        let _ = a;
    }

    #[test]
    fn background_improver_adopts_better_plans() {
        let opts = ServiceOptions {
            background: Some(Duration::from_millis(600)),
            // crippled foreground repair: no refinement at all, so the
            // background portfolio has something to improve
            repair: LocalSearchOptions { max_rounds: 0, ..Default::default() },
            ..Default::default()
        };
        let mut svc = Service::with_options(CellSpec::ps3(), opts);
        let r = svc.admit(&app("a", 8), 1.0);
        assert!(r.admitted().is_some());
        let rough = svc.period();
        // wait for the background portfolio to finish, then poll
        let deadline = Instant::now() + Duration::from_secs(30);
        let adoption = loop {
            match svc.poll_background() {
                Some(rep) => break rep,
                None => {
                    assert!(Instant::now() < deadline, "background solve never concluded");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        };
        match adoption.verdict {
            Verdict::Adopted => {
                assert!(svc.period() < rough, "adoption must improve the period");
                assert!(adoption.delta.n_moved() > 0);
            }
            Verdict::NoChange => {
                // legal only if the unrefined repair was already optimal
                assert!(svc.period() <= rough);
            }
            other => panic!("unexpected background verdict {other:?}"),
        }
        incumbent_feasible(&svc);
        // polling again finds nothing in flight
        assert!(svc.poll_background().is_none());
    }

    fn incumbent_feasible_live(svc: &Service) {
        if let (Some(w), Some(m)) = (svc.workload(), svc.mapping()) {
            let r = cellstream_core::evaluate_with(w.graph(), svc.spec(), svc.availability(), m)
                .unwrap();
            assert!(r.is_feasible(), "incumbent must stay feasible: {:?}", r.violations);
            assert!((r.period - svc.period()).abs() <= 1e-9 * r.period.max(1e-12));
        }
    }

    #[test]
    fn spe_failure_evacuates_and_restore_rebalances() {
        let mut svc = Service::new(CellSpec::ps3());
        svc.admit(&app("a", 8), 1.0).admitted().unwrap();
        svc.admit(&app("b", 6), 2.0).admitted().unwrap();
        let pre_period = svc.period();
        // pick an SPE that actually holds seats
        let dead = svc
            .mapping()
            .unwrap()
            .assignment()
            .iter()
            .copied()
            .find(|pe| pe.index() > 0)
            .expect("the plan uses SPEs");
        let seats = svc.mapping().unwrap().count_on(dead);

        let r = svc.fail_pe(dead).unwrap();
        let rec = r.recovery.as_ref().expect("fault events report recovery");
        assert_eq!(rec.evacuated_seats, seats);
        assert!(rec.shed.is_empty(), "a PS3 absorbs one SPE loss without shedding");
        assert_eq!(svc.mapping().unwrap().count_on(dead), 0, "dead PE fully evacuated");
        assert!(svc.period() >= pre_period - 1e-15, "less capacity cannot speed the round up");
        incumbent_feasible_live(&svc);

        // idempotent second failure
        let r2 = svc.fail_pe(dead).unwrap();
        assert_eq!(r2.recovery.as_ref().unwrap().evacuated_seats, 0);
        assert_eq!(r2.delta.n_moved(), 0);

        // restore: capacity returns, period never worsens
        let failed_period = svc.period();
        let r3 = svc.process(Event::PeRestored(dead)).unwrap();
        assert!(r3.recovery.is_some());
        assert!(svc.period() <= failed_period + 1e-15);
        incumbent_feasible_live(&svc);

        // the PPE cannot fail — the serving loop runs there
        assert!(matches!(svc.fail_pe(PeId(0)), Err(ServeError::InvalidPe(PeId(0)))));
        assert!(matches!(svc.fail_pe(PeId(99)), Err(ServeError::InvalidPe(PeId(99)))));
    }

    #[test]
    fn restoring_an_spe_that_never_failed_is_a_no_op() {
        // one descent round a replan: the incumbent is not a fixed point
        // of the descent, so a restore that replanned would move seats
        let repair = LocalSearchOptions { max_rounds: 1, ..Default::default() };
        let opts = ServiceOptions { repair, ..Default::default() };
        let mut svc = Service::with_options(CellSpec::ps3(), opts);
        svc.admit(&app("a", 8), 1.0).admitted().unwrap();
        svc.admit(&app("b", 6), 2.0).admitted().unwrap();
        let assert_untouched = |svc: &mut Service, pe: PeId| {
            let (mapping, period) = (svc.mapping().unwrap().clone(), svc.period());
            let mask = svc.availability().clone();
            let r = svc.process(Event::PeRestored(pe)).unwrap();
            assert!(r.delta.is_empty(), "restoring live {pe} moved seats: {:?}", r.delta);
            assert_eq!(svc.mapping(), Some(&mapping));
            assert_eq!(svc.period().to_bits(), period.to_bits());
            assert_eq!(svc.availability(), &mask);
        };
        assert_untouched(&mut svc, PeId(3));
        // on an impaired platform too: the dead SPE stays dead
        svc.fail_pe(PeId(2)).unwrap();
        assert_untouched(&mut svc, PeId(3));
        assert!(svc.availability().is_dead(PeId(2)));
    }

    /// Cheap on the SPE, expensive on the PPE, tiny edge: fits
    /// anywhere, but PPE-only plans are 5x slower.
    fn lean_app(name: &str) -> StreamGraph {
        let mut b = StreamGraph::builder(name);
        let s = b.add_task(TaskSpec::new("s").ppe_cost(10e-6).spe_cost(2e-6));
        let t = b.add_task(TaskSpec::new("t").ppe_cost(10e-6).spe_cost(2e-6));
        b.add_edge(s, t, 1024.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn failure_sheds_lowest_weight_and_restore_readmits() {
        // one SPE + guarantee sized so both apps fit only with the SPE
        // alive: its failure must shed the lighter app, visibly.
        // PPE-only arithmetic: heavy(w=2) 40us + light(w=1) 20us = 60us
        // round, light's per-instance 60us > 30us cap; heavy alone runs
        // 40us, per-instance 20us — under the cap
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(ByteSize::kib(256))
            .code_size(ByteSize::kib(64))
            .build()
            .unwrap();
        let opts =
            ServiceOptions { max_period: Some(30e-6), queue_rejected: true, ..Default::default() };
        let mut svc = Service::with_options(spec, opts);
        svc.admit(&lean_app("heavy"), 2.0).admitted().expect("fits");
        svc.admit(&lean_app("light"), 1.0).admitted().expect("fits");
        assert_eq!(svc.n_apps(), 2);

        let r = svc.fail_pe(PeId(1)).unwrap();
        let rec = r.recovery.as_ref().unwrap();
        assert_eq!(rec.shed, ["light"], "lowest weight sheds first");
        assert_eq!(svc.n_apps(), 1);
        assert_eq!(svc.queued(), 1, "shed apps park in the retry queue");
        incumbent_feasible_live(&svc);

        // restoring the SPE re-admits the shed app
        let r2 = svc.process(Event::PeRestored(PeId(1))).unwrap();
        assert_eq!(r2.drained.len(), 1, "shed app re-enters on restore");
        assert!(r2.drained[0].admitted().is_some());
        assert_eq!(svc.n_apps(), 2);
        assert_eq!(svc.queued(), 0);
        incumbent_feasible_live(&svc);
    }

    #[test]
    fn cost_drift_rescales_and_revalidates() {
        let mut svc = Service::new(CellSpec::ps3());
        let a = svc.admit(&app("a", 5), 1.0).admitted().unwrap();
        let before = svc.period();
        let r = svc.cost_drift(a, 3.0).unwrap();
        assert_eq!(r.verdict, Verdict::Applied);
        assert!(r.recovery.is_some());
        assert!(svc.period() > before, "3x heavier tasks slow the round");
        incumbent_feasible_live(&svc);
        // drift composes: 3 × (1/3) = declared costs again
        svc.cost_drift(a, 1.0 / 3.0).unwrap();
        assert!((svc.period() - before).abs() <= 1e-9 * before);
        // malformed factors are rejected, incumbent untouched
        let r = svc.cost_drift(a, f64::NAN).unwrap();
        assert!(matches!(r.verdict, Verdict::Rejected(RejectReason::InvalidFactor(_))));
        assert!((svc.period() - before).abs() <= 1e-9 * before);
        // unknown handles are errors
        assert!(matches!(svc.cost_drift(AppId(99), 2.0), Err(ServeError::UnknownApp(_))));
    }

    #[test]
    fn cost_drift_can_shed_under_guarantee() {
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(ByteSize::kib(96))
            .code_size(ByteSize::kib(64))
            .build()
            .unwrap();
        // PPE-only arithmetic: a(w=1) 10us + b(w=2) 20us = 30us round,
        // per-instance a 30us, b 15us — inside the 45us cap. After b's
        // costs quadruple: 10 + 80 = 90us, a's per-instance 90us > 45us
        // cap → shed a; b alone runs 80us, per-instance 40us — fits
        let opts =
            ServiceOptions { max_period: Some(45e-6), queue_rejected: true, ..Default::default() };
        let mut svc = Service::with_options(spec, opts);
        svc.admit(&fat_app("a", 64.0), 1.0).admitted().expect("fits");
        let b = svc.admit(&fat_app("b", 64.0), 2.0).admitted().expect("fits");
        // b's costs quadruple: the pair no longer fits the guarantee, so
        // the lighter app sheds (drift is reality — it cannot be refused)
        let r = svc.cost_drift(b, 4.0).unwrap();
        assert_eq!(r.verdict, Verdict::Applied);
        assert_eq!(r.recovery.as_ref().unwrap().shed, ["a"]);
        assert_eq!(svc.n_apps(), 1);
        assert_eq!(svc.queued(), 1);
        incumbent_feasible_live(&svc);
    }

    #[test]
    fn queue_retries_are_bounded_with_backoff_and_expiry() {
        // a queue entry that can never be admitted must expire after
        // queue_max_attempts, not starve the drain loop forever
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(ByteSize::kib(96))
            .code_size(ByteSize::kib(64))
            .build()
            .unwrap();
        let opts = ServiceOptions {
            max_period: Some(25e-6),
            queue_rejected: true,
            queue_max_attempts: 3,
            ..Default::default()
        };
        let mut svc = Service::with_options(spec, opts);
        let a = svc.admit(&fat_app("a", 64.0), 1.0).admitted().expect("fits");
        let _b = svc.admit(&fat_app("b", 64.0), 1.0).admitted().expect("fits");
        // hog can never fit under the guarantee next to a and b, and a
        // reweight churn keeps triggering drains
        let hog = fat_app("hog", 64.0);
        assert_eq!(svc.admit(&hog, 10.0).verdict, Verdict::Queued);
        assert_eq!(svc.queued(), 1);
        let mut expired = None;
        // each reweight triggers one drain pass; with backoff the entry
        // sits out 2^attempts passes between retries
        for _ in 0..20 {
            let r = svc.reweight(a, 1.0).unwrap();
            if let Some(exp) = r
                .drained
                .iter()
                .find(|d| matches!(d.verdict, Verdict::Rejected(RejectReason::Expired { .. })))
            {
                expired = Some(exp.clone());
                break;
            }
        }
        let exp = expired.expect("the hopeless entry expires within the retry budget");
        match &exp.verdict {
            Verdict::Rejected(RejectReason::Expired { app, attempts }) => {
                assert_eq!(app, "hog");
                assert_eq!(*attempts, 3);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
        assert_eq!(svc.queued(), 0, "expired entries leave the queue for good");
        assert_eq!(svc.n_apps(), 2, "residents were never disturbed");
    }

    #[test]
    fn backoff_does_not_starve_later_queue_entries() {
        // head-of-line: an unadmittable heavy entry in front must not
        // block a small app behind it once capacity frees up
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(ByteSize::kib(96))
            .code_size(ByteSize::kib(64))
            .build()
            .unwrap();
        let opts = ServiceOptions {
            max_period: Some(25e-6),
            queue_rejected: true,
            queue_max_attempts: 8,
            ..Default::default()
        };
        let mut svc = Service::with_options(spec, opts);
        let a = svc.admit(&fat_app("a", 64.0), 1.0).admitted().expect("fits");
        let _b = svc.admit(&fat_app("b", 64.0), 1.0).admitted().expect("fits");
        assert_eq!(svc.admit(&fat_app("hog", 64.0), 40.0).verdict, Verdict::Queued);
        assert_eq!(svc.admit(&fat_app("small", 64.0), 1.0).verdict, Verdict::Queued);
        // retiring a frees room for "small" but never for "hog"
        let r = svc.retire(a).unwrap();
        let admitted: Vec<_> =
            r.drained.iter().filter_map(|d| d.admitted().map(|_| d.event.kind)).collect();
        assert_eq!(admitted.len(), 1, "small admitted past the blocked hog: {:?}", r.drained);
        assert!(svc.handle_of("small").is_some());
        assert_eq!(svc.n_apps(), 2);
        assert_eq!(svc.queued(), 1, "hog keeps waiting with deeper backoff");
    }

    #[test]
    fn new_events_abort_the_background_solve() {
        let opts = ServiceOptions {
            background: Some(Duration::from_secs(120)), // would run for minutes
            ..Default::default()
        };
        let mut svc = Service::with_options(CellSpec::ps3(), opts);
        svc.admit(&app("a", 10), 1.0);
        let started = Instant::now();
        // the admit spawned a 120s-budget solve; the next event must
        // cancel it cooperatively instead of waiting it out
        let r = svc.admit(&app("b", 8), 1.0);
        assert!(r.admitted().is_some());
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "event waited {:?} on a cancelled background solve",
            started.elapsed()
        );
        svc.shutdown();
        incumbent_feasible(&svc);
    }
}
