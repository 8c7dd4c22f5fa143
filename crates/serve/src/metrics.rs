//! Serving-loop telemetry: the metric cells and flight recorder every
//! event path feeds, and the snapshot builder that exposes them.
//!
//! [`ServeMetrics`] is interior-mutable (atomics plus the recorder's
//! mutexed ring), so recording needs `&self` — the service records from
//! inside `&mut self` event handlers, and the pipeline planner thread
//! shares the same cells through [`Service::metrics_handle`]. The
//! record paths are allocation-free and panic-free: this module is part
//! of the serving hot path and is covered by the `hot-path-panic` and
//! `no-alloc` lint scopes plus the telemetry counting-allocator suite.
//!
//! [`Service::metrics_handle`]: crate::Service::metrics_handle

use crate::report::{RejectReason, ServeReport, Verdict};
use cellstream_telemetry::{Counter, FlightEvent, FlightRecorder, Gauge, Histogram};

/// A [`Verdict`] as a static exposition label.
fn verdict_name(v: &Verdict) -> &'static str {
    match v {
        Verdict::Admitted(_) => "admitted",
        Verdict::Queued => "queued",
        Verdict::Rejected(_) => "rejected",
        Verdict::Applied => "applied",
        Verdict::Adopted => "adopted",
        Verdict::NoChange => "nochange",
    }
}

/// Every metric cell the serving loop maintains. Field docs double as
/// the metric catalogue (see DESIGN.md "Observability").
#[derive(Debug)]
pub struct ServeMetrics {
    enabled: bool,
    /// Events processed, whichever entry point carried them.
    pub events_total: Counter,
    /// Events ending [`Verdict::Admitted`].
    pub admitted_total: Counter,
    /// Events ending [`Verdict::Applied`].
    pub applied_total: Counter,
    /// Events ending [`Verdict::Queued`].
    pub queued_total: Counter,
    /// Events ending [`Verdict::Rejected`].
    pub rejected_total: Counter,
    /// Background polls ending [`Verdict::Adopted`].
    pub adopted_total: Counter,
    /// Events ending [`Verdict::NoChange`].
    pub nochange_total: Counter,
    /// Replan wall-clock latency, nanoseconds.
    pub replan_ns: Histogram,
    /// EIB migration traffic of every replan, bytes (rounded).
    pub migration_bytes_total: Counter,
    /// Retry-queue depth after the most recent event.
    pub queue_depth: Gauge,
    /// Queued admissions that entered service on a drain pass.
    pub readmitted_total: Counter,
    /// Queued admissions that exhausted their retry budget.
    pub expired_total: Counter,
    /// Fault events that ran the recovery replan.
    pub recoveries_total: Counter,
    /// Applications shed by recovery (queued or handed out).
    pub shed_total: Counter,
    /// Seats evacuated off failed PEs by recovery replans.
    pub evacuated_seats_total: Counter,
    /// `process_batch` calls.
    pub batches_total: Counter,
    /// Events per `process_batch` call.
    pub batch_events: Histogram,
    /// Intake-ring occupancy observed by the pipeline planner at each
    /// batch start.
    pub ring_occupancy: Histogram,
    /// Batch cuts before `max_batch`: same-name dependencies and fault
    /// barriers that ended fusion early.
    pub skipped_fusions_total: Counter,
    /// The replan flight recorder (drain after a storm).
    pub recorder: FlightRecorder,
}

impl ServeMetrics {
    /// Fresh cells; `enabled` off turns every record call into an
    /// early-return (the overhead-comparison baseline).
    pub fn new(enabled: bool) -> ServeMetrics {
        ServeMetrics {
            enabled,
            events_total: Counter::new(),
            admitted_total: Counter::new(),
            applied_total: Counter::new(),
            queued_total: Counter::new(),
            rejected_total: Counter::new(),
            adopted_total: Counter::new(),
            nochange_total: Counter::new(),
            replan_ns: Histogram::new(),
            migration_bytes_total: Counter::new(),
            queue_depth: Gauge::new(),
            readmitted_total: Counter::new(),
            expired_total: Counter::new(),
            recoveries_total: Counter::new(),
            shed_total: Counter::new(),
            evacuated_seats_total: Counter::new(),
            batches_total: Counter::new(),
            batch_events: Histogram::new(),
            ring_occupancy: Histogram::new(),
            skipped_fusions_total: Counter::new(),
            recorder: FlightRecorder::default(),
        }
    }

    /// Whether recording is on ([`ServiceOptions::telemetry`]).
    ///
    /// [`ServiceOptions::telemetry`]: crate::ServiceOptions::telemetry
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Bump the per-verdict counter.
    // check: no-alloc
    fn note_verdict(&self, v: &Verdict) {
        match v {
            Verdict::Admitted(_) => self.admitted_total.inc(),
            Verdict::Queued => self.queued_total.inc(),
            Verdict::Rejected(_) => self.rejected_total.inc(),
            Verdict::Applied => self.applied_total.inc(),
            Verdict::Adopted => self.adopted_total.inc(),
            Verdict::NoChange => self.nochange_total.inc(),
        }
    }

    /// Count a drained sub-report: a queued admission re-entering
    /// service or expiring out of it.
    // check: no-alloc
    fn note_drained(&self, d: &ServeReport) {
        match &d.verdict {
            Verdict::Admitted(_) => self.readmitted_total.inc(),
            Verdict::Rejected(RejectReason::Expired { .. }) => self.expired_total.inc(),
            _ => {}
        }
    }

    /// Record one group step's report — or one background poll's:
    /// per-verdict counters for the events it covers (`verdicts`: one
    /// for a single event, several for a fused group), the replan
    /// histogram and one flight-recorder entry. `stranded` is the
    /// shed-ledger size after the step ([`Service::take_shed`] backlog).
    ///
    /// [`Service::take_shed`]: crate::Service::take_shed
    // check: no-alloc
    pub(crate) fn note_report<'a>(
        &self,
        r: &ServeReport,
        verdicts: impl Iterator<Item = &'a Verdict>,
        stranded: usize,
    ) {
        if !self.enabled {
            return;
        }
        for v in verdicts {
            self.events_total.inc();
            self.note_verdict(v);
        }
        self.replan_ns.record_duration(r.replan);
        let migration = r.migration_bytes();
        self.migration_bytes_total.add(migration as u64);
        self.queue_depth.set_usize(r.queue_depth);
        let mut shed = 0u32;
        if let Some(rec) = &r.recovery {
            self.recoveries_total.inc();
            shed = rec.shed.len() as u32;
            self.shed_total.add(u64::from(shed));
            self.evacuated_seats_total.add(rec.evacuated_seats as u64);
        }
        for d in &r.drained {
            self.note_drained(d);
        }
        self.recorder.record(FlightEvent {
            seq: 0,
            kind: r.event.kind,
            verdict: verdict_name(&r.verdict),
            replan_ns: u64::try_from(r.replan.as_nanos()).unwrap_or(u64::MAX),
            migration_bytes: migration,
            shed,
            stranded: stranded as u32,
            queued: r.queue_depth as u32,
            mask_delta: match r.event.kind {
                "pe failed" => -1,
                "pe restored" => 1,
                _ => 0,
            },
        });
    }

    /// Record the shape of one `process_batch` call; its events reached
    /// the cells group by group through [`Self::note_report`].
    // check: no-alloc
    pub(crate) fn note_batch(&self, events: usize) {
        if !self.enabled {
            return;
        }
        self.batches_total.inc();
        self.batch_events.record(events as u64);
    }
}
