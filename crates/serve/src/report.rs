//! What the serving loop reports: event labels, verdicts, and the
//! per-event and per-burst reports.

use cellstream_core::workload::AppReport;
use cellstream_core::MappingDelta;
use cellstream_graph::AppId;
use cellstream_platform::{CellSpec, PeId};
use std::fmt;
use std::time::Duration;

/// Allocation-free label of a processed event: a static kind plus the
/// handle/weight operands, formatted on demand. The hot path used to
/// build a `String` per event even when nobody printed it; this is the
/// same information as plain copies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventLabel {
    /// Event class: `"admit"`, `"retire"`, `"reweight"`,
    /// `"pe failed"`, `"pe restored"`, `"cost drift"`,
    /// `"background solve"`.
    pub kind: &'static str,
    /// The application handle, once known (admissions get theirs at
    /// commit).
    pub app: Option<AppId>,
    /// The requested weight, for admits and reweights.
    pub weight: Option<f64>,
    /// The processing element, for PE fail/restore events.
    pub pe: Option<PeId>,
    /// The drift factor, for cost-drift events.
    pub factor: Option<f64>,
}

impl EventLabel {
    /// Label of an admission.
    pub fn admit(weight: f64) -> Self {
        EventLabel { kind: "admit", app: None, weight: Some(weight), pe: None, factor: None }
    }

    /// Label of a retirement.
    pub fn retire(app: AppId) -> Self {
        EventLabel { kind: "retire", app: Some(app), weight: None, pe: None, factor: None }
    }

    /// Label of a weight change.
    pub fn reweight(app: AppId, weight: f64) -> Self {
        EventLabel {
            kind: "reweight",
            app: Some(app),
            weight: Some(weight),
            pe: None,
            factor: None,
        }
    }

    /// Label of a PE failure.
    pub fn pe_failed(pe: PeId) -> Self {
        EventLabel { kind: "pe failed", app: None, weight: None, pe: Some(pe), factor: None }
    }

    /// Label of a PE restoration.
    pub fn pe_restored(pe: PeId) -> Self {
        EventLabel { kind: "pe restored", app: None, weight: None, pe: Some(pe), factor: None }
    }

    /// Label of a cost-drift correction.
    pub fn cost_drift(app: AppId, factor: f64) -> Self {
        EventLabel {
            kind: "cost drift",
            app: Some(app),
            weight: None,
            pe: None,
            factor: Some(factor),
        }
    }

    /// Label of a background-solve conclusion.
    pub fn background() -> Self {
        EventLabel { kind: "background solve", app: None, weight: None, pe: None, factor: None }
    }

    /// Label of a fused group: several events behind one replan.
    pub(crate) fn batch() -> Self {
        EventLabel { kind: "batch", app: None, weight: None, pe: None, factor: None }
    }

    /// The same label with the handle filled in.
    pub(crate) fn with_app(self, app: AppId) -> Self {
        EventLabel { app: Some(app), ..self }
    }
}

impl fmt::Display for EventLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(app) = self.app {
            write!(f, " {app}")?;
        }
        if let Some(pe) = self.pe {
            write!(f, " {pe}")?;
        }
        if let Some(w) = self.weight {
            write!(f, " w={w}")?;
        }
        if let Some(x) = self.factor {
            write!(f, " x{x}")?;
        }
        Ok(())
    }
}

/// Why an admission (or a reweight) was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// No feasible placement exists at all (defensive: the repair
    /// planner can always fall back to the PPE, so this indicates a
    /// platform without one).
    Infeasible,
    /// The requested weight was zero, negative or non-finite. Never
    /// queued — it cannot succeed later.
    InvalidWeight(f64),
    /// The candidate plan would break this application's per-instance
    /// period guarantee.
    Guarantee {
        /// The application whose guarantee would break (may be a
        /// resident one, not the arriving one).
        app: String,
        /// Its per-instance period under the candidate plan (seconds).
        period: f64,
        /// The configured cap ([`ServiceOptions::max_period`](crate::ServiceOptions::max_period)).
        guarantee: f64,
    },
    /// A cost-drift factor was zero, negative or non-finite.
    InvalidFactor(f64),
    /// A queued admission exhausted its retry budget
    /// ([`ServiceOptions::queue_max_attempts`](crate::ServiceOptions::queue_max_attempts)) and left the queue for
    /// good — dropped visibly, never silently.
    Expired {
        /// The application that gave up waiting.
        app: String,
        /// Admission attempts made before expiring.
        attempts: u32,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Infeasible => write!(f, "no feasible placement"),
            RejectReason::InvalidWeight(w) => {
                write!(f, "weight must be positive finite, got {w}")
            }
            RejectReason::Guarantee { app, period, guarantee } => write!(
                f,
                "'{app}' would run at {:.3} us > guaranteed {:.3} us",
                period * 1e6,
                guarantee * 1e6
            ),
            RejectReason::InvalidFactor(x) => {
                write!(f, "drift factor must be positive finite, got {x}")
            }
            RejectReason::Expired { app, attempts } => {
                write!(f, "'{app}' expired from the admission queue after {attempts} attempts")
            }
        }
    }
}

/// What happened to one event.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Admission succeeded; the handle addresses the application from
    /// now on.
    Admitted(AppId),
    /// Admission control refused the application and
    /// [`ServiceOptions::queue_rejected`](crate::ServiceOptions::queue_rejected) parked it for retry when
    /// capacity frees up.
    Queued,
    /// Admission control (or a guarantee-breaking reweight) refused.
    Rejected(RejectReason),
    /// A retire/reweight took effect.
    Applied,
    /// A background portfolio plan was adopted
    /// ([`Service::poll_background`](crate::Service::poll_background)).
    Adopted,
    /// A background solve concluded without beating the incumbent (or
    /// arrived stale) and was discarded.
    NoChange,
}

/// Errors from [`Service::process`](crate::Service::process): malformed events, not admission
/// outcomes (a refused admission is a [`Verdict`], not an error).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No live application has this handle.
    UnknownApp(AppId),
    /// A PE fail/restore named a PE that cannot be failed: out of range,
    /// or the PPE — the serving loop itself runs there, so a dead PPE
    /// means a dead node (the cluster layer's event, not this one).
    InvalidPe(PeId),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownApp(id) => write!(f, "no live application with handle {id}"),
            ServeError::InvalidPe(pe) => {
                write!(f, "{pe} cannot fail or be restored (out of range, or the control PPE)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-event report: what the service did and what it cost.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Label of the processed event.
    pub event: EventLabel,
    /// The outcome.
    pub verdict: Verdict,
    /// Wall-clock replanning latency (compose + repair + checks).
    pub replan: Duration,
    /// What changed between the previous and the new incumbent mapping
    /// (empty when nothing was adopted).
    pub delta: MappingDelta,
    /// Composed round period after the event (`+∞` while idle).
    pub period: f64,
    /// Per-application reports after the event (guarantee `w/T`,
    /// fair-share prediction, isolated bound — see
    /// [`cellstream_core::workload::AppReport`]).
    pub per_app: Vec<AppReport>,
    /// `true` if a finished background solve was adopted while handling
    /// this event (before the event's own replanning).
    pub background_adopted: bool,
    /// The adoption's own task moves when `background_adopted` — the
    /// EIB traffic of switching to the background plan, separate from
    /// [`delta`](Self::delta) (which diffs against the already-adopted
    /// incumbent). Empty otherwise.
    pub background_delta: MappingDelta,
    /// Reports of queued admissions that entered service because this
    /// event freed capacity.
    pub drained: Vec<ServeReport>,
    /// Recovery metrics when this event was a fault (PE fail/restore,
    /// cost drift); `None` for ordinary churn events.
    pub recovery: Option<RecoveryReport>,
    /// Retry-queue depth after this event (drains included).
    pub queue_depth: usize,
    /// Per-application backoff state of everything still parked in the
    /// retry queue after this event, in FIFO order.
    pub queue_backoff: Vec<QueueBackoff>,
}

/// One parked admission's retry bookkeeping, itemised in
/// [`ServeReport::queue_backoff`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueueBackoff {
    /// The queued application's name.
    pub app: String,
    /// Failed admission attempts so far.
    pub attempts: u32,
    /// Drain passes the entry still sits out (exponential backoff,
    /// `2^attempts` capped at 64).
    pub cooldown: u32,
}

/// What recovering from one fault event cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Seats the fault stranded on the failed PE — every one was
    /// evacuated by the recovery replan (or shed with its application).
    pub evacuated_seats: usize,
    /// EIB bytes the recovery replan moved (§4.2 migration cost of the
    /// whole recovery delta, including rebalancing ripple moves).
    pub migration_bytes: f64,
    /// Applications shed into the retry queue — lowest weight first —
    /// because the post-fault platform could not carry everyone within
    /// feasibility and guarantees. Never silently dropped: shed apps
    /// retry on every capacity change until admitted or expired.
    pub shed: Vec<String>,
}

impl ServeReport {
    /// The assigned handle when this event admitted an application.
    pub fn admitted(&self) -> Option<AppId> {
        match self.verdict {
            Verdict::Admitted(id) => Some(id),
            _ => None,
        }
    }

    /// `true` when the event changed the served workload.
    pub fn applied(&self) -> bool {
        matches!(self.verdict, Verdict::Admitted(_) | Verdict::Applied | Verdict::Adopted)
    }

    /// Migration traffic this event's replan pushes over the EIB (bytes;
    /// includes a background adoption folded into this event and any
    /// drained queue admissions).
    pub fn migration_bytes(&self) -> f64 {
        self.delta.migration_bytes
            + self.background_delta.migration_bytes
            + self.drained.iter().map(ServeReport::migration_bytes).sum::<f64>()
    }

    /// Seconds the migration traffic occupies the EIB.
    pub fn migration_time(&self, spec: &CellSpec) -> f64 {
        self.delta.migration_time(spec)
            + self.background_delta.migration_time(spec)
            + self.drained.iter().map(|r| r.migration_time(spec)).sum::<f64>()
    }
}

/// What one burst did: per-event verdicts plus the folded cost of the
/// group replans that carried it (one, when the burst fuses) — see
/// [`Service::process_batch`](crate::Service::process_batch).
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-event labels and verdicts, in request order.
    pub events: Vec<(EventLabel, Verdict)>,
    /// Wall-clock latency of the whole burst.
    pub replan: Duration,
    /// Seat changes the burst's replans made, group after group — for
    /// a burst that fuses into one replan, the diff between the
    /// pre-burst and post-burst incumbents.
    pub delta: MappingDelta,
    /// Composed round period after the burst (`+∞` when it emptied the
    /// service).
    pub period: f64,
    /// Per-application reports after the burst (empty when
    /// [`ServiceOptions::per_app_reports`](crate::ServiceOptions::per_app_reports)
    /// is off).
    pub per_app: Vec<AppReport>,
    /// `true` if a finished background solve was adopted on entry.
    pub background_adopted: bool,
    /// The adoption's own moves (see [`ServeReport::background_delta`]).
    pub background_delta: MappingDelta,
    /// Queued admissions drained because the burst freed capacity.
    pub drained: Vec<ServeReport>,
}

impl BatchReport {
    /// Handles assigned by this burst's admissions, in request order.
    pub fn admitted(&self) -> impl Iterator<Item = AppId> + '_ {
        self.events.iter().filter_map(|(_, v)| match v {
            Verdict::Admitted(id) => Some(*id),
            _ => None,
        })
    }

    /// Number of events that changed the served workload.
    pub fn applied(&self) -> usize {
        self.events
            .iter()
            .filter(|(_, v)| matches!(v, Verdict::Admitted(_) | Verdict::Applied))
            .count()
    }

    /// Migration traffic of the burst (bytes over the EIB).
    pub fn migration_bytes(&self) -> f64 {
        self.delta.migration_bytes
            + self.background_delta.migration_bytes
            + self.drained.iter().map(ServeReport::migration_bytes).sum::<f64>()
    }
}
