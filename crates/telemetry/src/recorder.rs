//! The flight recorder: a bounded ring of structured replan events.
//!
//! Built on the single-writer publish discipline of the model-checked
//! `rt::Ring` — the writer reads its own head counter with `Relaxed`
//! (nobody else advances it) and publishes with `Release`; readers
//! acquire the head before touching slots. The slots themselves are
//! mutexes rather than `UnsafeCell`s, exactly like `rt::Ring`'s, which
//! keeps the crate `unsafe`-free: the lock is uncontended in the
//! single-writer steady state, and a poisoned slot (a panicking reader
//! mid-copy) degrades to taking the inner value — the record path can
//! never panic or allocate. It is not an `rt::Ring`: a log that
//! overwrites its oldest entry is not a queue between two threads, and
//! this crate stays free of dependencies.
//!
//! The ring **overwrites oldest** when full: after a fault storm the
//! recorder holds the last `capacity` events and an exact count of how
//! many were dropped, which is the right trade-off for a black box —
//! the interesting events are the most recent ones.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One structured scheduler event, fixed-size so recording never
/// allocates. Label and verdict are `&'static str` — every caller's
/// event vocabulary is static (`"admit"`, `"pe failed"`, ...).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FlightEvent {
    /// Monotone sequence number, assigned by the recorder.
    pub seq: u64,
    /// Event-kind label (`"admit"`, `"retire"`, `"pe failed"`, ...).
    pub kind: &'static str,
    /// Verdict label (`"applied"`, `"queued"`, `"rejected"`, ...).
    pub verdict: &'static str,
    /// Replan wall time for this event, in nanoseconds.
    pub replan_ns: u64,
    /// Migration traffic this event caused, in bytes.
    pub migration_bytes: f64,
    /// Applications shed (newly stranded) by this event.
    pub shed: u32,
    /// Stranded-ledger size (cluster) or shed-ledger size (single
    /// node) *after* this event.
    pub stranded: u32,
    /// Retry-queue depth after this event.
    pub queued: u32,
    /// Availability-mask change: `-1` a processor failed, `+1` one
    /// returned, `0` no change.
    pub mask_delta: i32,
}

/// A bounded, overwrite-oldest ring of [`FlightEvent`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<FlightEvent>>,
    head: AtomicU64,
}

impl Default for FlightRecorder {
    /// 1024 slots — comfortably more than any bench storm produces.
    fn default() -> FlightRecorder {
        FlightRecorder::with_capacity(1024)
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `cap` events (`cap` ≥ 1).
    pub fn with_capacity(cap: usize) -> FlightRecorder {
        let cap = cap.max(1);
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || Mutex::new(FlightEvent::default()));
        FlightRecorder { slots, head: AtomicU64::new(0) }
    }

    /// How many events the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Append one event, overwriting the oldest when full. Single
    /// writer; the slot lock is uncontended unless a drain is racing,
    /// and the path neither allocates nor panics.
    // check: no-alloc
    pub fn record(&self, ev: FlightEvent) {
        // check:allow(atomic-ordering): single writer reads its own head counter
        let i = self.head.load(Ordering::Relaxed);
        let idx = (i % self.slots.len() as u64) as usize;
        let mut slot = match self.slots[idx].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *slot = FlightEvent { seq: i, ..ev };
        drop(slot);
        self.head.store(i + 1, Ordering::Release);
    }

    /// Events recorded since construction (or the last drain).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events that fell off the ring (recorded minus retained).
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Take the retained window, oldest → newest, and reset the
    /// sequence counter. Call from a quiesced scheduler (after a storm,
    /// between batches) — a racing writer may tear the newest slot.
    pub fn drain(&self) -> Vec<FlightEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let idx = (i % cap) as usize;
            let slot = match self.slots[idx].lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            out.push(*slot);
        }
        self.head.store(0, Ordering::Release);
        out
    }
}
