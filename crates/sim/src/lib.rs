//! Flow-level discrete-event simulator of the Cell platform model — the
//! reproduction's stand-in for the paper's PlayStation 3 / QS22 hardware.
//!
//! The simulator executes a mapped streaming application instance by
//! instance, under exactly the resource semantics of paper §2:
//!
//! * each PE processes one task instance at a time (tasks selected like
//!   the Figure 4 scheduler: the runnable task whose periodic-schedule
//!   slot is oldest);
//! * every data transfer occupies the producer's outgoing and the
//!   consumer's incoming interface; concurrent transfers share interface
//!   bandwidth **max-min fairly** (the fluid limit of the bounded
//!   multiport model);
//! * main-memory reads/writes occupy the issuing PE's interfaces
//!   (memory itself is not a bottleneck);
//! * SPEs admit at most 16 concurrent incoming DMAs and at most 8
//!   concurrent SPE→PPE proxy transfers — excess transfers queue;
//! * edge buffers hold `firstPeriod(dst) − firstPeriod(src)` instances on
//!   both the producer and the consumer side (§4.2); producers block when
//!   a buffer is full (back-pressure), consumers free a slot after the
//!   last peek touching it;
//! * configurable overheads ([`SimConfig`]) model the scheduling
//!   framework: a per-activation cost and a per-DMA initiation latency.
//!   With both at zero the simulated steady-state throughput converges to
//!   the model prediction `ρ = 1/T`; the calibrated defaults aim at the
//!   ≈ 95 % of it that §6.4.1 reports, and the worst of the benchmark's
//!   twelve `plan_paper` mappings lands at 79 % (DESIGN.md §6.4).
//!
//! The output is a [`trace::RunTrace`]: per-instance completion times at
//! the sinks, from which the Figure 6 ramp-up curve and the steady-state
//! throughput are derived.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
pub mod engine;
pub mod fair;
pub mod online;
pub mod scenario;
pub mod trace;

pub use engine::{simulate, SimConfig, SimError};
pub use online::{
    replay, AppServed, EventOutcome, EventTrace, OnlineReport, OnlineSystem, TimedEvent, TraceEvent,
};
pub use scenario::{Arrivals, Impairment, Scenario};
pub use trace::RunTrace;

#[cfg(test)]
mod tests;
