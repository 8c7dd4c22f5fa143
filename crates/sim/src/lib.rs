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
//! * [`SimConfig`] chooses whether the run charges the scheduling
//!   framework's overheads (`cellstream_platform::framework`: a cost per
//!   task activation, a CPU interrupt per DMA transfer, a DMA start-up
//!   latency). Under [`SimConfig::ideal`] none is charged and the
//!   steady-state throughput converges to the model's `ρ = 1/T`. Under
//!   [`SimConfig::calibrated`] (the default) it converges to `1/T_cal`,
//!   the calibrated period `core::evaluate` reports beside `T`. §6.4.1
//!   measures ≈ 95 % of `1/T`; the worst of the benchmark's twelve
//!   `plan_paper` mappings, graph 3 @ CCR 0.775, reaches 0.790 of it over
//!   200 instances: 0.883 (`T/T_cal`) × 0.894 (the fill and drain of 200
//!   instances) (DESIGN.md §6.4).
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
