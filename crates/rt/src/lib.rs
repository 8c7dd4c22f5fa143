//! Threaded Cell runtime emulator.
//!
//! Where `cellstream-sim` *predicts* performance from the platform model,
//! this crate actually **executes** a mapped streaming application on real
//! OS threads — one thread per modelled processing element — with real
//! byte buffers and real back-pressure. It is the reproduction's
//! counterpart of the paper's §6.1 scheduling framework:
//!
//! * every PE thread runs the Figure 4 state machine: *select a runnable
//!   task → wait for resources → process → signal new data*, alternating
//!   with a communication phase (which, local-store emulation aside,
//!   reduces to ring-buffer bookkeeping in shared memory); a thread with
//!   nothing runnable yields once, then parks until a PE it shares an
//!   edge with signals it (see [`engine`]);
//! * every edge owns a single-producer/single-consumer [`Ring`] of
//!   `firstPeriod(dst) − firstPeriod(src)` byte slots (§4.2 buffer
//!   sizing): atomic produced/consumed counters carry the
//!   synchronisation, and each slot sits behind an uncontended mutex
//!   instead of `unsafe`; kernels read and write the slots in place
//!   (outputs zero-filled first), and the *peek* window is `peek+1`
//!   consecutive slots. The same ring over `Option<T>` slots
//!   ([`SpscRing`]) is the serving layer's intake queue;
//! * each SPE's buffers are carved out of a [`LocalStore`] arena of
//!   `256 kB − code` bytes; a mapping whose buffers do not fit is
//!   rejected at initialisation, exactly like the real framework's static
//!   allocation pass;
//! * task bodies are [`Kernel`]s operating on byte slices — synthetic
//!   spinners for calibration, checksum kernels for integrity tests, and
//!   the DSP kernels of `cellstream-apps` for the demo applications.
//!
//! Wall-clock throughput of the emulator depends on the host machine, so
//! tests assert *behavioural* invariants (exactly-once processing, FIFO
//! per edge, peek-window contents, allocator limits) rather than absolute
//! rates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod kernels;
pub mod local_store;
pub mod ring;
pub mod synthetic;

pub use engine::{run, RtConfig, RtError, RunStats};
pub use kernels::{
    ChecksumKernel, ClosureKernel, Kernel, KernelCtx, SpinKernel, VerifyKernel, Window,
};
pub use local_store::{LocalStore, StoreError};
pub use ring::{AtomicCounter, Ring, SlotLock, SpscRing};
pub use synthetic::synthetic_kernels_for_mapping;

#[cfg(test)]
mod tests;
