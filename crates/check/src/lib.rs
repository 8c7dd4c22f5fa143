//! Correctness tooling for the `cellstream` workspace.
//!
//! Two independent layers share this crate (see DESIGN.md, "Correctness
//! tooling"):
//!
//! * [`lint`] — a dependency-free Rust-source scanner enforcing the
//!   repo-specific conventions the compiler cannot: `total_cmp`-only
//!   float orderings, panic-free serving hot paths, `forbid(unsafe_code)`
//!   in every crate root, allocation-free `// check: no-alloc` functions,
//!   justified `Ordering::Relaxed`/`SeqCst` sites, and no public
//!   function, constant or static that no other file names. Run it as
//!   `cargo run -p cellstream-check -- --deny`.
//! * [`mc`] — an exhaustive interleaving model checker for
//!   `cellstream-rt`'s SPSC `Ring`. It substitutes simulated
//!   weakly-ordered counters and slots into the *shipped* generic ring
//!   code and enumerates every producer/consumer schedule of two
//!   consumer programs — the queue's pop-one `try_pop` and the engine's
//!   peek window — including store-buffer reordering of non-`Release`
//!   stores. Capacities 1–2 and the negative proofs run from the
//!   workspace root's `tests/ring_model.rs`, capacity 3 under
//!   `cargo test -p cellstream-check`.
//!
//! The third layer of the tooling, the `debug_invariants` cargo feature,
//! lives in the audited crates themselves (`cellstream-core`,
//! `cellstream-serve`, `cellstream-cluster`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lint;
pub mod mc;
