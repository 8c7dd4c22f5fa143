//! Observability primitives for the serving stack: lock-free metrics,
//! a bounded replan flight recorder, and exposition snapshots.
//!
//! Three layers, deliberately dependency-free (like `cellstream-check`)
//! so every crate in the workspace can instrument itself without a
//! dependency cycle:
//!
//! * [`Counter`], [`Gauge`] and [`Histogram`] — atomic metric cells
//!   whose record paths are **lock-free and allocation-free** (tagged
//!   `// check: no-alloc` and pinned by the counting-allocator suite in
//!   `tests/alloc_free.rs`), so they can live inside
//!   `Service::process_batch` and the pipeline planner thread. The
//!   histogram uses fixed log₂-scale buckets refined by four linear
//!   sub-buckets per octave: quantile estimates are within ~12% of the
//!   true value with zero allocation on the record path.
//! * [`FlightRecorder`] — a span-style bounded ring of structured
//!   [`FlightEvent`]s (event label, verdict, replan duration, migration
//!   bytes, shed/stranded counts, availability-mask changes). It reuses
//!   the single-writer publish discipline of the model-checked
//!   `rt::ring` (own-counter `Relaxed` read, `Release` publish) with
//!   mutexed slots so the crate stays `unsafe`-free. Drain it after a
//!   fault storm to reconstruct exactly what the scheduler did.
//! * [`Snapshot`] — point-in-time exposition with per-app and per-node
//!   labels, rendered as Prometheus-style text
//!   ([`Snapshot::to_prometheus`]) or JSON ([`Snapshot::to_json`]).
//!   `Cluster::snapshot()` merges per-node snapshots into one fleet
//!   view via [`Snapshot::merge`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod recorder;
mod snapshot;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use recorder::{FlightEvent, FlightRecorder};
pub use snapshot::{Sample, SnapValue, Snapshot};

#[cfg(test)]
mod tests;
