//! Atomic metric cells: counters, gauges, and log₂-scale histograms.
//!
//! Every record path is lock-free (a single `fetch_add`/`store`) and
//! allocation-free — the `// check: no-alloc` tags below are enforced
//! lexically by `cellstream-check` and at runtime by the
//! counting-allocator suite. Readers take `Acquire` loads; writers that
//! use `Relaxed` justify it inline: the cells are independent monotone
//! accumulators, so no cross-cell ordering is required for a snapshot
//! to be meaningful (it may be torn by at most the events in flight).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable in `static` position).
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    // check: no-alloc
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    // check: no-alloc
    pub fn add(&self, n: u64) {
        // check:allow(atomic-ordering): independent monotone cell — readers only need totals
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// A last-write-wins gauge holding an `f64` (stored as bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge reading `0.0` (usable in `static` position).
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Set the gauge.
    // check: no-alloc
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Release);
    }

    /// Set the gauge from an integer (exact up to 2⁵³).
    // check: no-alloc
    pub fn set_usize(&self, v: usize) {
        self.set(v as f64);
    }

    /// Current reading.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }
}

/// Bucket count: values 0–3 get exact buckets, every octave
/// `[2^k, 2^(k+1))` for `k = 2..=63` is split into 4 linear
/// sub-buckets — 252 cells, quantile error bounded by a quarter octave.
const HISTOGRAM_BUCKETS: usize = 252;

/// Bucket index for a recorded value.
fn bucket_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // >= 2
        let sub = ((v >> (exp - 2)) & 3) as usize;
        4 * (exp - 1) + sub
    }
}

/// Inclusive lower bound of bucket `i`.
fn bucket_floor(i: usize) -> u64 {
    if i < 4 {
        i as u64
    } else {
        let exp = i / 4 + 1;
        (((i % 4) as u64) << (exp - 2)) | (1u64 << exp)
    }
}

/// Exclusive upper bound of bucket `i`.
fn bucket_ceil(i: usize) -> u64 {
    if i + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        bucket_floor(i + 1)
    }
}

/// A fixed-bucket log₂-scale histogram of `u64` samples (typically
/// nanoseconds or event counts). `record()` is a handful of relaxed
/// atomic read-modify-writes — lock-free, allocation-free, and safe to
/// call from any thread.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (usable in `static` position).
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    // check: no-alloc
    pub fn record(&self, v: u64) {
        // check:allow(atomic-ordering): independent monotone cells — a snapshot may be torn by in-flight events only
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // check:allow(atomic-ordering): same — count/sum lag a concurrent snapshot by at most the events in flight
        self.count.fetch_add(1, Ordering::Relaxed);
        // check:allow(atomic-ordering): same monotone-cell argument
        self.sum.fetch_add(v, Ordering::Relaxed);
        // check:allow(atomic-ordering): same monotone-cell argument
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a wall-clock duration in nanoseconds.
    // check: no-alloc
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// A point-in-time copy of every cell.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, cell) in buckets.iter_mut().zip(&self.buckets) {
            *out = cell.load(Ordering::Acquire);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Acquire),
            sum: self.sum.load(Ordering::Acquire),
            max: self.max.load(Ordering::Acquire),
        }
    }
}

/// A frozen [`Histogram`]: quantiles, mean and max come from here.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `p`-th percentile (`p` in 0..=100), nearest-rank with linear
    /// interpolation inside the landing bucket. Returns 0 when empty.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0).clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < seen + c {
                let lo = bucket_floor(i);
                let hi = bucket_ceil(i).min(self.max.max(lo + 1));
                let frac = (rank - seen) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            seen += c;
        }
        self.max
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(inclusive_floor, count)` pairs, in
    /// ascending value order — the exposition shape.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (bucket_floor(i), c))
    }
}
