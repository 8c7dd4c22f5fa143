//! Fleet-level telemetry: the coordinator's metric cells and flight
//! recorder.
//!
//! Every coordinator call — one operation or one burst — passes through
//! [`ClusterMetrics::note`] exactly once: the counters see each
//! operation it carried, the latency histogram, the byte totals and the
//! flight recorder see the call. The recorded `migration_bytes` is the
//! *same* expression the trace-replay
//! [`EventOutcome`](cellstream_sim::online::EventOutcome) carries
//! (`local_migration_bytes + network_bytes()`), in the same order — the
//! faults bench checks the drained flight log's totals against the
//! replayed scenario's totals for exact equality, not tolerance.
//!
//! This module is part of the coordinator hot path and is covered by
//! the `hot-path-panic` and `no-alloc` lint scopes.

use crate::coordinator::{ClusterVerdict, Migration};
use cellstream_telemetry::{Counter, FlightEvent, FlightRecorder, Gauge, Histogram};
use std::time::Duration;

/// A [`ClusterVerdict`] as a static exposition label.
pub fn cluster_verdict_name(v: &ClusterVerdict) -> &'static str {
    match v {
        ClusterVerdict::Admitted(_) => "admitted",
        ClusterVerdict::Rejected(_) => "rejected",
        ClusterVerdict::Applied => "applied",
        ClusterVerdict::Drained { .. } => "drained",
        ClusterVerdict::Rebalanced { .. } => "rebalanced",
        ClusterVerdict::Recovered { .. } => "recovered",
        ClusterVerdict::NodeLost { .. } => "node-lost",
        ClusterVerdict::NodeReturned { .. } => "node-returned",
    }
}

/// Every metric cell the coordinator maintains. Field docs double as
/// the metric catalogue (see DESIGN.md "Observability").
#[derive(Debug)]
pub struct ClusterMetrics {
    /// Fleet operations processed.
    pub events_total: Counter,
    /// Operations that changed what some node serves
    /// ([`ClusterVerdict::applied`]).
    pub applied_total: Counter,
    /// Operations ending [`ClusterVerdict::Rejected`].
    pub rejected_total: Counter,
    /// End-to-end operation latency (every agent exchange included),
    /// nanoseconds.
    pub latency_ns: Histogram,
    /// EIB traffic of intra-node replans, bytes (rounded), summed
    /// across nodes.
    pub local_migration_bytes_total: Counter,
    /// Cross-node application moves.
    pub network_migrations_total: Counter,
    /// Bytes pushed across the network by those moves (rounded).
    pub network_bytes_total: Counter,
    /// Retry-ledger size after the most recent operation.
    pub stranded: Gauge,
    /// Admissions landed per node, indexed by node id — the placer's
    /// decision record.
    pub placed_total: Vec<Counter>,
    /// The fleet flight recorder (drain after a storm).
    pub recorder: FlightRecorder,
}

impl ClusterMetrics {
    /// Fresh cells for a fleet of `n_nodes`.
    pub fn new(n_nodes: usize) -> ClusterMetrics {
        ClusterMetrics {
            events_total: Counter::new(),
            applied_total: Counter::new(),
            rejected_total: Counter::new(),
            latency_ns: Histogram::new(),
            local_migration_bytes_total: Counter::new(),
            network_migrations_total: Counter::new(),
            network_bytes_total: Counter::new(),
            stranded: Gauge::new(),
            placed_total: (0..n_nodes).map(|_| Counter::new()).collect(),
            recorder: FlightRecorder::default(),
        }
    }

    /// Record one coordinator call: per-operation counters for the
    /// `(kind, verdict)` pairs it carried (one for a single operation,
    /// several for a burst), then the call's latency, byte totals and one
    /// flight-recorder entry of kind `kind`. `stranded` is the
    /// retry-ledger size after the call.
    // check: no-alloc
    pub fn note<'a>(
        &self,
        kind: &'static str,
        ops: impl Iterator<Item = (&'static str, &'a ClusterVerdict)>,
        latency: Duration,
        local_bytes: f64,
        migrations: &[Migration],
        stranded: usize,
    ) {
        let (mut verdict, mut shed, mut mask_delta) = ("burst", 0, 0);
        for (n, (op, v)) in ops.enumerate() {
            self.events_total.inc();
            match v {
                ClusterVerdict::Rejected(_) => self.rejected_total.inc(),
                v if v.applied() => self.applied_total.inc(),
                _ => {}
            }
            if let ClusterVerdict::Admitted(node) = v {
                if let Some(c) = self.placed_total.get(node.index()) {
                    c.inc();
                }
            }
            if let ClusterVerdict::Recovered { rehomed, stranded }
            | ClusterVerdict::NodeLost { rehomed, stranded } = v
            {
                shed += (rehomed + stranded) as u32;
            }
            mask_delta += match op {
                "fail" | "node-fail" => -1,
                "restore" | "node-restore" => 1,
                _ => 0,
            };
            // a lone operation's entry names its verdict
            verdict = if n == 0 { cluster_verdict_name(v) } else { "burst" };
        }
        self.latency_ns.record_duration(latency);
        self.local_migration_bytes_total.add(local_bytes as u64);
        self.network_migrations_total.add(migrations.len() as u64);
        let network_bytes: f64 = migrations.iter().map(|m| m.bytes).sum();
        self.network_bytes_total.add(network_bytes as u64);
        self.stranded.set_usize(stranded);
        self.recorder.record(FlightEvent {
            seq: 0,
            kind,
            verdict,
            replan_ns: u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX),
            migration_bytes: local_bytes + network_bytes,
            shed,
            stranded: stranded as u32,
            queued: 0,
            mask_delta,
        });
    }
}
