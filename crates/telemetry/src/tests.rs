//! Unit tests: bucket geometry, quantile accuracy, recorder window
//! semantics, exposition shape.

use crate::{Counter, FlightEvent, FlightRecorder, Gauge, Histogram, Snapshot};
use std::time::Duration;

#[test]
fn counter_and_gauge_round_trip() {
    let c = Counter::new();
    c.inc();
    c.add(41);
    assert_eq!(c.get(), 42);
    let g = Gauge::new();
    assert_eq!(g.get(), 0.0);
    g.set(2.5);
    assert_eq!(g.get(), 2.5);
    g.set_usize(7);
    assert_eq!(g.get(), 7.0);
}

#[test]
fn histogram_buckets_are_exact_below_four_and_quarter_octave_above() {
    let h = Histogram::new();
    for v in [0u64, 1, 2, 3] {
        h.record(v);
    }
    let s = h.snapshot();
    assert_eq!(s.count, 4);
    assert_eq!(s.sum, 6);
    assert_eq!(s.max, 3);
    // a single large value lands in a bucket whose floor is within 25%
    let h = Histogram::new();
    h.record(1000);
    let s = h.snapshot();
    let q = s.quantile(50.0);
    assert!(q <= 1000 && q as f64 >= 1000.0 * 0.75, "q={q}");
}

#[test]
fn histogram_quantiles_track_a_uniform_ramp() {
    let h = Histogram::new();
    for v in 1..=10_000u64 {
        h.record(v);
    }
    let s = h.snapshot();
    for (p, want) in [(50.0, 5_000.0), (90.0, 9_000.0), (99.0, 9_900.0)] {
        let got = s.quantile(p) as f64;
        let err = (got - want).abs() / want;
        assert!(err < 0.15, "p{p}: got {got}, want {want}, err {err:.3}");
    }
    assert_eq!(s.max, 10_000);
    assert!((s.mean() - 5_000.5).abs() < 1.0);
}

#[test]
fn histogram_records_durations_as_nanos() {
    let h = Histogram::new();
    h.record_duration(Duration::from_micros(10));
    let s = h.snapshot();
    assert_eq!(s.count, 1);
    assert_eq!(s.max, 10_000);
}

#[test]
fn recorder_keeps_the_newest_window_and_counts_drops() {
    let r = FlightRecorder::with_capacity(4);
    for i in 0..10u64 {
        r.record(FlightEvent { replan_ns: i, kind: "admit", ..FlightEvent::default() });
    }
    assert_eq!(r.recorded(), 10);
    assert_eq!(r.dropped(), 6);
    let drained = r.drain();
    assert_eq!(drained.len(), 4);
    let replans: Vec<u64> = drained.iter().map(|e| e.replan_ns).collect();
    assert_eq!(replans, vec![6, 7, 8, 9], "oldest → newest of the retained window");
    assert_eq!(drained[0].seq, 6);
    assert_eq!(r.recorded(), 0, "drain resets the sequence");
}

#[test]
fn recorder_under_capacity_drains_everything_in_order() {
    let r = FlightRecorder::default();
    assert_eq!(r.capacity(), 1024);
    for i in 0..5u64 {
        r.record(FlightEvent { migration_bytes: i as f64, ..FlightEvent::default() });
    }
    let drained = r.drain();
    assert_eq!(drained.len(), 5);
    assert_eq!(r.dropped(), 0);
    let total: f64 = drained.iter().map(|e| e.migration_bytes).sum();
    assert_eq!(total, 10.0);
}

#[test]
fn snapshot_getters_sums_and_merge() {
    let mut node0 = Snapshot::new();
    node0.push_gauge("serving", &[], 3.0);
    node0.push_counter("events_total", &[], 7);
    let mut node1 = Snapshot::new();
    node1.push_gauge("serving", &[], 2.0);
    node1.push_counter("events_total", &[], 5);

    let mut fleet = Snapshot::new();
    fleet.push_gauge("fleet_serving", &[], 5.0);
    fleet.merge(node0, "node", "0");
    fleet.merge(node1, "node", "1");

    assert_eq!(fleet.sum_gauge("serving"), 5.0);
    assert_eq!(fleet.sum_counter("events_total"), 12);
    assert_eq!(fleet.gauge("fleet_serving"), Some(5.0));
    assert_eq!(fleet.gauge_with("serving", &[("node", "1")]), Some(2.0));
    assert_eq!(fleet.gauge_with("serving", &[("node", "9")]), None);
}

#[test]
fn prometheus_and_json_expositions_render() {
    let h = Histogram::new();
    for v in [10u64, 20, 30] {
        h.record(v);
    }
    let mut snap = Snapshot::new();
    snap.push_counter("cellstream_events_total", &[("app", "audio")], 3);
    snap.push_gauge("cellstream_period", &[], f64::INFINITY);
    snap.push_histogram("cellstream_replan_ns", &[], h.snapshot());

    let text = snap.to_prometheus();
    assert!(text.contains("cellstream_events_total{app=\"audio\"} 3"), "{text}");
    assert!(text.contains("cellstream_period +Inf"), "{text}");
    assert!(text.contains("cellstream_replan_ns{quantile=\"0.99\"}"), "{text}");
    assert!(text.contains("cellstream_replan_ns_count 3"), "{text}");

    let json = snap.to_json();
    assert!(json.contains("\"type\": \"counter\""), "{json}");
    assert!(json.contains("\"value\": null"), "non-finite gauge must be null: {json}");
    assert!(json.contains("\"buckets\": ["), "{json}");
}
