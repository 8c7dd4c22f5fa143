//! The serving hot path under bursty churn: one-at-a-time event
//! processing vs batched bursts vs the concurrent intake pipeline
//! (ISSUE 7).
//!
//! The trace fills a QS22 with 24 small pipelines, then replays burst
//! rounds of 20 events each (8 retires + 8 admits + 4 reweights, all
//! touching distinct applications). Three drivers consume the same
//! schedule from the same filled service:
//!
//! 1. **sequential** — every event through `Service::process`: one
//!    compose + repair replan per event;
//! 2. **batched** — every burst through `Service::process_batch`: one
//!    composed replan per 20-event burst;
//! 3. **pipelined** — events pushed through the bounded SPSC ring into
//!    the planner thread (`ServePipeline`), which drains the backlog
//!    into `process_batch` calls while the intake side keeps feeding.
//!
//! All three must land in the same final state (same applications,
//! feasible incumbent, zero rejections), so the throughput gap is pure
//! hot-path mechanics: batching amortises the compose + carry-over +
//! repair work that the sequential driver repeats per event.
//!
//! **Gates** (this binary exits non-zero on violation; CI runs it in
//! quick mode):
//!
//! * batched throughput ≥ 10× one-at-a-time on the bursty trace;
//! * pipelined throughput ≥ 5× one-at-a-time (it does the same batched
//!   work plus ring hand-off and thread scheduling);
//! * batched p99 replan latency ≤ 100 ms per burst;
//! * telemetry overhead: the instrumented batched driver retains ≥ 95%
//!   of the un-instrumented one's events/s (best of 3 runs each, so a
//!   single scheduling hiccup cannot fail the gate).
//!
//! Emits `crates/bench/results/BENCH_serve_hotpath.json`.

use cellstream_bench::{quick_mode, write_results};
use cellstream_graph::{StreamGraph, TaskSpec};
use cellstream_platform::CellSpec;
use cellstream_serve::{Event, PipelineOptions, ServePipeline, Service, ServiceOptions};
use cellstream_sim::online::{EventTrace, TraceEvent};
use cellstream_telemetry::Histogram;
use std::time::{Duration, Instant};

const FILL: usize = 24;
const BURST_RETIRES: usize = 8;
const BURST_ADMITS: usize = 8;
const BURST_REWEIGHTS: usize = 4;

fn pipeline(name: &str, n: usize) -> StreamGraph {
    let mut b = StreamGraph::builder(name);
    let mut prev = None;
    for i in 0..n {
        let t = b.add_task(TaskSpec::new(format!("t{i}")).ppe_cost(3e-6).spe_cost(1e-6));
        if let Some(p) = prev {
            b.add_edge(p, t, 2048.0).unwrap();
        }
        prev = Some(t);
    }
    b.build().unwrap()
}

/// Deterministic weight in [0.5, 2.5) from a counter.
fn weight(k: usize) -> f64 {
    0.5 + (k * 7 % 20) as f64 / 10.0
}

/// The burst schedule: per round, retire the 8 oldest residents, admit
/// 8 replacements, reweight 4 survivors — every event in a round
/// touches a distinct application, so a batched driver can fuse the
/// whole round into one replan.
fn burst_schedule(rounds: usize) -> (Vec<StreamGraph>, Vec<Vec<TraceEvent>>) {
    let fill: Vec<StreamGraph> =
        (0..FILL).map(|i| pipeline(&format!("app{i:02}"), 2 + i % 3)).collect();
    let mut live: Vec<String> = fill.iter().map(|g| g.name().to_owned()).collect();
    let mut bursts: Vec<Vec<TraceEvent>> = Vec::new();
    for round in 0..rounds {
        let mut burst: Vec<TraceEvent> = Vec::new();
        let retired: Vec<String> = live.drain(..BURST_RETIRES).collect();
        for app in retired {
            burst.push(TraceEvent::Retire { app });
        }
        for k in 0..BURST_ADMITS {
            let name = format!("r{round:02}a{k}");
            burst.push(TraceEvent::Admit {
                graph: pipeline(&name, 2 + (round + k) % 3),
                weight: weight(round * 31 + k),
            });
            live.push(name);
        }
        for (k, app) in live.iter().take(BURST_REWEIGHTS).enumerate() {
            burst.push(TraceEvent::Reweight {
                app: app.clone(),
                weight: weight(round * 17 + k + 3),
            });
        }
        bursts.push(burst);
    }
    (fill, bursts)
}

/// A freshly filled service: the steady-state posture every driver
/// starts from. `telemetry` toggles the metric cells — `false` is the
/// baseline of the overhead comparison.
fn filled(fill: &[StreamGraph], telemetry: bool) -> Service {
    let mut svc = Service::with_options(
        CellSpec::qs22(),
        ServiceOptions { telemetry, ..ServiceOptions::default() },
    );
    for (i, g) in fill.iter().enumerate() {
        let r = svc.admit(g, weight(i));
        assert!(r.admitted().is_some(), "fill app {} must fit: {:?}", g.name(), r.verdict);
    }
    svc
}

struct Run {
    mode: &'static str,
    events: usize,
    wall: Duration,
    /// Replan count and latency distribution: per event (sequential) or
    /// per burst (batched, pipelined — a burst commits atomically, so
    /// its replan is the latency every event in it experiences).
    replans: usize,
    hist: Histogram,
}

impl Run {
    /// Fold per-replan latencies into the histogram the tables and
    /// gates report from (the telemetry quantile machinery, not a
    /// sorted `Vec`).
    fn new(mode: &'static str, events: usize, wall: Duration, replans: &[Duration]) -> Run {
        let hist = Histogram::new();
        for d in replans {
            hist.record_duration(*d);
        }
        Run { mode, events, wall, replans: replans.len(), hist }
    }

    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    fn percentile(&self, p: f64) -> Duration {
        self.hist.snapshot().quantile_duration(p * 100.0)
    }
}

/// One event through `Service::process`, resolving names against the
/// live incumbent exactly as the pipeline's planner does.
fn apply_sequential(svc: &mut Service, ev: &TraceEvent) -> Duration {
    let report = match ev {
        TraceEvent::Admit { graph, weight } => svc.admit(graph, *weight),
        TraceEvent::Retire { app } => {
            let id = svc.handle_of(app).expect("schedule retires live apps");
            svc.retire(id).expect("live handle")
        }
        TraceEvent::Reweight { app, weight } => {
            let id = svc.handle_of(app).expect("schedule reweights live apps");
            svc.reweight(id, *weight).expect("live handle")
        }
        other => panic!("hot-path schedules carry churn only: {other:?}"),
    };
    assert!(report.applied(), "hot-path schedule never rejects: {}", report.event);
    report.replan
}

fn run_sequential(fill: &[StreamGraph], bursts: &[Vec<TraceEvent>]) -> (Run, Service) {
    let mut svc = filled(fill, true);
    let mut replans = Vec::new();
    let started = Instant::now();
    for burst in bursts {
        for ev in burst {
            replans.push(apply_sequential(&mut svc, ev));
        }
    }
    let wall = started.elapsed();
    (Run::new("sequential", replans.len(), wall, &replans), svc)
}

fn run_batched(
    fill: &[StreamGraph],
    bursts: &[Vec<TraceEvent>],
    telemetry: bool,
) -> (Run, Service) {
    let mut svc = filled(fill, telemetry);
    let mut replans = Vec::new();
    let mut events = 0usize;
    let started = Instant::now();
    for burst in bursts {
        let batch: Vec<Event> = burst
            .iter()
            .map(|ev| match ev {
                TraceEvent::Admit { graph, weight } => Event::Admit(graph.clone(), *weight),
                TraceEvent::Retire { app } => {
                    Event::Retire(svc.handle_of(app).expect("schedule retires live apps"))
                }
                TraceEvent::Reweight { app, weight } => {
                    Event::Reweight(svc.handle_of(app).expect("live app"), *weight)
                }
                other => panic!("hot-path schedules carry churn only: {other:?}"),
            })
            .collect();
        let report = svc.process_batch(&batch).expect("validated schedule");
        assert_eq!(report.applied(), batch.len(), "hot-path schedule never rejects");
        events += batch.len();
        replans.push(report.replan);
    }
    let wall = started.elapsed();
    (Run::new("batched", events, wall, &replans), svc)
}

fn run_pipelined(fill: &[StreamGraph], bursts: &[Vec<TraceEvent>]) -> (Run, Service) {
    let svc = filled(fill, true);
    let mut trace = EventTrace::new(1.0);
    for (i, burst) in bursts.iter().enumerate() {
        for ev in burst {
            trace.push(i as f64 / bursts.len() as f64, ev.clone());
        }
    }
    let pipe = ServePipeline::launch(svc, PipelineOptions { capacity: 256, max_batch: 32 });
    let started = Instant::now();
    let intake = pipe.replay(&trace);
    let (svc, stats) = pipe.finish();
    let wall = started.elapsed();
    assert_eq!(stats.events, intake.submitted as u64, "nothing lost in the ring");
    assert_eq!(stats.skipped, 0, "every name resolved");
    assert_eq!(stats.rejected, 0, "hot-path schedule never rejects");
    (Run::new("pipelined", stats.events as usize, wall, &stats.replans), svc)
}

/// Best batched events/s over `n` runs with telemetry on or off — the
/// overhead comparison uses best-of-n on both sides so one scheduling
/// hiccup cannot skew the ratio.
fn best_batched_rate(
    n: usize,
    fill: &[StreamGraph],
    bursts: &[Vec<TraceEvent>],
    telemetry: bool,
) -> f64 {
    (0..n).map(|_| run_batched(fill, bursts, telemetry).0.events_per_sec()).fold(0.0f64, f64::max)
}

fn assert_same_final_state(a: &Service, b: &Service) {
    let names = |s: &Service| -> Vec<String> {
        let mut v: Vec<String> = s.apps().map(|(_, n)| n.to_owned()).collect();
        v.sort();
        v
    };
    assert_eq!(names(a), names(b), "drivers disagree on the surviving applications");
    for s in [a, b] {
        if let (Some(w), Some(m)) = (s.workload(), s.mapping()) {
            let r = cellstream_core::evaluate(w.graph(), s.spec(), m).expect("valid incumbent");
            assert!(r.is_feasible(), "driver left an infeasible incumbent: {:?}", r.violations);
        }
    }
}

fn main() {
    let rounds = if quick_mode() { 6 } else { 16 };
    let (fill, bursts) = burst_schedule(rounds);
    let burst_len = BURST_RETIRES + BURST_ADMITS + BURST_REWEIGHTS;
    println!(
        "bursty churn: {FILL} resident apps, {rounds} bursts x {burst_len} events \
         ({} timed events) on qs22",
        rounds * burst_len,
    );

    let (seq, seq_svc) = run_sequential(&fill, &bursts);
    let (batched, batch_svc) = run_batched(&fill, &bursts, true);
    let (piped, pipe_svc) = run_pipelined(&fill, &bursts);
    assert_same_final_state(&seq_svc, &batch_svc);
    assert_same_final_state(&seq_svc, &pipe_svc);

    // telemetry overhead: the same batched workload with the metric
    // cells on vs off, best of 3 runs each
    let telem_off = best_batched_rate(3, &fill, &bursts, false);
    let telem_on = best_batched_rate(3, &fill, &bursts, true);
    let retention = telem_on / telem_off.max(1e-12);
    println!(
        "telemetry overhead: on {telem_on:.0} vs off {telem_off:.0} events/s \
         ({:.1}% retained)",
        retention * 100.0,
    );

    let runs = [&seq, &batched, &piped];
    println!(
        "\n{:<12} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "mode", "events/s", "p50 ms", "p99 ms", "wall ms", "replans"
    );
    for r in &runs {
        println!(
            "{:<12} {:>12.0} {:>12.3} {:>12.3} {:>12.2} {:>10}",
            r.mode,
            r.events_per_sec(),
            r.percentile(0.5).as_secs_f64() * 1e3,
            r.percentile(0.99).as_secs_f64() * 1e3,
            r.wall.as_secs_f64() * 1e3,
            r.replans,
        );
    }
    let batch_speedup = batched.events_per_sec() / seq.events_per_sec();
    let pipe_speedup = piped.events_per_sec() / seq.events_per_sec();
    println!(
        "\nspeedup over one-at-a-time: batched {batch_speedup:.1}x, pipelined {pipe_speedup:.1}x"
    );

    // ---- JSON -------------------------------------------------------------
    let mode_rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"mode\": \"{}\", \"events\": {}, \"events_per_sec\": {:.1}, \
                 \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"wall_ms\": {:.3}}}",
                r.mode,
                r.events,
                r.events_per_sec(),
                r.percentile(0.5).as_secs_f64() * 1e3,
                r.percentile(0.99).as_secs_f64() * 1e3,
                r.wall.as_secs_f64() * 1e3,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_hotpath\",\n  \"spec\": \"qs22\",\n  \"quick\": {},\n  \
         \"fill\": {FILL},\n  \"bursts\": {rounds},\n  \"burst_events\": {burst_len},\n  \
         \"batched_speedup\": {batch_speedup:.2},\n  \"pipelined_speedup\": {pipe_speedup:.2},\n  \
         \"telemetry_on_events_per_sec\": {telem_on:.1},\n  \
         \"telemetry_off_events_per_sec\": {telem_off:.1},\n  \
         \"telemetry_retention\": {retention:.4},\n  \
         \"modes\": [\n{}\n  ]\n}}\n",
        quick_mode(),
        mode_rows.join(",\n"),
    );
    write_results("BENCH_serve_hotpath.json", &json);

    // ---- CI gates ---------------------------------------------------------
    assert!(
        batch_speedup >= 10.0,
        "GATE: batched throughput {batch_speedup:.1}x fell below 10x one-at-a-time \
         ({:.0} vs {:.0} events/s)",
        batched.events_per_sec(),
        seq.events_per_sec(),
    );
    assert!(
        pipe_speedup >= 5.0,
        "GATE: pipelined throughput {pipe_speedup:.1}x fell below 5x one-at-a-time \
         ({:.0} vs {:.0} events/s)",
        piped.events_per_sec(),
        seq.events_per_sec(),
    );
    let p99 = batched.percentile(0.99);
    assert!(
        p99 <= Duration::from_millis(100),
        "GATE: batched p99 replan {p99:?} exceeds 100 ms per burst"
    );
    assert!(
        retention >= 0.95,
        "GATE: telemetry retains only {:.1}% of un-instrumented throughput \
         ({telem_on:.0} vs {telem_off:.0} events/s, floor 95%)",
        retention * 100.0,
    );
    println!(
        "gates passed: batched {batch_speedup:.1}x >= 10x, pipelined {pipe_speedup:.1}x >= 5x, \
         batched p99 {:.3} ms <= 100 ms, telemetry retention {:.1}% >= 95%",
        p99.as_secs_f64() * 1e3,
        retention * 100.0,
    );
}
