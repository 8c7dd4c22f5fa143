//! Online serving under churn: warm-started repair replanning vs a
//! from-scratch portfolio re-solve, on an audio/video/cipher/dsp
//! arrival/departure trace (QS22 platform).
//!
//! For every applied event the bench:
//!
//! 1. lets the [`Service`] replan incrementally (repair from the
//!    incumbent), recording its migration bytes;
//! 2. re-solves the *same* workload from scratch with the
//!    heuristic-only portfolio;
//! 3. computes the quality ratio `T_scratch / T_repair` (repair
//!    throughput as a fraction of from-scratch throughput).
//!
//! A second, fresh service is driven through `sim::online::replay` to
//! measure per-application delivered instances over the trace horizon.
//!
//! **Gate** (this binary exits non-zero on violation; CI runs it in
//! quick mode): geometric-mean quality ≥ 95% of from-scratch
//! throughput. What a replan costs is `benchmark/`'s `serve_single`.
//!
//! Emits `crates/bench/results/BENCH_online.json`.

use cellstream_bench::{gates, quick_mode, write_results};
use cellstream_core::scheduler::PlanContext;
use cellstream_graph::StreamGraph;
use cellstream_heuristics::Portfolio;
use cellstream_platform::CellSpec;
use cellstream_serve::Service;
use cellstream_sim::online::{replay, EventTrace, TraceEvent};

struct Row {
    label: String,
    applied: bool,
    repair_period: f64,
    scratch_period: f64,
    quality: f64,
    migration_bytes: f64,
}

/// The churn trace: arrivals, rate changes and departures of the four
/// real applications (duplicates renamed — application names key the
/// workload).
fn churn_events() -> Vec<(f64, TraceEvent)> {
    let audio = cellstream_apps::audio::graph().unwrap();
    let video = cellstream_apps::video::graph().unwrap();
    let cipher = cellstream_apps::cipher::graph().unwrap();
    let dsp = cellstream_apps::dsp::graph().unwrap();
    let ev = |g: &StreamGraph, w: f64| TraceEvent::Admit { graph: g.clone(), weight: w };
    vec![
        (0.00, ev(&audio, 1.0)),
        (0.02, ev(&video, 1.0)),
        (0.04, ev(&cipher, 2.0)),
        (0.06, TraceEvent::Reweight { app: audio.name().to_owned(), weight: 2.0 }),
        (0.08, ev(&dsp, 1.0)),
        (0.10, TraceEvent::Retire { app: video.name().to_owned() }),
        (0.12, ev(&video.renamed("video-2"), 1.0)),
        (0.14, TraceEvent::Reweight { app: cipher.name().to_owned(), weight: 1.0 }),
        (0.16, ev(&cipher.renamed("cipher-2"), 1.0)),
        (0.18, TraceEvent::Retire { app: audio.name().to_owned() }),
        (0.20, ev(&audio.renamed("audio-2"), 2.0)),
        (0.22, TraceEvent::Retire { app: dsp.name().to_owned() }),
    ]
}

fn main() {
    let spec = CellSpec::qs22();
    let events = churn_events();

    // ---- repair vs from-scratch, event by event ---------------------------
    let mut svc = Service::new(spec.clone());
    let mut rows: Vec<Row> = Vec::new();
    for (_, ev) in &events {
        let report = match ev {
            TraceEvent::Admit { graph, weight } => svc.admit(graph, *weight),
            TraceEvent::Retire { app } => {
                let id = svc.handle_of(app).expect("trace retires live apps");
                svc.retire(id).expect("live handle")
            }
            TraceEvent::Reweight { app, weight } => {
                let id = svc.handle_of(app).expect("trace reweights live apps");
                svc.reweight(id, *weight).expect("live handle")
            }
            other => panic!("the churn trace carries no fault events: {other:?}"),
        };
        let scratch_period = svc.workload().map_or(f64::INFINITY, |w| {
            Portfolio::heuristics_only()
                .run_workload(w, &spec, &PlanContext::default())
                .expect("the ppe_only member guarantees a plan")
                .best
                .period()
        });
        let quality = match (scratch_period.is_finite(), report.period.is_finite()) {
            (true, true) => scratch_period / report.period,
            _ => 1.0, // idle after the last retire: nothing to compare
        };
        rows.push(Row {
            label: report.event.to_string(),
            applied: report.applied(),
            repair_period: report.period,
            scratch_period,
            quality,
            migration_bytes: report.migration_bytes(),
        });
    }

    // ---- trace replay: delivered throughput per application ---------------
    let mut replay_svc = Service::new(spec.clone());
    let mut trace = EventTrace::new(0.25);
    for (t, ev) in &events {
        trace.push(*t, ev.clone());
    }
    let instances = if quick_mode() { 800 } else { 5_000 };
    let online = replay(&mut replay_svc, &trace, instances);
    assert_eq!(online.rejected, 0, "the whole trace fits on a QS22");
    if let (Some(w), Some(m)) = (replay_svc.workload(), replay_svc.mapping()) {
        let r = cellstream_core::evaluate(w.graph(), &spec, m).expect("valid incumbent");
        assert!(r.is_feasible(), "the incumbent must end feasible");
    }

    // ---- table + gate -----------------------------------------------------
    println!(
        "{:<26} {:>12} {:>12} {:>8} {:>10}",
        "event", "repair(us)", "scratch(us)", "qual", "migr KiB"
    );
    for r in &rows {
        println!(
            "{:<26} {:>12.3} {:>12.3} {:>7.1}% {:>10.2}",
            r.label,
            r.repair_period * 1e6,
            r.scratch_period * 1e6,
            r.quality * 100.0,
            r.migration_bytes / 1024.0,
        );
    }

    let compared: Vec<&Row> = rows.iter().filter(|r| r.applied && r.quality.is_finite()).collect();
    let geo_quality =
        (compared.iter().map(|r| r.quality.ln()).sum::<f64>() / compared.len() as f64).exp();
    let min_quality = compared.iter().map(|r| r.quality).fold(f64::INFINITY, f64::min);
    let total_migration: f64 = rows.iter().map(|r| r.migration_bytes).sum();

    println!(
        "\nquality: geomean {:.1}% (min {:.1}%)   migration total {:.1} KiB   rejected {}",
        geo_quality * 100.0,
        min_quality * 100.0,
        total_migration / 1024.0,
        online.rejected,
    );
    for served in &online.served {
        println!(
            "  served {:<16} {:>8.3} s residency, {:>12.0} instances ({:.0}/s)",
            served.app,
            served.seconds,
            served.instances,
            served.throughput()
        );
    }

    // ---- JSON -------------------------------------------------------------
    let event_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"event\": \"{}\", \"applied\": {}, \"repair_period_s\": {:.9e}, \
                 \"scratch_period_s\": {:.9e}, \"quality\": {:.4}, \
                 \"migration_bytes\": {:.1}}}",
                r.label, r.applied, r.repair_period, r.scratch_period, r.quality, r.migration_bytes,
            )
        })
        .collect();
    let served_rows: Vec<String> = online
        .served
        .iter()
        .map(|s| {
            format!(
                "    {{\"app\": \"{}\", \"residency_s\": {:.3}, \"instances\": {:.0}, \
                 \"throughput\": {:.1}}}",
                s.app,
                s.seconds,
                s.instances,
                s.throughput()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"online\",\n  \"spec\": \"qs22\",\n  \"quick\": {},\n  \
         \"geo_quality\": {:.4},\n  \"min_quality\": {:.4},\n  \
         \"total_migration_bytes\": {:.1},\n  \"rejected\": {},\n  \"events\": [\n{}\n  ],\n  \
         \"served\": [\n{}\n  ]\n}}\n",
        quick_mode(),
        geo_quality,
        min_quality,
        total_migration,
        online.rejected,
        event_rows.join(",\n"),
        served_rows.join(",\n"),
    );
    write_results("BENCH_online.json", &json);

    // ---- CI gate ----------------------------------------------------------
    gates::repair_quality(geo_quality).expect("repair quality");
    println!("gate passed: quality {:.1}% >= 95%", geo_quality * 100.0);
}
