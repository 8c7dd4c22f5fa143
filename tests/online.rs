//! Online serving end-to-end: the acceptance tests for the
//! `cellstream-serve` subsystem (ISSUE 5).
//!
//! * Admission control **never** admits an application whose mapping
//!   would violate SPE local-store capacity: after every event in a
//!   churn sequence the incumbent passes the §3.2 verifier.
//! * Warm-started repair replanning keeps ≥ 95 % of a from-scratch
//!   portfolio re-solve's throughput (geometric mean over a 12-event
//!   churn of the four real applications), and stays within 10 % of it
//!   on a single three-app workload.
//! * The trace driver (`sim::online::replay`) measures per-app
//!   throughput, replan latency, migration bytes and rejections.

use cellstream::apps::{audio, cipher, dsp, video};
use cellstream::graph::StreamGraph;
use cellstream::platform::{ByteSize, CellSpecBuilder};
use cellstream::prelude::*;
use cellstream::serve::{RejectReason, ServiceOptions, Verdict};
use cellstream::sim::online::{replay, EventTrace, TraceEvent};

/// The §3.2 verifier's verdict on the service's incumbent.
fn assert_incumbent_feasible(svc: &Service) {
    if let (Some(w), Some(m)) = (svc.workload(), svc.mapping()) {
        let report = evaluate(w.graph(), svc.spec(), m).expect("incumbent is structurally valid");
        assert!(
            report.is_feasible(),
            "admission control let an infeasible incumbent through: {:?}",
            report.violations
        );
    }
}

#[test]
fn churn_sequence_never_violates_spe_capacity() {
    // a deliberately tight platform: 2 SPEs with small stores, so the
    // eviction/admission logic actually gets exercised
    let spec = CellSpecBuilder::default()
        .spes(2)
        .local_store(ByteSize::kib(160))
        .code_size(ByteSize::kib(64))
        .build()
        .unwrap();
    let mut svc = Service::new(spec);

    let a = svc.admit(&audio::graph().unwrap(), 1.0).admitted().expect("audio fits");
    assert_incumbent_feasible(&svc);
    let c = svc.admit(&cipher::graph().unwrap(), 2.0).admitted().expect("cipher fits");
    assert_incumbent_feasible(&svc);
    let d = svc.admit(&dsp::graph().unwrap(), 1.0).admitted().expect("dsp fits");
    assert_incumbent_feasible(&svc);

    for (id, w) in [(a, 3.0), (c, 1.0), (d, 2.0), (a, 1.0)] {
        let r = svc.reweight(id, w).expect("live handle");
        assert!(
            matches!(r.verdict, Verdict::Applied | Verdict::Rejected(_)),
            "unexpected verdict {:?}",
            r.verdict
        );
        assert_incumbent_feasible(&svc);
    }
    svc.retire(c).expect("live handle");
    assert_incumbent_feasible(&svc);
    svc.admit(&video::graph().unwrap(), 1.0);
    assert_incumbent_feasible(&svc);
}

#[test]
fn repair_stays_close_to_from_scratch_portfolio() {
    let spec = CellSpec::qs22();
    let mut svc = Service::new(spec.clone());
    svc.admit(&audio::graph().unwrap(), 1.0);
    svc.admit(&cipher::graph().unwrap(), 1.0);
    let r = svc.admit(&dsp::graph().unwrap(), 1.0);
    assert!(r.admitted().is_some());

    let w = svc.workload().unwrap();
    let scratch = Portfolio::heuristics_only()
        .run_with(w.graph(), &spec, &PlanContext::default())
        .expect("portfolio always plans");
    // one point, outside the churn below: a single event may sit well
    // under the churn's 95% geometric mean (its minimum is 87.9%), so the
    // band here is 10%
    assert!(
        svc.period() <= scratch.best.period() * 1.10 + 1e-12,
        "repair period {} drifted >10% from from-scratch {}",
        svc.period(),
        scratch.best.period()
    );
}

/// The churn trace: arrivals, rate changes and departures of the four
/// real applications (duplicates renamed — application names key the
/// workload).
fn churn_events() -> Vec<(f64, TraceEvent)> {
    let audio = audio::graph().unwrap();
    let video = video::graph().unwrap();
    let cipher = cipher::graph().unwrap();
    let dsp = dsp::graph().unwrap();
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

/// Repair quality of one event, `T_scratch / T_repair`: the repaired
/// throughput as a fraction of the from-scratch one. A repair left
/// without a plan (an infinite period) scores 0.
fn quality(scratch_period: f64, repair_period: f64) -> f64 {
    if repair_period.is_finite() {
        scratch_period / repair_period
    } else {
        0.0
    }
}

/// The churn gate: repair keeps ≥ 95 % of from-scratch throughput
/// (geometric mean of [`quality`] over the churn's events).
fn repair_quality(geo_quality: f64) -> Result<(), String> {
    if geo_quality >= 0.95 {
        Ok(())
    } else {
        Err(format!(
            "GATE: repair quality {:.1}% fell below 95% of from-scratch",
            geo_quality * 100.0
        ))
    }
}

/// Every churn event applies, and the repaired incumbent keeps ≥ 95 %
/// of a from-scratch heuristic portfolio's throughput, event by event
/// (geometric mean; model periods, no clock). The same trace replayed
/// through a fresh service rejects nothing and ends feasible.
#[test]
fn repair_keeps_95_percent_of_from_scratch_over_the_churn() {
    let spec = CellSpec::qs22();
    let events = churn_events();

    let mut svc = Service::new(spec.clone());
    let mut qualities = Vec::new();
    for (_, ev) in &events {
        let ev = svc.resolve(ev).expect("the trace names live apps");
        let report = svc.process(ev).expect("live handles");
        assert!(report.applied(), "{} did not apply: {:?}", report.event, report.verdict);
        let w = svc.workload().expect("the churn never empties the service");
        let scratch = Portfolio::heuristics_only()
            .run_with(w.graph(), &spec, &PlanContext::default())
            .expect("the ppe_only member guarantees a plan");
        qualities.push(quality(scratch.best.period(), report.period));
    }
    let geo_quality =
        (qualities.iter().map(|q| q.ln()).sum::<f64>() / qualities.len() as f64).exp();
    let min_quality = qualities.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "quality: geomean {:.1}% (min {:.1}%) over {} events",
        geo_quality * 100.0,
        min_quality * 100.0,
        qualities.len()
    );
    repair_quality(geo_quality).unwrap_or_else(|refusal| panic!("{refusal}"));

    let mut replay_svc = Service::new(spec);
    let mut trace = EventTrace::new(0.25);
    for (t, ev) in events {
        trace.push(t, ev);
    }
    let online = replay(&mut replay_svc, &trace, 800);
    assert_eq!(online.rejected, 0, "the whole trace fits on a QS22");
    assert_incumbent_feasible(&replay_svc);
}

#[test]
fn repair_quality_refuses_a_run_below_the_floor_or_a_nan() {
    assert_eq!(repair_quality(0.95), Ok(()));
    let refusal = repair_quality(0.949).unwrap_err();
    assert!(refusal.contains("94.9% fell below 95%"), "{refusal}");
    assert!(repair_quality(f64::NAN).is_err());
    // a repair left without a plan drags the geometric mean to 0
    assert_eq!(quality(2e-6, f64::INFINITY), 0.0);
    assert!(repair_quality(quality(2e-6, f64::INFINITY)).is_err());
}

#[test]
fn migration_bytes_are_surfaced_per_event() {
    let mut svc = Service::new(CellSpec::with_spes(4));
    svc.admit(&audio::graph().unwrap(), 1.0);
    let mut any_moved = false;
    for (i, app) in [cipher::graph().unwrap(), dsp::graph().unwrap()].iter().enumerate() {
        let r = svc.admit(&app.renamed(format!("app{i}")), 1.0);
        assert!(r.admitted().is_some());
        // every reported move carries positive bytes and a real hop
        for mv in &r.delta.moved {
            assert!(mv.bytes > 0.0, "{} moved for free", mv.task);
            assert_ne!(mv.from, mv.to);
            any_moved = true;
        }
        assert!(
            (r.migration_bytes() - r.delta.migration_bytes).abs() < 1e-9,
            "admits drain no queue here"
        );
    }
    // consolidating onto a tighter platform moves *something* eventually
    let _ = any_moved; // not guaranteed on 4 roomy SPEs; asserted in the bench trace
}

#[test]
fn guarantee_gate_and_queue_drain() {
    // PPE-only platform: capacity is pure compute, easy to reason about
    let spec = CellSpecBuilder::default()
        .spes(1)
        .local_store(ByteSize::kib(96))
        .code_size(ByteSize::kib(64))
        .build()
        .unwrap();
    let opts =
        ServiceOptions { max_period: Some(40e-6), queue_rejected: true, ..Default::default() };
    let mut svc = Service::with_options(spec, opts);

    // audio alone is far inside the guarantee
    let a = svc.admit(&audio::graph().unwrap(), 1.0).admitted().expect("fits");
    // a heavy second copy at weight 8 would blow the 40us per-instance cap
    let r = svc.admit(&audio::graph().unwrap().renamed("audio-8x"), 8.0);
    assert_eq!(r.verdict, Verdict::Queued, "guarantee-breaking admit parks in the queue");
    assert_eq!(svc.queued(), 1);
    assert_incumbent_feasible(&svc);

    // retiring the original frees the machine; the queued app enters
    let r = svc.retire(a).expect("live");
    assert_eq!(r.drained.len(), 1);
    assert!(r.drained[0].admitted().is_some());
    assert_eq!(svc.n_apps(), 1);
    assert_eq!(svc.apps().next().unwrap().1, "audio-8x");
    assert_incumbent_feasible(&svc);
}

#[test]
fn rejecting_outright_reports_the_reason() {
    let opts = ServiceOptions { max_period: Some(1e-9), ..Default::default() };
    let mut svc = Service::with_options(CellSpec::ps3(), opts);
    let r = svc.admit(&video::graph().unwrap(), 1.0);
    match r.verdict {
        Verdict::Rejected(RejectReason::Guarantee { period, guarantee, .. }) => {
            assert!(period > guarantee);
        }
        other => panic!("expected a guarantee rejection, got {other:?}"),
    }
    assert!(svc.workload().is_none());
}

#[test]
fn trace_replay_measures_the_serving_loop() {
    let spec = CellSpec::qs22();
    let mut svc = Service::new(spec);
    let trace = EventTrace::new(0.10)
        .at(0.00, TraceEvent::Admit { graph: audio::graph().unwrap(), weight: 1.0 })
        .at(0.02, TraceEvent::Admit { graph: cipher::graph().unwrap(), weight: 2.0 })
        .at(0.04, TraceEvent::Reweight { app: "audio-encoder".into(), weight: 2.0 })
        .at(0.06, TraceEvent::Admit { graph: dsp::graph().unwrap(), weight: 1.0 })
        .at(0.08, TraceEvent::Retire { app: "cipher-pipeline".into() });
    let report = replay(&mut svc, &trace, 1200);

    assert_eq!(report.events.len(), 5);
    assert_eq!(report.rejected, 0, "everything fits on a QS22");
    assert!(report.median_replan() > std::time::Duration::ZERO);

    // per-app residency adds up: audio serves the whole horizon, cipher
    // only until its retirement
    let audio_served = report.app("audio-encoder").expect("audio measured");
    assert!((audio_served.seconds - 0.10).abs() < 1e-12);
    let cipher_served = report.app("cipher-pipeline").expect("cipher measured");
    assert!((cipher_served.seconds - 0.06).abs() < 1e-12);
    // delivered throughput is positive and bounded by the physical rate
    assert!(audio_served.throughput() > 0.0);
    assert!(audio_served.throughput() <= 1.0 / svc.period() * 2.0 * 1.05);
    assert_incumbent_feasible(&svc);
}

#[test]
fn app_names_resolve_to_stable_handles() {
    let mut svc = Service::new(CellSpec::ps3());
    let a = svc.admit(&audio::graph().unwrap(), 1.0).admitted().unwrap();
    let v = svc.admit(&video::graph().unwrap(), 1.0).admitted().unwrap();
    assert_eq!(svc.handle_of("audio-encoder"), Some(a));
    assert_eq!(svc.handle_of("video-pipeline"), Some(v));
    svc.retire(a).unwrap();
    // v's handle is unchanged even though its positional id shifted
    assert_eq!(svc.handle_of("video-pipeline"), Some(v));
    assert_eq!(svc.handle_of("audio-encoder"), None);
    let r = svc.reweight(v, 2.0).unwrap();
    assert_eq!(r.verdict, Verdict::Applied);
}

/// Retiring the *final* application must leave the service in a valid
/// empty state — workload and mapping gone, period back to idle, stale
/// handles dead — and the next admission must replan from scratch
/// rather than diffing against a ghost incumbent (ISSUE 6 satellite).
#[test]
fn retiring_the_final_app_resets_to_a_clean_empty_state() {
    let mut svc = Service::new(CellSpec::ps3());
    let g = audio::graph().unwrap();
    let id = svc.admit(&g, 1.0).admitted().expect("audio fits a PS3");
    assert!(svc.period().is_finite());

    let bye = svc.retire(id).expect("live handle");
    assert!(matches!(bye.verdict, Verdict::Applied));
    assert!(svc.workload().is_none(), "no workload survives the last retire");
    assert!(svc.mapping().is_none(), "no mapping survives the last retire");
    assert!(svc.period().is_infinite(), "an empty service is idle");
    assert!(svc.handle_of("audio-encoder").is_none(), "stale names do not resolve");
    assert!(svc.retire(id).is_err(), "stale handles are dead");

    // the next admission is a from-scratch plan: every task freshly
    // placed, nothing moved, zero EIB migration traffic
    let again = svc.admit(&g, 2.0);
    assert!(again.admitted().is_some(), "an empty service re-admits");
    assert_eq!(again.delta.placed.len(), g.n_tasks(), "all tasks placed anew");
    assert!(again.delta.moved.is_empty(), "nothing to migrate from");
    assert_eq!(again.delta.migration_bytes, 0.0);
    assert_incumbent_feasible(&svc);

    // same name, new lifetime: the fresh handle resolves, period is live
    assert!(svc.handle_of(g.name()).is_some());
    assert!(svc.period().is_finite());
}

/// The same reset must hold with the wait queue and background improver
/// switched on — the empty state has no queue ghosts and no background
/// plan racing a workload that no longer exists.
#[test]
fn final_retire_is_clean_with_queue_and_background_enabled() {
    let opts = ServiceOptions {
        queue_rejected: true,
        background: Some(std::time::Duration::from_millis(50)),
        ..ServiceOptions::default()
    };
    let mut svc = Service::with_options(CellSpec::ps3(), opts);
    let id = svc.admit(&dsp::graph().unwrap(), 1.0).admitted().expect("dsp fits");

    let bye = svc.retire(id).expect("live handle");
    assert!(matches!(bye.verdict, Verdict::Applied));
    assert!(bye.drained.is_empty(), "nothing was queued, nothing drains");
    assert!(svc.workload().is_none() && svc.mapping().is_none());
    assert!(svc.period().is_infinite());

    // a later event must not adopt a background plan for the retired
    // workload; the re-admission plans from scratch
    let again = svc.admit(&cipher::graph().unwrap(), 1.0);
    assert!(again.admitted().is_some());
    assert!(!again.background_adopted, "no ghost background plan to adopt");
    assert!(again.delta.moved.is_empty());
    assert_incumbent_feasible(&svc);
}
