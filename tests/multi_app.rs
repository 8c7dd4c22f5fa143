//! Multi-application co-scheduling end-to-end: the acceptance tests for
//! the `Workload` subsystem.
//!
//! * Co-scheduling audio + cipher and video + dsp on the QS22 via
//!   `Session` returns a feasible plan whose max weighted
//!   per-application period is never worse than the best
//!   disjoint-SPE-partition baseline.
//! * The per-application simulated throughput (ideal config) matches
//!   the per-application model prediction within 1%.
//! * All of it goes through the unchanged scheduler stack — the
//!   composed graph is planned like any other graph.

use cellstream::apps::{audio, cipher, dsp, video};
use cellstream::prelude::*;
use cellstream::sim::SimConfig;

fn audio_cipher() -> Workload {
    let a = audio::graph().unwrap();
    let c = cipher::graph().unwrap();
    Workload::compose("audio+cipher", &[&a, &c]).unwrap()
}

/// Co-schedule `w` on the QS22 with the heuristic portfolio seeded with
/// the best disjoint-SPE partition, then simulate the plan (ideal
/// config) and hold every application to its max-min fair prediction.
fn assert_co_scheduling_beats_the_best_partition(w: &Workload) {
    let spec = CellSpec::qs22();
    let (baseline, alloc, base_report) =
        best_partition(w, &spec, &PlanContext::default()).expect("a feasible partition exists");
    assert!(base_report.is_feasible());
    assert_eq!(alloc.iter().sum::<usize>(), spec.n_spe(), "all SPEs handed out");

    let planned = Session::for_workload(w, &spec)
        .portfolio(Portfolio::heuristics_only())
        .seed(baseline)
        .plan()
        .expect("the heuristic portfolio always plans");
    let plan = planned.plan();
    assert!(plan.is_feasible(), "co-scheduled plan must be feasible");
    assert!(
        plan.period() <= base_report.max_weighted_period() + 1e-15,
        "co-scheduling ({}) must never lose to the disjoint partition ({})",
        plan.period(),
        base_report.max_weighted_period()
    );

    // the per-app split is consistent: every weighted period equals the
    // composed round, and the objective is their maximum
    let per_app = planned.per_app();
    assert_eq!(per_app.len(), 2);
    for app in &per_app {
        assert!((app.weighted_period - plan.period()).abs() < 1e-15);
        assert!(app.isolated_period <= app.period + 1e-15);
    }

    // every app matches its max-min fair prediction within 1%, between
    // the round guarantee `w_i / T` and the isolated bound (apps whose
    // binding resources are private reclaim the slack between the two)
    let scheduled = planned.schedule().expect("feasible plans schedule");
    let (_, measured) =
        scheduled.simulate_per_app(&SimConfig::ideal(), 1500).expect("simulation runs");
    for (app, &sim) in per_app.iter().zip(&measured) {
        let predicted = app.fair_throughput;
        assert!(
            (sim - predicted).abs() / predicted < 0.01,
            "{}: sim {sim} vs {predicted}",
            app.app
        );
        assert!(sim >= app.throughput * 0.99, "{}: below the round guarantee", app.app);
        assert!(sim <= 1.0 / app.isolated_period * 1.01, "{}: above the isolated bound", app.app);
    }
}

#[test]
fn co_scheduling_audio_cipher_beats_or_ties_the_best_partition() {
    assert_co_scheduling_beats_the_best_partition(&audio_cipher());
}

#[test]
fn co_scheduling_video_dsp_beats_or_ties_the_best_partition() {
    let v = video::graph().unwrap();
    let d = dsp::graph().unwrap();
    assert_co_scheduling_beats_the_best_partition(
        &Workload::compose("video+dsp", &[&v, &d]).unwrap(),
    );
}

#[test]
fn per_app_sim_throughput_matches_model_within_one_percent() {
    let w = audio_cipher();
    let spec = CellSpec::qs22();
    let planned =
        Session::for_workload(&w, &spec).scheduler_named("multi_start").unwrap().plan().unwrap();
    let scheduled = planned.schedule().expect("feasible plans schedule");
    let (trace, measured) =
        scheduled.simulate_per_app(&SimConfig::ideal(), 3000).expect("simulation runs");
    let reports = scheduled.per_app();
    assert_eq!(measured.len(), 2);
    for (report, &sim) in reports.iter().zip(&measured) {
        // the model prediction is the max-min fair rate; the round rate
        // is the guarantee and the isolated period the ceiling
        let predicted = report.fair_throughput;
        assert!(
            (sim - predicted).abs() / predicted < 0.01,
            "{}: sim {sim} vs model {predicted}",
            report.app
        );
        assert!(sim >= report.throughput * 0.99, "{}: below guarantee", report.app);
        assert!(sim <= 1.0 / report.isolated_period * 1.01, "{}", report.app);
    }
    // the aggregate trace agrees too
    let model = scheduled.plan().throughput();
    let sim = trace.steady_state_throughput();
    assert!((sim - model).abs() / model < 0.01, "aggregate sim {sim} vs {model}");
}

#[test]
fn weighted_workload_shifts_the_objective() {
    // doubling cipher's weight must weight its period twice in the
    // objective: the round gets longer, audio's share shrinks
    let a = audio::graph().unwrap();
    let c = cipher::graph().unwrap();
    let spec = CellSpec::qs22();
    let even = Workload::compose("even", &[&a, &c]).unwrap();
    let mut builder = Workload::builder("skewed");
    builder.push(&a, 1.0).unwrap();
    builder.push(&c, 2.0).unwrap();
    let skewed = builder.build().unwrap();

    let plan_even =
        Session::for_workload(&even, &spec).scheduler_named("multi_start").unwrap().plan().unwrap();
    let plan_skewed = Session::for_workload(&skewed, &spec)
        .scheduler_named("multi_start")
        .unwrap()
        .plan()
        .unwrap();
    // more demanded work per round cannot shorten the round
    assert!(plan_skewed.plan().period() >= plan_even.plan().period() - 1e-15);
    // cipher's per-instance period is half its weighted period
    let cipher_report = &plan_skewed.per_app()[1];
    assert!((cipher_report.weight - 2.0).abs() < 1e-15);
    assert!(
        (cipher_report.period * 2.0 - plan_skewed.plan().period()).abs() < 1e-15,
        "weight-2 app runs two instances per round"
    );
}

#[test]
fn all_registered_schedulers_plan_the_composed_workload() {
    // smaller pair to keep brute/milp tractable is still too big for
    // brute (n^K guard) — every scheduler must return Ok or a structured
    // PlanError on the composed graph, and the feasible ones must tag
    // per-app reports consistently
    let v = video::graph().unwrap();
    let d = dsp::graph().unwrap();
    let w = Workload::compose("video+dsp", &[&v, &d]).unwrap();
    let spec = CellSpec::ps3();
    let ctx = PlanContext::with_budget(std::time::Duration::from_secs(5));
    for s in all_schedulers() {
        match s.plan(w.graph(), &spec, &ctx) {
            Ok(plan) => {
                let per_app = plan.per_app(&w, &spec);
                assert_eq!(per_app.len(), 2, "{}", s.name());
                for app in per_app {
                    assert!((app.weighted_period - plan.period()).abs() < 1e-12, "{}", s.name());
                }
            }
            Err(e) => {
                // brute refuses instances beyond its n^K guard; any other
                // structured error would also be acceptable here
                assert!(matches!(e, PlanError::Unsupported(_)), "{}: {e}", s.name());
            }
        }
    }
}

#[test]
fn session_workload_accessors_round_trip() {
    let w = audio_cipher();
    let spec = CellSpec::qs22();
    let planned =
        Session::for_workload(&w, &spec).scheduler_named("greedy_cpu").unwrap().plan().unwrap();
    assert!(planned.workload().is_some());
    assert_eq!(planned.graph().n_tasks(), w.graph().n_tasks());
    // single-graph sessions report no per-app split
    let g = audio::graph().unwrap();
    let single = Session::new(&g, &spec).scheduler_named("greedy_cpu").unwrap().plan().unwrap();
    assert!(single.per_app().is_empty());
}
