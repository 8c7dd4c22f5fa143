//! Parity tests for the unified `Scheduler` API: every registered
//! scheduler must return a structurally valid (and, where promised,
//! feasible) mapping on the paper's Figure 2 graphs and on every
//! `daggen::shapes` generator, and a `Portfolio` must never return a
//! plan worse than the best of its members.

use cellstream::core::scheduler::{PlanContext, PlanError};
use cellstream::core::Availability;
use cellstream::daggen::{chain, diamond, fork_join, shapes, CostParams};
use cellstream::heuristics::repair::repair;
use cellstream::heuristics::{comm_aware_greedy, greedy_cpu, greedy_mem, LocalSearchOptions};
use cellstream::prelude::*;
use std::time::Duration;

/// The paper's Figure 2(a): the two-filter video pipeline.
fn figure2a() -> StreamGraph {
    let mut b = StreamGraph::builder("fig2a");
    let t1 = b.add_task(TaskSpec::new("T1").ppe_cost(2e-6).spe_cost(0.7e-6).reads(2048.0));
    let t2 = b.add_task(TaskSpec::new("T2").ppe_cost(1e-6).spe_cost(0.4e-6).writes(2048.0));
    b.add_edge(t1, t2, 4096.0).unwrap();
    b.build().unwrap()
}

/// The paper's Figure 2(b) in miniature: a peeking diamond (the video
/// encoder with a motion-estimation stage observing future frames).
fn figure2b() -> StreamGraph {
    let mut b = StreamGraph::builder("fig2b");
    let dec = b.add_task(TaskSpec::new("decode").ppe_cost(1.5e-6).spe_cost(0.6e-6).reads(4096.0));
    let motion = b.add_task(TaskSpec::new("motion").ppe_cost(2.0e-6).spe_cost(0.8e-6).peek(2));
    let filt = b.add_task(TaskSpec::new("filter").ppe_cost(1.2e-6).spe_cost(0.5e-6));
    let enc = b.add_task(TaskSpec::new("encode").ppe_cost(1.8e-6).spe_cost(0.9e-6).writes(1024.0));
    b.add_edge(dec, motion, 4096.0).unwrap();
    b.add_edge(dec, filt, 4096.0).unwrap();
    b.add_edge(motion, enc, 512.0).unwrap();
    b.add_edge(filt, enc, 4096.0).unwrap();
    b.build().unwrap()
}

/// Every test graph: the two Figure 2 pipelines plus one instance of
/// each `daggen::shapes` generator, kept small enough that even the
/// exhaustive scheduler stays inside its enumeration guard.
fn graph_zoo() -> Vec<StreamGraph> {
    let costs = CostParams::default();
    vec![
        figure2a(),
        figure2b(),
        shapes::figure3(),
        chain("zoo-chain", 6, &costs, 41),
        fork_join("zoo-fj", 3, &costs, 42),
        diamond("zoo-diamond", 2, &costs, 43),
    ]
}

#[test]
fn every_scheduler_is_valid_on_the_zoo() {
    let spec = CellSpec::with_spes(2);
    let ctx = PlanContext {
        // keep the MILP snappy: these instances are tiny
        stop: Stop::after(Duration::from_secs(20)),
        ..Default::default()
    };
    for g in graph_zoo() {
        for scheduler in all_schedulers() {
            let plan = scheduler
                .plan(&g, &spec, &ctx)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", scheduler.name(), g.name()));
            // structural validity: evaluate() revalidates the mapping
            let report = evaluate(&g, &spec, &plan.mapping)
                .unwrap_or_else(|e| panic!("{} invalid on {}: {e}", scheduler.name(), g.name()));
            assert!(report.period > 0.0 && report.period.is_finite());
            assert!(
                (report.period - plan.period()).abs() < 1e-15,
                "plan must embed its own report"
            );
            assert_eq!(plan.scheduler, scheduler.name());
            // optimisers promise feasibility on instances where the
            // PPE-only fallback exists (always true here)
            if matches!(plan.scheduler.as_str(), "milp" | "brute" | "multi_start" | "ppe_only") {
                assert!(
                    plan.is_feasible(),
                    "{} produced an infeasible plan on {}: {:?}",
                    scheduler.name(),
                    g.name(),
                    plan.report.violations
                );
            }
        }
    }
}

/// A context cancelled before planning stops every iterative heuristic
/// before its first step, and each of them would have moved without the
/// stop: `ctx.stop` reaches local search, multi-start, annealing and
/// repair, not only a search that runs until a budget ends it.
#[test]
fn a_cancelled_context_stops_every_iterative_heuristic() {
    let g = chain("stopped", 12, &CostParams::default(), 8);
    let spec = CellSpec::qs22();
    let cancelled = PlanContext { stop: Stop::new(), ..PlanContext::default() };
    cancelled.stop.cancel();
    let free = PlanContext::default();
    let plan = |name: &str, ctx: &PlanContext| {
        scheduler_by_name(name).expect("registered").plan(&g, &spec, ctx).expect("plans")
    };
    let period = |m: &Mapping| {
        let r = evaluate(&g, &spec, m).expect("valid");
        if r.is_feasible() {
            r.period
        } else {
            f64::INFINITY
        }
    };

    // local search and annealing start from GreedyCpu when unseeded
    let start = greedy_cpu(&g, &spec);
    assert!(period(&start).is_finite(), "the annealer keeps a feasible start");
    assert_eq!(plan("local_search", &cancelled).mapping, start);
    assert_ne!(plan("local_search", &free).mapping, start);

    let starts = [
        greedy_mem(&g, &spec),
        start.clone(),
        comm_aware_greedy(&g, &spec),
        Mapping::all_on(&g, PeId(0)),
    ];
    let best_start = starts.iter().min_by(|a, b| period(a).total_cmp(&period(b))).unwrap();
    assert_eq!(&plan("multi_start", &cancelled).mapping, best_start);
    assert_ne!(&plan("multi_start", &free).mapping, best_start);

    let annealed = plan("anneal", &cancelled);
    assert_eq!(annealed.mapping, start);
    assert_eq!(annealed.stats, PlanStats::Search { iterations: 0 });
    assert_ne!(plan("anneal", &free).mapping, start);

    let unplaced = vec![None; g.n_tasks()];
    let full = Availability::full(&spec);
    let refine = LocalSearchOptions::default();
    let (unrefined, _) = repair(&g, &spec, &full, &unplaced, &refine, &cancelled.stop);
    assert_eq!(plan("repair", &cancelled).mapping, unrefined);
    assert_ne!(plan("repair", &free).mapping, unrefined);
}

#[test]
fn registry_and_names_agree() {
    assert_eq!(SCHEDULER_NAMES.len(), 10);
    for name in SCHEDULER_NAMES {
        let s = scheduler_by_name(name).expect("name registered");
        assert_eq!(s.name(), name);
    }
    assert!(scheduler_by_name("does_not_exist").is_none());
}

#[test]
fn portfolio_never_worse_than_best_member() {
    let spec = CellSpec::ps3();
    for g in graph_zoo() {
        let ctx = PlanContext::with_budget(Duration::from_secs(20));
        let outcome = Portfolio::standard()
            .run_with(&g, &spec, &ctx)
            .unwrap_or_else(|e| panic!("portfolio failed on {}: {e}", g.name()));
        let best_member = outcome
            .leaderboard
            .iter()
            .filter_map(|m| m.feasible_plan())
            .map(|p| p.period())
            .fold(f64::INFINITY, f64::min);
        assert!(
            outcome.best.period() <= best_member + 1e-15,
            "{}: portfolio best {} worse than best member {}",
            g.name(),
            outcome.best.period(),
            best_member
        );
        // leaderboard is complete and sorted best-first
        assert_eq!(outcome.leaderboard.len(), 7);
        let feasible: Vec<f64> = outcome
            .leaderboard
            .iter()
            .filter_map(|m| m.feasible_plan().map(|p| p.period()))
            .collect();
        assert!(feasible.windows(2).all(|w| w[0] <= w[1] + 1e-15), "{feasible:?}");
    }
}

#[test]
fn portfolio_brute_agrees_with_milp_on_figure2() {
    // On instances small enough for exhaustive search, the portfolio of
    // {brute} and an exact-gap MILP must land on the same period.
    let spec = CellSpec::with_spes(2);
    for g in [figure2a(), figure2b(), shapes::figure3()] {
        let brute =
            scheduler_by_name("brute").unwrap().plan(&g, &spec, &PlanContext::default()).unwrap();
        let exact = PlanContext {
            solve: SolveOptions {
                mip: cellstream::milp::bb::MipOptions {
                    rel_gap: 0.0,
                    abs_gap: 1e-9,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let milp = scheduler_by_name("milp").unwrap().plan(&g, &spec, &exact).unwrap();
        assert!(
            (brute.period() - milp.period()).abs() <= 1e-9 + 1e-6 * brute.period(),
            "{}: brute {} vs milp {}",
            g.name(),
            brute.period(),
            milp.period()
        );
    }
}

#[test]
fn unknown_scheduler_name_is_a_clean_error() {
    let g = figure2a();
    let spec = CellSpec::ps3();
    let Err(err) = Session::new(&g, &spec).scheduler_named("cplex") else {
        panic!("unknown scheduler name must be rejected");
    };
    assert!(matches!(err, PlanError::Unsupported(_)), "{err}");
    assert!(err.to_string().contains("cplex"));
}
