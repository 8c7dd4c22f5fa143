//! Regression: degenerate zero-work graphs must flow through every
//! scheduler as `Ok`/`PlanError`, never as a panic.
//!
//! Zero-cost tasks are legal (placeholders, pure-routing stages, graphs
//! under construction), and a period of exactly `0.0` used to trip the
//! NaN-unsafe `partial_cmp().unwrap()` float orderings sprinkled through
//! the search stack — one poisoned comparison was enough to panic a
//! whole portfolio thread. All orderings are now `f64::total_cmp`, the
//! MILP formulation guards its `0 / 0` normalisation scale, and
//! `throughput_of` keeps `1 / 0` out of the reports.

use cellstream::prelude::*;
use cellstream_graph::GraphBuilder;

/// A 3-task chain where every cost and byte count is exactly zero.
fn zero_work_graph() -> StreamGraph {
    let mut b: GraphBuilder = StreamGraph::builder("zero");
    let a = b.add_task(TaskSpec::new("a").uniform_cost(0.0));
    let m = b.add_task(TaskSpec::new("m").uniform_cost(0.0));
    let z = b.add_task(TaskSpec::new("z").uniform_cost(0.0));
    b.add_edge(a, m, 0.0).unwrap();
    b.add_edge(m, z, 0.0).unwrap();
    b.build().expect("zero costs are legal")
}

#[test]
fn every_scheduler_survives_a_zero_work_graph() {
    let g = zero_work_graph();
    let spec = CellSpec::with_spes(2);
    let ctx = PlanContext::default();
    for s in all_schedulers() {
        // Ok or PlanError are both acceptable; panicking is not. The
        // catch_unwind double-checks the contract so a reintroduced
        // NaN-unsafe ordering fails this test instead of aborting it.
        let name = s.name().to_owned();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.plan(&g, &spec, &ctx).map(|p| p.period())
        }));
        match result {
            Ok(Ok(period)) => {
                assert_eq!(period, 0.0, "{name}: a zero-work graph has period 0");
            }
            Ok(Err(e)) => {
                // a structured refusal is fine (e.g. nothing to optimise)
                let _ = e.to_string();
            }
            Err(_) => panic!("{name} panicked on a zero-work graph"),
        }
    }
}

#[test]
fn portfolio_survives_a_zero_work_graph() {
    let g = zero_work_graph();
    let spec = CellSpec::with_spes(2);
    let ctx = PlanContext::with_budget(std::time::Duration::from_secs(5));
    let outcome = Portfolio::standard()
        .run_with(&g, &spec, &ctx)
        .expect("PPE-only member guarantees a feasible plan");
    assert!(outcome.best.is_feasible());
    assert_eq!(outcome.best.period(), 0.0);
    // throughput stays finite (0, not inf) thanks to the evaluator guard
    assert_eq!(outcome.best.throughput(), 0.0);
    // every member either planned or failed structurally — none panicked
    assert_eq!(outcome.leaderboard.len(), Portfolio::standard().member_names().len());
}

#[test]
fn session_plans_a_zero_work_graph() {
    let g = zero_work_graph();
    let spec = CellSpec::with_spes(2);
    let planned = Session::new(&g, &spec)
        .scheduler_named("multi_start")
        .unwrap()
        .plan()
        .expect("heuristics handle zero-work graphs");
    assert_eq!(planned.plan().period(), 0.0);
}

#[test]
fn zero_work_workload_composes_and_evaluates() {
    // composing zero-work apps exercises the same guards through the
    // multi-application path
    let a = zero_work_graph();
    let mut b = StreamGraph::builder("other");
    b.add_task(TaskSpec::new("t").uniform_cost(0.0));
    let b = b.build().unwrap();
    let w = Workload::compose("zeros", &[&a, &b]).unwrap();
    let spec = CellSpec::with_spes(2);
    let m = Mapping::all_on(w.graph(), PeId(0));
    let report = evaluate_workload(&w, &spec, &m).unwrap();
    assert!(report.is_feasible());
    assert_eq!(report.max_weighted_period(), 0.0);
    for app in &report.per_app {
        assert_eq!(app.throughput, 0.0, "guarded, not inf/NaN");
    }
}
