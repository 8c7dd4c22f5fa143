//! Cross-crate integration: the full pipeline from graph generation
//! through optimal mapping, periodic schedule, simulation and execution,
//! driven through the `Session` facade and the scheduler registry.

use cellstream::daggen::{generate, CostParams, DagGenParams};
use cellstream::prelude::*;
use cellstream::rt::{ChecksumKernel, Kernel};
use std::sync::Arc;
use std::time::Duration;

/// MILP options that stop the search on a node count, never on the
/// clock: in the unoptimised test profile the default 60 s limit ends
/// every search here, so what a test asserted on would depend on the
/// host's speed — and the file would take minutes.
fn node_capped() -> SolveOptions {
    let mut opts = SolveOptions::default();
    opts.mip.max_nodes = 150;
    opts
}

fn medium_graph(seed: u64) -> cellstream::graph::StreamGraph {
    generate(
        "e2e",
        &DagGenParams {
            n: 18,
            fat: 0.5,
            regular: 0.5,
            density: 0.25,
            jump: 2,
            costs: CostParams::default(),
        },
        seed,
    )
    .unwrap()
}

#[test]
fn generate_plan_schedule_simulate_execute() {
    let g = medium_graph(0xE2E);
    let spec = CellSpec::ps3();

    // 1. plan: the standard portfolio (greedies + multi-start + seeded MILP)
    let planned = Session::new(&g, &spec)
        .budget(Duration::from_secs(60))
        .solve_options(node_capped())
        .plan()
        .expect("portfolio always finds the PPE-only fallback");
    let plan = planned.plan().clone();
    assert!(plan.is_feasible());
    assert!(planned.leaderboard().len() == 7, "one entry per portfolio member");
    // the winner is consistent with the analytic evaluator
    let report = evaluate(&g, &spec, &plan.mapping).unwrap();
    assert!((report.period - plan.period()).abs() < 1e-15);

    // 2. periodic schedule is consistent
    let scheduled = planned.schedule().expect("feasible plans schedule");
    for pe in spec.pes() {
        assert!(scheduled.schedule().utilisation(pe) <= 1.0 + 1e-9);
    }

    // 3. simulation approaches the model
    let trace = scheduled.simulate(&SimConfig::ideal(), 1500).unwrap();
    let sim_rho = trace.steady_state_throughput();
    assert!(sim_rho <= plan.throughput() * 1.01, "sim cannot beat the model");
    assert!(sim_rho >= plan.throughput() * 0.85, "sim {} vs model {}", sim_rho, plan.throughput());

    // 4. the same mapping executes for real
    let kernels: Vec<Arc<dyn Kernel>> =
        (0..g.n_tasks()).map(|_| Arc::new(ChecksumKernel) as Arc<dyn Kernel>).collect();
    let stats =
        scheduled.execute(&kernels, &RtConfig { n_instances: 200, ..RtConfig::default() }).unwrap();
    assert!(stats.processed.iter().all(|&c| c == 200));
}

#[test]
fn milp_beats_or_matches_heuristics_end_to_end() {
    let g = medium_graph(77);
    let spec = CellSpec::qs22();
    let planned = Session::new(&g, &spec).solve_options(node_capped()).plan().unwrap();
    // The seeded MILP member must itself succeed, be feasible, and match
    // or beat every feasible heuristic member — the §6 guarantee the old
    // hand-wired solve(seeds) pipeline enforced. (A winner-vs-members
    // check would be tautological: the winner is the leaderboard min.)
    let milp = planned
        .leaderboard()
        .iter()
        .find(|m| m.scheduler == "milp")
        .expect("milp is a standard-portfolio member");
    let milp_plan = milp.feasible_plan().expect("seeded MILP always returns a feasible plan");
    let mut heuristics_seen = 0;
    for member in planned.leaderboard() {
        if member.scheduler == "milp" {
            continue;
        }
        let p = member.feasible_plan().expect("all heuristic members are feasible on this graph");
        heuristics_seen += 1;
        assert!(
            milp_plan.period() <= p.period() + 1e-12,
            "seeded MILP worse than {}: {} vs {}",
            member.scheduler,
            milp_plan.period(),
            p.period()
        );
    }
    assert_eq!(heuristics_seen, 6, "ppe_only + both greedies + comm_aware + multi_start + anneal");
}

#[test]
fn speedup_grows_with_spes_like_figure7() {
    // The qualitative Figure 7 shape on a small instance: the best-known
    // period is monotone non-increasing in the number of SPEs. Carrying
    // the previous platform's winner forward as a warm start makes the
    // property exact: any mapping on n SPEs is valid on n+1 SPEs, so a
    // seeded planner can never regress.
    let g = medium_graph(31);
    let mut last_period = f64::INFINITY;
    let mut carry: Option<Mapping> = None;
    for spes in [0usize, 2, 4, 6] {
        let spec = CellSpec::with_spes(spes);
        let mut session =
            Session::new(&g, &spec).budget(Duration::from_secs(30)).solve_options(node_capped());
        if let Some(m) = carry.take() {
            session = session.seed(m);
        }
        let planned = session.plan().unwrap();
        let period = planned.plan().period();
        assert!(
            period <= last_period + 1e-12,
            "{spes} SPEs: period {period} worse than with fewer SPEs {last_period}"
        );
        carry = Some(planned.plan().mapping.clone());
        last_period = period;
    }
}

#[test]
fn ppe_only_platform_degenerates_gracefully() {
    let g = medium_graph(5);
    let spec = CellSpec::with_spes(0);
    let scheduled = Session::new(&g, &spec)
        .scheduler_named("milp")
        .unwrap()
        .plan()
        .unwrap()
        .schedule()
        .unwrap();
    // with no SPEs the only feasible mapping is PPE-only
    assert_eq!(scheduled.plan().mapping, Mapping::all_on(&g, PeId(0)));
    let trace = scheduled.simulate(&SimConfig::ideal(), 500).unwrap();
    let rho = trace.steady_state_throughput();
    let model = scheduled.plan().throughput();
    assert!((rho - model).abs() / model < 0.02);
}

#[test]
fn infeasible_plans_refuse_to_schedule() {
    // A custom scheduler (exercising Session::scheduler with a
    // user-defined implementation) that maps everything onto one SPE —
    // guaranteed to blow the 192 kB local-store budget on this graph.
    use cellstream::core::scheduler::{Plan, PlanContext, PlanStats, Scheduler as _};
    use cellstream::graph::StreamGraph;
    use std::time::Duration;

    struct OneSpeScheduler;
    impl cellstream::core::Scheduler for OneSpeScheduler {
        fn name(&self) -> &str {
            "one_spe"
        }
        fn plan(
            &self,
            g: &StreamGraph,
            spec: &CellSpec,
            _ctx: &PlanContext,
        ) -> Result<Plan, PlanError> {
            let all_on_spe = Mapping::all_on(g, spec.pe(1));
            Plan::from_mapping(
                self.name(),
                g,
                spec,
                all_on_spe,
                PlanStats::Heuristic,
                Duration::ZERO,
            )
        }
    }

    let g = medium_graph(11);
    let spec = CellSpec::qs22();
    let plan = OneSpeScheduler.plan(&g, &spec, &PlanContext::default()).unwrap();
    assert!(!plan.is_feasible(), "18 tasks' buffers cannot fit one 192 kB local store");

    let planned = Session::new(&g, &spec).scheduler(OneSpeScheduler).plan().unwrap();
    let err = match planned.schedule() {
        Err(e) => e,
        Ok(_) => panic!("infeasible plan must not schedule"),
    };
    assert!(matches!(err, PlanError::Infeasible(_)), "{err}");
    assert!(err.to_string().contains("one_spe"), "{err}");

    // the same scheduler on the feasible path still schedules fine
    let planned = Session::new(&g, &spec).scheduler_named("greedy_mem").unwrap().plan().unwrap();
    if planned.plan().is_feasible() {
        assert!(planned.schedule().is_ok());
    }
}

#[test]
fn session_solo_scheduler_matches_direct_call() {
    let g = medium_graph(42);
    let spec = CellSpec::ps3();
    let planned = Session::new(&g, &spec).scheduler_named("greedy_cpu").unwrap().plan().unwrap();
    assert_eq!(planned.plan().mapping, cellstream::heuristics::greedy_cpu(&g, &spec));
    assert!(planned.leaderboard().is_empty(), "single-scheduler sessions have no leaderboard");
}

#[test]
fn solve_wrapper_stays_compatible() {
    // The legacy entry point must keep working and agree with the
    // Scheduler-based MILP path.
    let g = medium_graph(3);
    let spec = CellSpec::ps3();
    let outcome = solve(&g, &spec, &node_capped()).unwrap();
    assert!(outcome.throughput > 0.0);
    let report = evaluate(&g, &spec, &outcome.mapping).unwrap();
    assert!(report.is_feasible());
    assert!((report.period - outcome.period).abs() < 1e-15);
}
