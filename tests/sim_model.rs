//! The simulator's steady state is an identity of the evaluator.
//!
//! `core::evaluate` reports two periods: the paper's `T` (§3.2), which
//! leaves out what the scheduling framework pays, and the calibrated
//! `T_cal`, which charges each PE the framework's overheads
//! (`cellstream_platform::framework`: an activation per seated task, an
//! interrupt per memory read, memory write and cut in-edge, half of one
//! per cut out-edge). `sim::simulate` charges the same overheads under
//! `SimConfig::calibrated()` and none under `SimConfig::ideal()`. Its
//! steady-state throughput must then be `1/T_cal` within `1e-3` relative
//! under `calibrated()`, and `1/T` within `3e-3` under `ideal()`. The
//! evaluator computes both periods in closed form, so this referees the
//! simulator with something other than the simulator.
//!
//! The rate is read from the run's cycle, or from the `[0.5·n, 0.85·n]`
//! window when none was found, over 2 000 instances so that the drain
//! stays out of the window. The cases:
//! * the twelve mappings the benchmark's `plan_paper` simulates, where
//!   both identities hold;
//! * random `daggen` graphs under random mappings. The identities hold
//!   where a PE's compute row sets the period. They do not hold in two
//!   classes, which DESIGN.md "Known deviations" names and the last two
//!   tests pin with an example each: an interface row sets the period
//!   (the simulator's max-min fair sharing can run below the bounded
//!   multiport model, ideal or calibrated), or an interface row comes
//!   within the DMA latency of `T_cal` (the §4.2 buffers no longer cover
//!   the latency). The sweep asserts each identity where it is claimed,
//!   counts the cases outside the claim and how many of them miss the
//!   bound, and requires a quarter of its cases to be claimed.

use cellstream::core::{evaluate, solve, Mapping, Plan, PlanContext, Scheduler, SolveOptions};
use cellstream::daggen::{generate, paper, CostParams, DagGenParams};
use cellstream::graph::ccr::{paper_ccr_sweep, rescale_to_ccr, DEFAULT_BW};
use cellstream::graph::StreamGraph;
use cellstream::heuristics::{
    scheduler_by_name, AnnealScheduler, AnnealingOptions, MultiStartScheduler,
};
use cellstream::milp::bb::MipOptions;
use cellstream::platform::framework::DMA_LATENCY;
use cellstream::platform::{CellSpec, PeId};
use cellstream::sim::{simulate, SimConfig};
use std::time::Duration;

/// Instances per run: enough that the drain stays out of the window.
const INSTANCES: u64 = 2_000;

/// Random cases of the sweep.
const CASES: usize = 64;

/// A splitmix64 stream, as the benchmark draws its annealer seeds.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The benchmark's `plan_paper` planning: graphs 1 and 3 at the six
/// CCRs, the seed stack (the three greedies, multi-start, the annealer
/// from multi-start with the benchmark's per-instance seed), then Linear
/// Program (1) warm-started with the feasible seeds and stopped on a
/// 12-node cap at zero gap. Each instance's name, graph and mapping.
fn plan_paper() -> Vec<(String, StreamGraph, Mapping)> {
    let spec = CellSpec::qs22();
    let mut anneal_seeds = SplitMix(0x5A_2010 ^ 10u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let graphs = paper::all_graphs();
    let mut planned = Vec::new();
    for ccr in paper_ccr_sweep() {
        for i in [0, 2] {
            let g = rescale_to_ccr(&graphs[i], ccr, DEFAULT_BW);
            let mut ctx = PlanContext::default();
            let mut plans: Vec<Plan> = ["greedy_mem", "greedy_cpu", "comm_aware"]
                .into_iter()
                .map(|name| scheduler_by_name(name).unwrap().plan(&g, &spec, &ctx).unwrap())
                .collect();
            let multi = MultiStartScheduler::default().plan(&g, &spec, &ctx).unwrap();
            ctx.seeds = vec![multi.mapping.clone()];
            plans.push(multi);
            let anneal = AnnealScheduler {
                opts: AnnealingOptions {
                    seed: anneal_seeds.next_u64(),
                    ..AnnealingOptions::default()
                },
            };
            plans.push(anneal.plan(&g, &spec, &ctx).unwrap());
            let opts = SolveOptions {
                mip: MipOptions {
                    rel_gap: 0.0,
                    abs_gap: 0.0,
                    max_nodes: 12,
                    time_limit: Duration::from_secs(3600),
                    ..MipOptions::default()
                },
                seeds: plans
                    .iter()
                    .filter(|p| p.is_feasible())
                    .map(|p| p.mapping.clone())
                    .collect(),
                ..SolveOptions::default()
            };
            let out = solve(&g, &spec, &opts).expect("the PPE-only seed guarantees an incumbent");
            let label = if i == 0 { 1 } else { 3 };
            planned.push((format!("graph {label} @ {ccr:.3}"), g, out.mapping));
        }
    }
    planned
}

/// `rate · period − 1` of `m` under each configuration: the calibrated
/// run against `T_cal`, the ideal one against `T`.
fn errors(g: &StreamGraph, spec: &CellSpec, m: &Mapping) -> (f64, f64) {
    let report = evaluate(g, spec, m).unwrap();
    let rate = |config: &SimConfig| {
        simulate(g, spec, m, config, INSTANCES).unwrap().steady_state_throughput()
    };
    (
        rate(&SimConfig::calibrated()) * report.calibrated_period - 1.0,
        rate(&SimConfig::ideal()) * report.period - 1.0,
    )
}

/// Where each identity is claimed: under `ideal()`, every interface row
/// below `T`; under `calibrated()`, every interface row at least the DMA
/// latency below `T_cal`.
fn claimed(g: &StreamGraph, spec: &CellSpec, m: &Mapping) -> (bool, bool) {
    let report = evaluate(g, spec, m).unwrap();
    let bw = spec.interface_bw().as_bytes_per_s();
    let interface = (0..spec.n_pes())
        .map(|i| report.in_bytes[i].max(report.out_bytes[i]) / bw)
        .fold(0.0, f64::max);
    (interface + DMA_LATENCY <= report.calibrated_period, interface < report.period)
}

#[test]
fn the_plan_paper_mappings_run_at_their_calibrated_and_ideal_periods() {
    let spec = CellSpec::qs22();
    for (name, g, m) in plan_paper() {
        let report = evaluate(&g, &spec, &m).unwrap();
        let (calibrated, ideal) = errors(&g, &spec, &m);
        println!(
            "{name}: T/T_cal {:.4}, calibrated {calibrated:+.1e}, ideal {ideal:+.1e}",
            report.period / report.calibrated_period
        );
        assert!(calibrated.abs() <= 1e-3, "{name}: calibrated rate x T_cal - 1 = {calibrated:e}");
        assert!(ideal.abs() <= 3e-3, "{name}: ideal rate x T - 1 = {ideal:e}");
    }
}

/// A random `daggen` graph at one of the paper's CCRs under a random
/// mapping, with a quarter, half or none of its tasks forced on the PPE.
fn random_case(rng: &mut SplitMix, spec: &CellSpec) -> (StreamGraph, Mapping) {
    let mut draw = |k: u64| (rng.next_u64() % k) as usize;
    let (seed, n, ccr) = (draw(10_000) as u64, 4 + draw(24), paper_ccr_sweep()[draw(6)]);
    let params = DagGenParams {
        n,
        fat: 0.6,
        regular: 0.5,
        density: 0.4,
        jump: 2,
        costs: CostParams::default(),
    };
    let g = rescale_to_ccr(&generate("referee", &params, seed).unwrap(), ccr, DEFAULT_BW);
    let ppe_share = [0, 50, 75][draw(3)];
    let assignment = g
        .task_ids()
        .map(|_| if draw(100) < ppe_share { PeId(0) } else { spec.pe(draw(spec.n_pes() as u64)) })
        .collect();
    let m = Mapping::new(&g, spec, assignment).unwrap();
    (g, m)
}

#[test]
fn random_mappings_run_at_their_periods_where_a_compute_row_sets_them() {
    let spec = CellSpec::qs22();
    let mut rng = SplitMix(0x51_3D_E1);
    // per configuration: cases claimed, cases outside the claim, and
    // those of them off by more than the claim's bound
    let (mut calibrated_cases, mut ideal_cases) = ([0; 3], [0; 3]);
    for case in 0..CASES {
        let (g, m) = random_case(&mut rng, &spec);
        let (calibrated_claimed, ideal_claimed) = claimed(&g, &spec, &m);
        let (calibrated, ideal) = errors(&g, &spec, &m);
        for (cases, claimed, error, bound, name) in [
            (&mut calibrated_cases, calibrated_claimed, calibrated, 1e-3, "calibrated"),
            (&mut ideal_cases, ideal_claimed, ideal, 3e-3, "ideal"),
        ] {
            if claimed {
                assert!(error.abs() <= bound, "case {case}: {name} rate x period - 1 = {error:e}");
                cases[0] += 1;
            } else {
                cases[1] += 1;
                cases[2] += usize::from(error.abs() > bound);
            }
        }
    }
    println!(
        "claimed / not / off of those not: calibrated {calibrated_cases:?}, ideal {ideal_cases:?}"
    );
    // not vacuous: a quarter of the random cases are claimed
    assert!(calibrated_cases[0] >= CASES / 4 && ideal_cases[0] >= CASES / 4);
}

/// Paper-CCR `daggen` graph `seed` of `n` tasks under `assignment`.
fn pinned(seed: u64, n: usize, ccr: f64, assignment: &[usize]) -> (StreamGraph, Mapping) {
    let spec = CellSpec::qs22();
    let params = DagGenParams {
        n,
        fat: 0.6,
        regular: 0.5,
        density: 0.4,
        jump: 2,
        costs: CostParams::default(),
    };
    let g = rescale_to_ccr(&generate("referee", &params, seed).unwrap(), ccr, DEFAULT_BW);
    let m = Mapping::new(&g, &spec, assignment.iter().map(|&pe| spec.pe(pe)).collect()).unwrap();
    assert!(evaluate(&g, &spec, &m).unwrap().is_feasible());
    (g, m)
}

/// Known deviation: an interface row sets the period, and the simulated
/// stream runs below it even with no overhead charged. Four tasks at CCR
/// 3.07 over four SPEs, bound by SPE 2's outgoing interface.
#[test]
fn an_interface_bound_mapping_runs_below_its_period() {
    let spec = CellSpec::qs22();
    let (g, m) = pinned(9073, 4, paper_ccr_sweep()[3], &[7, 2, 3, 5]);
    assert_eq!(claimed(&g, &spec, &m), (false, false));
    let (calibrated, ideal) = errors(&g, &spec, &m);
    println!("calibrated {calibrated:+.4e}, ideal {ideal:+.4e}");
    assert!(ideal < -0.06 && calibrated < -0.06, "{ideal:e} {calibrated:e}");
}

/// Known deviation: the compute row of SPE 2 sets both periods, but an
/// interface row lies within the DMA latency of `T_cal`, which the §4.2
/// buffers then no longer cover: the ideal run keeps its period, the
/// calibrated one does not. Four tasks at CCR 0.775.
#[test]
fn an_interface_within_the_dma_latency_of_t_cal_runs_below_it() {
    let spec = CellSpec::qs22();
    let (g, m) = pinned(9037, 4, paper_ccr_sweep()[0], &[5, 6, 2, 7]);
    assert_eq!(claimed(&g, &spec, &m), (false, true));
    let (calibrated, ideal) = errors(&g, &spec, &m);
    println!("calibrated {calibrated:+.4e}, ideal {ideal:+.4e}");
    assert!(ideal.abs() <= 1e-9 && calibrated < -0.02, "{ideal:e} {calibrated:e}");
}
