//! The benchmark's `plan_paper` planner, shared by the simulator suites
//! that replay its twelve mappings (`sim_jump`, `sim_model`). Each test
//! binary compiles this module on its own, and both use every item.

use cellstream::core::{evaluate, solve, Mapping, Plan, PlanContext, Scheduler, SolveOptions};
use cellstream::daggen::paper;
use cellstream::graph::ccr::{paper_ccr_sweep, rescale_to_ccr, DEFAULT_BW};
use cellstream::graph::StreamGraph;
use cellstream::heuristics::{
    scheduler_by_name, AnnealScheduler, AnnealingOptions, MultiStartScheduler,
};
use cellstream::milp::bb::MipOptions;
use cellstream::platform::CellSpec;
use std::time::Duration;

/// A splitmix64 stream, as the benchmark draws its annealer seeds.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One planned `plan_paper` instance: its name, graph, winning mapping
/// and model period.
pub struct Planned {
    pub name: String,
    pub graph: StreamGraph,
    pub mapping: Mapping,
    pub period: f64,
}

/// The benchmark's `plan_paper` planning, instance by instance: graphs
/// 1 and 3 at the six CCRs, the seed stack (the three greedies,
/// multi-start, the annealer from multi-start with the benchmark's
/// per-instance seed), then Linear Program (1) warm-started with the
/// feasible seeds and stopped on a 12-node cap at zero gap.
pub fn plan_paper() -> Vec<Planned> {
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
            let period = evaluate(&g, &spec, &out.mapping).unwrap().period;
            let label = if i == 0 { 1 } else { 3 };
            planned.push(Planned {
                name: format!("graph {label} @ {ccr:.3}"),
                graph: g,
                mapping: out.mapping,
                period,
            });
        }
    }
    planned
}
