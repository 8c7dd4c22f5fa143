//! `plan_paper` — op = plan one instance end to end.
//!
//! The paper's own use case (§5–§6): for each instance, the heuristic
//! seed stack, then `core::solve` — Linear Program (1) through the
//! branch-and-bound MILP, warm-started with the seeds — then
//! `core::evaluate` on the winner and `sim::simulate` of the mapped
//! application. `milp` and `core::formulation` do 80 % of the work, the
//! seed stack and the simulator the rest; no serving layer runs.
//!
//! The instances are the paper's two 50-task graphs (random graph 1 and
//! the chain) at the six CCRs of its §6.2 sweep, 0.775 to 4.6, on
//! `qs22`: twelve ops of 70–230 ms. The 94-task graph 2 is left to the
//! traced run (`milp.large_solve_s`): one plan of it is a 2–3 s call,
//! and a call that long cannot be put on the nominal machine by the
//! reference slices around it (see [`crate::harness`]). The graphs are
//! the paper's, so `--seed` cannot redraw them; it decides the order
//! they are planned in, nothing else.
//!
//! The MILP stops on a **node cap**, never on a time limit, and at
//! `rel_gap = 0`, so every pass explores the same tree.

use crate::bound::{t_lb, Work};
use crate::clock::CpuInstant;
use crate::gen::Rng;
use crate::harness::{on_nominal_machine, Layers, Pass, Workload};
use crate::spans::Tracer;
use cellstream::core::{
    evaluate, solve, Formulation, Mapping, MappingDelta, Plan, PlanContext, PlanStats, Scheduler,
    SolveOptions,
};
use cellstream::daggen::paper;
use cellstream::graph::ccr::{paper_ccr_sweep, rescale_to_ccr, DEFAULT_BW};
use cellstream::graph::StreamGraph;
use cellstream::heuristics::{
    scheduler_by_name, AnnealScheduler, AnnealingOptions, MultiStartScheduler,
};
use cellstream::milp::bb::MipOptions;
use cellstream::platform::CellSpec;
use cellstream::sim::{simulate, SimConfig};
use std::time::Duration;

/// Seed of the annealer's per-instance seeds. Fixed, not taken from
/// `--seed`: a different warm start sends the branch and bound down a
/// different tree, and between ten seeds that spread the p50 latency by
/// 10 % on a machine that repeats a seed within 3 %.
const ANNEAL_SEED: u64 = 0x5A_2010;
/// Branch-and-bound node cap per instance.
pub const NODE_CAP: u64 = 12;
/// Stream instances simulated per planned mapping.
pub const SIM_INSTANCES: u64 = 200;

/// One planning problem.
pub struct Instance {
    graph: StreamGraph,
    anneal_seed: u64,
    /// `T_lb` on the 9 PEs of a `qs22`.
    t_lb: f64,
}

/// The workload's inputs.
pub struct Input {
    spec: CellSpec,
    instances: Vec<Instance>,
}

/// What planning one instance produced — kept for the oracle.
pub struct Planned {
    mapping: Mapping,
    period: f64,
    bound: f64,
    best_seed: f64,
    sim_throughput: f64,
}

pub struct PlanPaper;

/// Branch and bound to optimality or [`NODE_CAP`] nodes, whichever
/// comes first, warm-started with `seeds`: no time limit, so every pass
/// explores the same tree.
fn solve_options(seeds: Vec<Mapping>) -> SolveOptions {
    SolveOptions {
        mip: MipOptions {
            rel_gap: 0.0,
            abs_gap: 0.0,
            max_nodes: NODE_CAP,
            time_limit: Duration::from_secs(3600),
            ..MipOptions::default()
        },
        seeds,
        ..SolveOptions::default()
    }
}

/// Serialize a graph and parse it back, so the planner sees
/// deserialized data only.
fn round_trip(g: &StreamGraph) -> StreamGraph {
    let json = serde_json::to_string(g).expect("graphs serialize");
    serde_json::from_str(&json).expect("graphs deserialize")
}

impl Workload for PlanPaper {
    type Input = Input;
    type State = Vec<Planned>;
    const NAME: &'static str = "plan_paper";
    const MIN_PASSES: usize = 3;

    fn generate(seed: u64) -> Input {
        let spec = CellSpec::qs22();
        // the annealer's seeds belong to the instances, not to the run
        let mut anneal = Rng::new(ANNEAL_SEED, 10);
        let graphs = paper::all_graphs();
        let mut instances = Vec::new();
        for ccr in paper_ccr_sweep() {
            for i in [0, 2] {
                let graph = round_trip(&rescale_to_ccr(&graphs[i], ccr, DEFAULT_BW));
                let t_lb = t_lb([Work::of(&graph)], spec.n_pes());
                instances.push(Instance { graph, anneal_seed: anneal.next_u64(), t_lb });
            }
        }
        let mut rng = Rng::new(seed, 11);
        for i in (1..instances.len()).rev() {
            instances.swap(i, rng.index(i + 1));
        }
        Input { spec, instances }
    }

    fn fill(_: &Input) -> Vec<Planned> {
        Vec::new()
    }

    fn run(input: &Input, state: &mut Vec<Planned>, pass: &mut Pass, tr: &mut Tracer) {
        let spec = &input.spec;
        for (i, inst) in input.instances.iter().enumerate() {
            let op = i as u32;
            let g = &inst.graph;
            let started = CpuInstant::now();
            let span = tr.begin("plan_paper.op", op);

            // ---- heuristic seed stack, one member after the other --------
            let t = CpuInstant::now();
            let seeds_span = tr.begin("heuristics.seed_stack", op);
            let mut ctx = PlanContext::default();
            let mut plans: Vec<Plan> = Vec::new();
            for name in ["greedy_mem", "greedy_cpu", "comm_aware"] {
                let member = scheduler_by_name(name).expect("registered scheduler");
                plans.push(member.plan(g, spec, &ctx).expect("greedies always plan"));
            }
            let multi =
                MultiStartScheduler::default().plan(g, spec, &ctx).expect("multi-start plans");
            ctx.seeds = vec![multi.mapping.clone()];
            plans.push(multi);
            let anneal = AnnealScheduler {
                opts: AnnealingOptions { seed: inst.anneal_seed, ..AnnealingOptions::default() },
            };
            plans.push(anneal.plan(g, spec, &ctx).expect("annealing plans"));
            tr.end(seeds_span);
            pass.time("heuristics.seed_s", t.elapsed());
            let feasible: Vec<&Plan> = plans.iter().filter(|p| p.is_feasible()).collect();
            let best_seed = feasible.iter().map(|p| p.period()).fold(f64::INFINITY, f64::min);
            for p in &plans {
                if let PlanStats::Search { iterations } = p.stats {
                    pass.count("heuristics.search_iters", iterations as f64);
                }
            }

            // ---- Linear Program (1) + branch and bound -------------------
            let opts = solve_options(feasible.iter().map(|p| p.mapping.clone()).collect());
            let t = CpuInstant::now();
            let out = tr
                .span("core.solve", op, || solve(g, spec, &opts))
                .expect("the PPE-only seed guarantees an incumbent");
            pass.time("core.solve_s", t.elapsed());
            pass.count("milp.nodes", out.nodes as f64);
            pass.count("milp.lp_iters", out.lp_iterations as f64);
            pass.count("milp.warm_starts", out.warm_starts as f64);
            pass.count("milp.warm_start_hits", out.warm_start_hits as f64);

            // ---- evaluate + simulate the winner --------------------------
            let t = CpuInstant::now();
            let report = tr
                .span("core.evaluate", op, || evaluate(g, spec, &out.mapping))
                .expect("solve returns valid mappings");
            pass.time("core.evaluate_s", t.elapsed());
            let t = CpuInstant::now();
            let trace = tr
                .span("sim.simulate", op, || {
                    simulate(g, spec, &out.mapping, &SimConfig::default(), SIM_INSTANCES)
                })
                .expect("feasible mappings simulate");
            pass.time("sim.simulate_s", t.elapsed());
            pass.count("sim.events", trace.events as f64);
            tr.end(span);

            let accepted = report.is_feasible() && trace.n_instances() as u64 == SIM_INSTANCES;
            pass.op("plan", started.lap(), accepted);
            pass.ratios.push(report.period / inst.t_lb);
            pass.count("heuristics.best_ratio_log", (best_seed / inst.t_lb).ln());
            pass.count("milp.bound_ratio_log", (out.period_bound / report.period).ln());
            // deploying the plan from the PPE-only start moves every
            // off-loaded task's §4.2 buffers once
            let ppe_only = Mapping::all_on(g, spec.pe(0));
            pass.moved_bytes +=
                MappingDelta::between(g, &ppe_only, g, &out.mapping).migration_bytes;
            state.push(Planned {
                mapping: out.mapping,
                period: report.period,
                bound: out.period_bound,
                best_seed,
                sim_throughput: SIM_INSTANCES as f64 / trace.total_time(),
            });
        }
    }

    fn verify(input: &Input, state: &Vec<Planned>, pass: &mut Pass) -> Result<(), String> {
        if state.len() != input.instances.len() {
            return Err(format!("{} of {} instances planned", state.len(), input.instances.len()));
        }
        let mut model_error = 0.0f64;
        for (inst, p) in input.instances.iter().zip(state) {
            let name = inst.graph.name();
            let report = evaluate(&inst.graph, &input.spec, &p.mapping)
                .map_err(|e| format!("{name}: invalid mapping: {e}"))?;
            if !report.is_feasible() {
                return Err(format!("{name}: §3.2 violated: {:?}", report.violations));
            }
            if report.period.to_bits() != p.period.to_bits() {
                return Err(format!(
                    "{name}: period {} re-evaluates to {}",
                    p.period, report.period
                ));
            }
            let eps = 1e-9 * p.period;
            if p.period < inst.t_lb - eps {
                return Err(format!("{name}: period {} under T_lb {}", p.period, inst.t_lb));
            }
            if p.period < p.bound - eps {
                return Err(format!(
                    "{name}: period {} under the MILP bound {}",
                    p.period, p.bound
                ));
            }
            if p.period > p.best_seed + eps {
                return Err(format!(
                    "{name}: MILP period {} worse than its best warm start {}",
                    p.period, p.best_seed
                ));
            }
            // the calibrated simulator loses a few percent to DMA
            // latency and never beats the model
            let ratio = p.sim_throughput * p.period;
            if !(0.5..=1.0 + 1e-6).contains(&ratio) {
                return Err(format!("{name}: simulated/model throughput {ratio:.4}"));
            }
            model_error = model_error.max(1.0 - ratio);
        }
        pass.count("sim.model_error", model_error);
        Ok(())
    }

    fn layers(input: &Input, traced: &[&Pass], tr: &mut Tracer, out: &mut Layers) {
        let med = |key: &str| -> f64 {
            crate::stats::median(&traced.iter().map(|p| p.nominal_s(key)).collect::<Vec<_>>())
        };
        let first = traced[0];
        let count = |key: &str| first.counts.get(key).copied().unwrap_or(0.0);
        let n = input.instances.len() as f64;

        // the paper's graphs as `daggen` builds them, before rescaling
        let (graphs, build_s) = on_nominal_machine(paper::all_graphs);
        std::hint::black_box(graphs);

        // Linear Program (1) is built inside `solve`; building it once
        // more per instance prices the formulation on its own
        tr.set_recording(true);
        let ((rows, nnz), formulation_s) = on_nominal_machine(|| {
            let (mut rows, mut nnz) = (0usize, 0usize);
            for (i, inst) in input.instances.iter().enumerate() {
                let form = tr.span("core.formulation", i as u32, || {
                    Formulation::build(&inst.graph, &input.spec, &Default::default())
                });
                let (r, _, z) = form.sparsity();
                rows += r;
                nnz += z;
            }
            (rows, nnz)
        });

        // the paper's largest graph (94 tasks) is too long an op for the
        // timed passes — its root LP alone outlasts the reference
        // slices around it — so it is solved once here, unseeded
        let large = rescale_to_ccr(&paper::graph2(), 0.775, DEFAULT_BW);
        let (solved, large_solve_s) = on_nominal_machine(|| {
            tr.span("core.solve_large", 0, || {
                solve(&large, &input.spec, &solve_options(Vec::new()))
            })
        });
        tr.set_recording(false);
        std::hint::black_box(solved.expect("the PPE-only seed guarantees an incumbent"));

        let solve_s = med("core.solve_s");
        let busy = (solve_s - formulation_s).max(0.0);
        out.set("daggen.build_s", build_s);
        out.set("heuristics.seed_s", med("heuristics.seed_s"));
        out.set("heuristics.search_iters", count("heuristics.search_iters"));
        out.set("heuristics.best_ratio", (count("heuristics.best_ratio_log") / n).exp());
        out.set("core.formulation_s", formulation_s);
        out.set("core.lp_rows", rows as f64);
        out.set("core.lp_nnz", nnz as f64);
        out.set("core.evaluate_us", med("core.evaluate_s") * 1e6 / n);
        out.set("milp.busy_s", busy);
        out.set("milp.nodes", count("milp.nodes"));
        out.set("milp.lp_iters", count("milp.lp_iters"));
        out.set("milp.nodes_per_s", count("milp.nodes") / busy);
        out.set(
            "milp.warm_start_rate",
            match count("milp.warm_starts") {
                0.0 => 1.0,
                starts => count("milp.warm_start_hits") / starts,
            },
        );
        out.set("milp.bound_ratio", (count("milp.bound_ratio_log") / n).exp());
        out.set("milp.large_solve_s", large_solve_s);
        out.set("sim.simulate_s", med("sim.simulate_s"));
        out.set("sim.events_per_s", count("sim.events") / med("sim.simulate_s"));
        out.set("sim.model_error", count("sim.model_error"));
    }
}
