//! **§6 prose table**: MILP solve statistics. The paper reports that with
//! CPLEX stopped at a 5 % gap, "the time for solving a linear program was
//! always kept below one minute (mostly around 20 seconds)".
//!
//! This binary reports the same quantities for the in-repo solver on
//! every evaluation graph at the CCR extremes, plus the formulation
//! sparsity — the honest comparison point for the CPLEX substitution
//! discussed in EXPERIMENTS.md. It also measures **branch-and-bound
//! node throughput** per graph: nodes/second at a forced zero gap, so
//! the search must genuinely branch instead of stopping at the root.
//!
//! Output:
//! * a table on stdout + `crates/bench/results/tab_lp.csv`;
//! * machine-readable `crates/bench/results/BENCH_milp.json` (wall,
//!   nodes, simplex iterations, gap at stop, warm-start hit rate, and
//!   the zero-gap node throughput);
//! * the graph-1 portfolio leaderboard, so the budget breakdown of the
//!   full workflow (heuristics + seeded MILP) is visible in CI logs.
//!
//! **CI gate**: in quick mode (`CELLSTREAM_QUICK=1`) the binary exits
//! non-zero unless the paper's 5 % gap is reached within the budget on
//! every graph whose relaxation admits it (graph 2 — the bound sits
//! within 5 % of the seeded incumbent as soon as the root LP solves),
//! and the remaining graphs stay under their regression ceilings.
//! Graph 1 at CCR 0.775 has a measured **~15 % integrality gap**: the
//! bound plateaus at ≈3.35 µs against a 3.932 µs optimum-by-all-
//! heuristics incumbent, so no cut-less branch-and-bound can certify
//! 5 % there — CPLEX's cutting planes are what made the paper's figure
//! possible (recorded as known deviation #1 in DESIGN.md). The ceiling
//! pins today's reachable gap so the solver cannot silently regress.

use cellstream_bench::{
    mip_options, portfolio_outcome, quick_mode, seed_stack, write_csv, write_results,
};
use cellstream_core::{solve, Formulation, FormulationConfig, SolveOptions};
use cellstream_daggen::paper;
use cellstream_graph::ccr::{rescale_to_ccr, DEFAULT_BW};
use cellstream_milp::bb::MipOptions;
use cellstream_milp::model::LpOptions;
use cellstream_platform::CellSpec;
use std::time::Duration;

/// Options for the node-throughput probe: zero gap so the search cannot
/// stop early, a node cap, and a wall budget.
fn probe_options() -> MipOptions {
    let (nodes, secs, iters) = if quick_mode() { (80, 6, 8_000) } else { (300, 30, 60_000) };
    MipOptions {
        rel_gap: 0.0,
        abs_gap: 0.0,
        max_nodes: nodes,
        time_limit: Duration::from_secs(secs),
        lp: LpOptions { max_iterations: iters, ..Default::default() },
        ..Default::default()
    }
}

struct GraphBench {
    graph: String,
    ccr: f64,
    vars: usize,
    rows: usize,
    nnz: usize,
    wall_s: f64,
    nodes: u64,
    gap: f64,
    simplex: u64,
    warm_rate: f64,
    status: String,
    nodes_per_s: f64,
}

fn main() {
    let spec = CellSpec::qs22();
    println!("# MILP solve statistics (gap target 5%, budget {:?})", mip_options().time_limit);
    println!(
        "{:<18} {:>6} {:>6} {:>6} {:>7} {:>8} {:>6} {:>6} {:>8} {:>6} {:>9}",
        "graph",
        "CCR",
        "vars",
        "rows",
        "nnz",
        "wall(s)",
        "nodes",
        "gap%",
        "simplex",
        "warm%",
        "nodes/s"
    );
    let mut rows = Vec::new();
    let mut benches: Vec<GraphBench> = Vec::new();
    let mut gate_failed: Option<String> = None;

    for (gi, base) in paper::all_graphs().into_iter().enumerate() {
        for ccr in [0.775, 4.6] {
            let g = rescale_to_ccr(&base, ccr, DEFAULT_BW);
            let form = Formulation::build(&g, &spec, &FormulationConfig::default());
            let (nrows, nvars, nnz) = form.sparsity();

            // ---- the paper workflow: 5% gap, heuristic seed stack ------
            let seeds = seed_stack(&g, &spec);
            let outcome = solve(
                &g,
                &spec,
                &SolveOptions { seeds: seeds.clone(), mip: mip_options(), ..Default::default() },
            )
            .expect("solve runs");

            // ---- node-throughput probe, base CCR only ------------------
            // (None at the high-CCR point: the probe is skipped there)
            let nodes_per_s: Option<f64> = (ccr < 1.0).then(|| {
                let t0 = std::time::Instant::now();
                let probe = solve(
                    &g,
                    &spec,
                    &SolveOptions {
                        seeds: seeds.clone(),
                        mip: probe_options(),
                        ..Default::default()
                    },
                )
                .expect("probe runs");
                probe.nodes as f64 / t0.elapsed().as_secs_f64().max(1e-6)
            });

            let (nps_col, nps_csv) = match nodes_per_s {
                Some(r) => (format!("{r:.1}"), format!("{r:.2}")),
                None => ("-".to_owned(), String::new()),
            };
            println!(
                "{:<18} {:>6.3} {:>6} {:>6} {:>7} {:>8.1} {:>6} {:>6.1} {:>8} {:>6.0} {:>9}",
                g.name(),
                ccr,
                nvars,
                nrows,
                nnz,
                outcome.wall.as_secs_f64(),
                outcome.nodes,
                outcome.gap * 100.0,
                outcome.lp_iterations,
                outcome.warm_start_rate() * 100.0,
                nps_col,
            );
            rows.push(format!(
                "{},{ccr},{nvars},{nrows},{nnz},{:.2},{},{:.4},{},{:.4},{:?},{nps_csv}",
                g.name(),
                outcome.wall.as_secs_f64(),
                outcome.nodes,
                outcome.gap,
                outcome.lp_iterations,
                outcome.warm_start_rate(),
                outcome.status,
            ));
            if let Some(nodes_per_s) = nodes_per_s {
                benches.push(GraphBench {
                    graph: g.name().to_owned(),
                    ccr,
                    vars: nvars,
                    rows: nrows,
                    nnz,
                    wall_s: outcome.wall.as_secs_f64(),
                    nodes: outcome.nodes,
                    gap: outcome.gap,
                    simplex: outcome.lp_iterations,
                    warm_rate: outcome.warm_start_rate(),
                    status: format!("{:?}", outcome.status),
                    nodes_per_s,
                });
            }

            // ---- CI gate (base CCR): graph 2 carries the paper's 5%
            // contract; graphs 1/3 get regression ceilings above their
            // measured integrality gaps (see module docs)
            if ccr < 1.0 {
                let ceiling = match gi {
                    1 => 0.05, // graph 2: the 5% contract proper
                    _ => 0.20, // graphs 1/3: integrality-gap regression ceiling
                };
                if outcome.gap > ceiling + 1e-9 {
                    gate_failed = Some(format!(
                        "{} stopped at gap {:.2}% (ceiling {:.0}%) within {:?} ({:?})",
                        g.name(),
                        outcome.gap * 100.0,
                        ceiling * 100.0,
                        mip_options().time_limit,
                        outcome.status
                    ));
                }
            }
        }
    }

    // ---- graph-1 portfolio leaderboard: where the budget went ----------
    let g1 = paper::at_base_ccr(&paper::graph1());
    let outcome = portfolio_outcome(&g1, &spec);
    println!("\n# graph 1 portfolio leaderboard (budget breakdown)");
    print!("{}", outcome.render_leaderboard());

    write_csv(
        "tab_lp.csv",
        "graph,ccr,vars,rows,nnz,wall_s,nodes,gap,simplex_iters,warm_start_rate,status,nodes_per_s",
        &rows,
    );
    let body: Vec<String> = benches
        .iter()
        .map(|b| {
            format!(
                "    {{\"graph\": \"{}\", \"ccr\": {}, \"vars\": {}, \"rows\": {}, \"nnz\": {}, \
                 \"wall_s\": {:.3}, \"nodes\": {}, \"simplex_iters\": {}, \"gap_at_stop\": {:.5}, \
                 \"warm_start_rate\": {:.4}, \"status\": \"{}\", \"nodes_per_s\": {:.2}}}",
                b.graph,
                b.ccr,
                b.vars,
                b.rows,
                b.nnz,
                b.wall_s,
                b.nodes,
                b.simplex,
                b.gap,
                b.warm_rate,
                b.status,
                b.nodes_per_s,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"milp\",\n  \"spec\": \"qs22\",\n  \"quick\": {},\n  \
         \"gap_target\": 0.05,\n  \"results\": [\n{}\n  ]\n}}\n",
        quick_mode(),
        body.join(",\n")
    );
    write_results("BENCH_milp.json", &json);

    println!("\npaper reference: CPLEX stayed under 60 s, around 20 s, always within 5%.");
    if let Some(reason) = gate_failed {
        if quick_mode() {
            eprintln!("GATE FAILED: {reason}");
            std::process::exit(1);
        }
        eprintln!("warning (non-quick mode, not fatal): {reason}");
    }
}
