//! **Figure 6**: throughput as a function of the number of processed
//! instances — theoretical (model) line vs. experimental (simulated)
//! ramp-up, for random graph 1 at CCR 0.775 on the QS22 with 8 SPEs.
//!
//! Paper's observations to reproduce: steady state is reached after
//! ~1000 instances, and the experimental plateau sits at ≈95 % of the
//! LP-predicted throughput.
//!
//! ```sh
//! cargo run --release --example fig6
//! ```

mod paper;

use cellstream::daggen::paper as graphs;
use cellstream::platform::CellSpec;
use cellstream::sim::{simulate, SimConfig};
use paper::{lp_plan, milp_stats, SIM_INSTANCES};

fn main() {
    let g = graphs::at_base_ccr(&graphs::graph1());
    let spec = CellSpec::qs22();
    println!("# fig6: {} tasks, {} edges, CCR 0.775, {spec}", g.n_tasks(), g.n_edges());

    let plan = lp_plan(&g, &spec);
    let theoretical = plan.throughput();
    match milp_stats(&plan) {
        Some((gap, nodes, _, warm_rate, _)) => println!(
            "# LP plan (`{}`): period {:.3} us, gap {:.1}%, {} nodes, warm starts {:.0}%, {:.1}s",
            plan.scheduler,
            plan.period() * 1e6,
            gap * 100.0,
            nodes,
            warm_rate * 100.0,
            plan.wall.as_secs_f64()
        ),
        None => println!(
            "# LP plan (`{}`, non-MILP fallback): period {:.3} us, {:.1}s",
            plan.scheduler,
            plan.period() * 1e6,
            plan.wall.as_secs_f64()
        ),
    }

    let trace = simulate(&g, &spec, &plan.mapping, &SimConfig::calibrated(), SIM_INSTANCES)
        .expect("LP mapping is feasible");

    println!("# Figure 6: throughput vs processed instances");
    println!("# theoretical throughput: {theoretical:.1} instances/s");
    println!("{:>10} {:>18} {:>18}", "instances", "experimental(/s)", "theoretical(/s)");
    for (count, rho) in trace.throughput_curve(40) {
        println!("{count:>10} {rho:>18.1} {theoretical:>18.1}");
    }
    let steady = trace.steady_state_throughput();
    let ratio = steady / theoretical;
    println!("\nsteady-state: {steady:.1}/s = {:.1}% of theoretical (paper: ~95%)", ratio * 100.0);

    // where does the ramp flatten? first instance count whose cumulative
    // throughput reaches 90% of the steady plateau
    let cum = trace.cumulative_throughput();
    let knee = cum.iter().position(|&r| r >= 0.9 * steady).unwrap_or(0) + 1;
    println!("steady state reached after ~{knee} instances (paper: ~1000)");
}
