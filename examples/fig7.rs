//! **Figure 7 (a–c)**: measured speed-up vs. number of SPEs for the two
//! §6.3 greedy heuristics and the MILP mapping, one panel per evaluation
//! graph, all at CCR 0.775. Strategies are resolved through the
//! scheduler registry, so the column set is data, not code.
//!
//! Paper's shape to reproduce: the MILP curve scales to ~2–3x at 8 SPEs;
//! the greedies saturate around 1.3 and do not scale.
//!
//! ```sh
//! cargo run --release --example fig7
//! ```

mod paper;

use cellstream::core::scheduler::PlanContext;
use cellstream::core::Mapping;
use cellstream::daggen::paper as graphs;
use cellstream::heuristics::scheduler_by_name;
use cellstream::platform::CellSpec;
use paper::{lp_plan, measured_throughput, ppe_only_throughput};

/// The heuristic columns, by registry name ("lp" is handled separately
/// because it draws on the whole seeded portfolio).
const HEURISTICS: [&str; 2] = ["greedy_mem", "greedy_cpu"];

fn main() {
    for (gi, base) in graphs::all_graphs().into_iter().enumerate() {
        let g = graphs::at_base_ccr(&base);
        println!(
            "\n# Figure 7({}): {} — speed-up vs number of SPEs",
            (b'a' + gi as u8) as char,
            g.name()
        );
        print!("{:>6}", "SPEs");
        for name in HEURISTICS {
            print!(" {name:>12}");
        }
        println!(" {:>12}", "LP");
        // one PPE-only reference per graph (nS-independent)
        let ppe_rho = ppe_only_throughput(&g, &CellSpec::with_spes(0));
        for spes in 0..=8 {
            let spec = CellSpec::with_spes(spes);
            let su = |m: &Mapping| -> f64 {
                measured_throughput(&g, &spec, m).map_or(f64::NAN, |r| r / ppe_rho)
            };
            print!("{spes:>6}");
            for name in HEURISTICS {
                let plan = scheduler_by_name(name)
                    .expect("registered")
                    .plan(&g, &spec, &PlanContext::default())
                    .expect("greedy heuristics always plan");
                print!(" {:>12.2}", su(&plan.mapping));
            }
            let s_lp = if spes == 0 { 1.0 } else { su(&lp_plan(&g, &spec).mapping) };
            println!(" {s_lp:>12.2}");
        }
    }
    println!("\npaper shape check: LP at 8 SPEs should sit between ~2 and ~3,");
    println!("greedies should flatten out near ~1.3 (graph-dependent).");
}
