//! **Figure 8**: measured speed-up of the MILP mapping as a function of
//! the communication-to-computation ratio, for the three evaluation
//! graphs on the 8-SPE QS22.
//!
//! Paper's shape to reproduce: speed-up declines monotonically (modulo
//! noise) as the CCR rises from 0.775 to 4.6, approaching 1 — "eventually,
//! the best policy is to map all tasks to the PPE".
//!
//! ```sh
//! cargo run --release --example fig8
//! ```

mod paper;

use cellstream::daggen::paper as graphs;
use cellstream::graph::ccr::paper_ccr_sweep;
use cellstream::platform::CellSpec;
use paper::{lp_plan, measured_throughput, ppe_only_throughput};

fn main() {
    let spec = CellSpec::qs22();
    let bases = graphs::all_graphs();
    println!("# Figure 8: speed-up vs CCR (8 SPEs, portfolio LP mappings)");
    print!("{:>8}", "CCR");
    for g in &bases {
        print!(" {:>16}", g.name());
    }
    println!();

    for target in paper_ccr_sweep() {
        print!("{target:>8.3}");
        for base in &bases {
            let variants = graphs::ccr_variants(base);
            let (_, g) = variants
                .iter()
                .min_by(|a, b| (a.0 - target).abs().total_cmp(&(b.0 - target).abs()))
                .expect("six variants");
            let plan = lp_plan(g, &spec);
            let ppe_rho = ppe_only_throughput(g, &spec);
            let su = measured_throughput(g, &spec, &plan.mapping).map_or(f64::NAN, |r| r / ppe_rho);
            print!(" {su:>16.2}");
        }
        println!();
    }
    println!("\npaper shape check: every column should trend downward toward ~1.");
}
