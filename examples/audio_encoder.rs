//! The audio-encoder application end to end: plan it with every
//! registered scheduler (the paper's heuristics, the extensions, the
//! MILP), compare predicted throughputs, then actually *run* the best
//! mapping on the threaded Cell emulator with the real DSP kernels.
//!
//! Run with: `cargo run --release --example audio_encoder`

use cellstream::apps::audio;
use cellstream::prelude::*;

fn main() {
    let g = audio::graph().expect("valid graph");
    let spec = CellSpec::qs22();
    println!("audio encoder: {} tasks, {} edges on {spec}", g.n_tasks(), g.n_edges());

    // Sweep the registry: every algorithm through the same interface.
    let baseline = scheduler_by_name("ppe_only")
        .unwrap()
        .plan(&g, &spec, &Default::default())
        .expect("PPE-only always plans");
    println!("\n{:<22} {:>12} {:>10} {:>6}", "scheduler", "period (us)", "speed-up", "cuts");
    for scheduler in all_schedulers() {
        match scheduler.plan(&g, &spec, &Default::default()) {
            Ok(plan) => {
                let feas = if plan.is_feasible() { "" } else { "  (infeasible!)" };
                println!(
                    "{:<22} {:>12.3} {:>10.2} {:>6}{feas}",
                    plan.scheduler,
                    plan.period() * 1e6,
                    baseline.period() / plan.period(),
                    plan.mapping.n_cut_edges(&g),
                );
            }
            Err(e) => println!("{:<22} {e}", scheduler.name()),
        }
    }

    // Execute the portfolio winner for real: one thread per PE, real FFTs
    // and filterbanks, 256 kB local-store accounting.
    println!("\nplanning with the standard portfolio and executing the winner ...");
    let scheduled = Session::new(&g, &spec)
        .plan()
        .expect("portfolio plans")
        .schedule()
        .expect("winner is feasible");
    println!("winner: {}", scheduled.plan());
    let stats = scheduled
        .execute(&audio::kernels(), &RtConfig { n_instances: 2000 })
        .expect("mapping fits the local stores");
    println!(
        "processed {} frames in {:.2?} -> {:.0} frames/s wall-clock",
        stats.processed[0], stats.wall, stats.throughput
    );
    for pe in spec.spes() {
        let used = stats.store_used[pe.index()];
        if used > 0 {
            println!("  {pe}: {:.1} KiB of local store in stream buffers", used as f64 / 1024.0);
        }
    }
}
