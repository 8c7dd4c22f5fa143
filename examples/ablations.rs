//! Quality-effect ablations on random graph 1 at CCR 0.775:
//!
//! 1. **DMA constraints (1j)/(1k)**: optimal period with and without the
//!    queue limits — how much throughput the hardware's DMA stacks cost.
//! 2. **Buffer dedup (§4.2 future work)**: local-store bytes needed per
//!    SPE under the paper's duplicated buffers vs. shared buffers for
//!    co-mapped neighbours, on the MILP mapping.
//! 3. **Gap sweep**: solution quality vs. B&B stopping gap (the paper's
//!    5 % against exact and looser stops).
//!
//! Every solve is the figure portfolio's seeded MILP member.
//!
//! ```sh
//! cargo run --release --example ablations
//! ```

mod paper;

use cellstream::core::steady::buffers::BufferPlan;
use cellstream::core::{FormulationConfig, SolveOptions};
use cellstream::daggen::paper as graphs;
use cellstream::platform::CellSpec;
use paper::{milp_plan, milp_stats, mip_options};

fn main() {
    let spec = CellSpec::qs22();
    let g = graphs::at_base_ccr(&graphs::graph1());

    // --- 1. DMA constraint ablation ---------------------------------------
    println!("# Ablation 1: DMA-queue constraints (graph 1, CCR 0.775)");
    let mut periods = Vec::new();
    for dma in [true, false] {
        let formulation = FormulationConfig { dma_constraints: dma, ..Default::default() };
        let plan = milp_plan(
            &g,
            &spec,
            SolveOptions { formulation, mip: mip_options(), ..Default::default() },
        );
        println!(
            "  dma_constraints={dma:<5}  period {:.3} us  (cut edges: {})",
            plan.period() * 1e6,
            plan.mapping.n_cut_edges(&g)
        );
        periods.push(plan.period());
    }
    println!(
        "  -> queue limits cost {:.1}% of throughput on this instance\n",
        100.0 * (periods[0] - periods[1]) / periods[0]
    );

    // --- 2. buffer dedup ----------------------------------------------------
    println!("# Ablation 2: duplicated vs shared buffers for co-mapped neighbours");
    let plan = milp_plan(&g, &spec, SolveOptions { mip: mip_options(), ..Default::default() });
    let buffers = BufferPlan::new(&g);
    let mut saved_total = 0.0;
    for pe in spec.spes() {
        let tasks: Vec<_> = plan.mapping.tasks_on(pe).collect();
        if tasks.is_empty() {
            continue;
        }
        let dup = buffers.for_tasks(tasks.iter());
        let dedup = buffers.for_tasks_dedup(&g, &tasks);
        saved_total += dup - dedup;
        println!(
            "  {pe}: {:>8.1} KiB duplicated, {:>8.1} KiB shared ({:.0}% saved)",
            dup / 1024.0,
            dedup / 1024.0,
            100.0 * (dup - dedup) / dup.max(1.0)
        );
    }
    println!(
        "  -> total local store the future-work optimisation frees: {:.1} KiB\n",
        saved_total / 1024.0
    );

    // --- 3. gap sweep --------------------------------------------------------
    println!("# Ablation 3: B&B stopping gap vs solution quality (graph 1)");
    for gap in [0.25, 0.10, 0.05, 0.01] {
        let mut mip = mip_options();
        mip.rel_gap = gap;
        let plan = milp_plan(&g, &spec, SolveOptions { mip, ..Default::default() });
        let (_, nodes, _, _, status) = milp_stats(&plan).expect("a MILP plan");
        println!(
            "  gap target {:>5.2}: period {:.3} us, wall {:>6.1}s, nodes {:>5}, status {:?}",
            gap,
            plan.period() * 1e6,
            plan.wall.as_secs_f64(),
            nodes,
            status
        );
    }
}
