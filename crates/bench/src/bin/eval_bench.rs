//! Moves-per-second of the incremental evaluation engine vs full
//! re-evaluation, on the paper's three §6.2 workloads (QS22 platform).
//!
//! "Full" is what every search heuristic did before the engine existed:
//! clone the mapping (`Mapping::with_move`) and run `evaluate()` from
//! scratch — revalidation, buffer-plan rebuild, full task/edge rescan.
//! "Incremental" is one `EvalState::score_move` per probe: an O(degree)
//! delta apply, an O(n_PEs) verdict scan, an exact undo.
//!
//! Emits `crates/bench/results/BENCH_eval.json` and a human-readable
//! table on stdout. `CELLSTREAM_QUICK=1` shrinks the probe counts ~10x.

use cellstream_bench::{quick_mode, write_results};
use cellstream_core::{evaluate, EvalState, Mapping, Move};
use cellstream_daggen::paper;
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_heuristics::greedy_cpu;
use cellstream_platform::{CellSpec, PeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// A deterministic probe sequence: (task, target PE) pairs, the target
/// drawn uniformly from the PEs *other than* the task's seat in `start`
/// — both arms probe from `start`, and a relocation onto the current
/// seat moves nothing (`EvalState` returns before touching a row).
fn probe_sequence(
    start: &Mapping,
    spec: &CellSpec,
    count: usize,
    seed: u64,
) -> Vec<(TaskId, PeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let seats = start.assignment();
    (0..count)
        .map(|_| {
            let t = rng.gen_range(0..seats.len());
            let other = rng.gen_range(0..spec.n_pes() - 1);
            (TaskId(t), PeId(if other >= seats[t].index() { other + 1 } else { other }))
        })
        .collect()
}

struct Row {
    graph: String,
    tasks: usize,
    edges: usize,
    full_rate: f64,
    incr_rate: f64,
}

fn bench_graph(g: &StreamGraph, spec: &CellSpec, full_n: usize, incr_n: usize) -> Row {
    let start = greedy_cpu(g, spec);
    let mut sink = 0.0f64;

    // full: clone-and-evaluate per probe (the pre-engine hot path)
    let probes = probe_sequence(&start, spec, 1024, 0xBE7C4);
    let t0 = Instant::now();
    for i in 0..full_n {
        let (t, pe) = probes[i % probes.len()];
        let cand = start.with_move(t, pe);
        let r = evaluate(g, spec, &cand).expect("valid mapping");
        sink += r.period;
    }
    let full_rate = full_n as f64 / t0.elapsed().as_secs_f64();

    // incremental: score_move per probe on a live state
    let mut state = EvalState::new(g, spec, &start).expect("valid mapping");
    let t0 = Instant::now();
    for i in 0..incr_n {
        let (t, pe) = probes[i % probes.len()];
        sink += state.score_move(Move::Relocate { task: t, to: pe });
    }
    let incr_rate = incr_n as f64 / t0.elapsed().as_secs_f64();

    std::hint::black_box(sink);
    Row { graph: g.name().to_owned(), tasks: g.n_tasks(), edges: g.n_edges(), full_rate, incr_rate }
}

fn main() {
    let spec = CellSpec::qs22();
    let (full_n, incr_n) = if quick_mode() { (2_000, 200_000) } else { (20_000, 2_000_000) };

    let mut rows = Vec::new();
    println!(
        "{:<16} {:>6} {:>6} {:>16} {:>16} {:>9}",
        "graph", "tasks", "edges", "full moves/s", "incr moves/s", "speedup"
    );
    for g in paper::all_graphs() {
        let row = bench_graph(&g, &spec, full_n, incr_n);
        println!(
            "{:<16} {:>6} {:>6} {:>16.0} {:>16.0} {:>8.1}x",
            row.graph,
            row.tasks,
            row.edges,
            row.full_rate,
            row.incr_rate,
            row.incr_rate / row.full_rate
        );
        rows.push(row);
    }

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"graph\": \"{}\", \"tasks\": {}, \"edges\": {}, \
                 \"full_moves_per_s\": {:.1}, \"incremental_moves_per_s\": {:.1}, \
                 \"speedup\": {:.2}}}",
                r.graph,
                r.tasks,
                r.edges,
                r.full_rate,
                r.incr_rate,
                r.incr_rate / r.full_rate
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"eval\",\n  \"spec\": \"qs22\",\n  \"quick\": {},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        quick_mode(),
        body.join(",\n")
    );
    write_results("BENCH_eval.json", &json);
}
