//! Golden simulator traces: what `milp_golden.rs` is to the MILP, for
//! `sim::simulate`. The paper's graphs 1 and 3 at two CCRs on a QS22,
//! each mapped by the paper's `greedy_cpu` heuristic and simulated for
//! 200 instances under `SimConfig::ideal()` and `SimConfig::calibrated()`.
//! Every run is pinned by its event count, its makespan bits and one
//! FNV-1a digest over the bits of the whole `RunTrace`: per-instance
//! completions, every sink's completion times and the bytes in and out
//! of each PE. The simulator is deterministic, so a changed row is a
//! changed *event order* or floating-point summation order in
//! `cellstream-sim`, never noise. A rewrite of the engine's bookkeeping
//! must pass this file unmodified. Re-record the table (the test prints
//! it with `-- --nocapture`) only when a change is meant to move the
//! simulation, and put the old and new rows side by side in CHANGES.md.

use cellstream::core::scheduler::PlanContext;
use cellstream::daggen::paper;
use cellstream::heuristics::scheduler_by_name;
use cellstream::platform::CellSpec;
use cellstream::sim::{simulate, RunTrace, SimConfig};

/// Index into `paper::ccr_variants` of the two CCRs pinned per graph:
/// the sweep's first point (0.775) and its fourth (3.07).
const CCR_POINTS: [usize; 2] = [0, 3];

/// Instances simulated per run, as in the benchmark's `plan_paper`.
const INSTANCES: u64 = 200;

/// `(events, makespan bits, trace digest)`: graph 1 at both CCRs, then
/// graph 3; `ideal()` before `calibrated()` at each.
const GOLDEN: [(u64, u64, u64); 8] = [
    (30063, 0x3f57e2b437452be2, 0x05bde58313fe47da), // graph 1 @ 0.775, ideal: 1457.8590 us
    (44597, 0x3f59b2f42d4307de, 0xc6678b240a09d524), // graph 1 @ 0.775, calibrated: 1568.5448 us
    (25263, 0x3f718c437095632e, 0x49c74e5ac1e0a04b), // graph 1 @ 3.070, ideal: 4284.1563 us
    (32988, 0x3f71904e4a2fbbdb, 0x17b4b059d532b605), // graph 1 @ 3.070, calibrated: 4288.0114 us
    (24952, 0x3f543835890dc93f, 0xe8a22a9166f49b86), // graph 3 @ 0.775, ideal: 1234.1044 us
    (33696, 0x3f5581b6844628c1, 0x1402ecbd60d1fb14), // graph 3 @ 0.775, calibrated: 1312.6643 us
    (16600, 0x3f662e0e8593a7b4, 0x87900940873f0997), // graph 3 @ 3.070, ideal: 2707.5084 us
    (20506, 0x3f671f5960e10bd5, 0xc6195ffaca6a3465), // graph 3 @ 3.070, calibrated: 2822.5656 us
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn bits(&mut self, xs: &[f64]) {
        self.bytes(&(xs.len() as u64).to_le_bytes());
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

fn digest(trace: &RunTrace) -> u64 {
    let mut h = Fnv::new();
    h.bits(&trace.completions);
    for (sink, times) in &trace.sink_completions {
        h.bytes(&(sink.index() as u64).to_le_bytes());
        h.bits(times);
    }
    h.bits(&trace.bytes_in);
    h.bits(&trace.bytes_out);
    h.0
}

#[test]
fn the_simulator_replays_the_recorded_traces() {
    let spec = CellSpec::qs22();
    let greedy = scheduler_by_name("greedy_cpu").expect("registered scheduler");
    let mut rows = Vec::new();
    for (label, base) in [(1, paper::graph1()), (3, paper::graph3())] {
        let variants = paper::ccr_variants(&base);
        for &point in &CCR_POINTS {
            let (ccr, g) = &variants[point];
            let mapping = greedy.plan(g, &spec, &PlanContext::default()).unwrap().mapping;
            for (config_name, config) in
                [("ideal", SimConfig::ideal()), ("calibrated", SimConfig::calibrated())]
            {
                let trace = simulate(g, &spec, &mapping, &config, INSTANCES)
                    .expect("a greedy mapping simulates");
                let row = (trace.events, trace.total_time().to_bits(), digest(&trace));
                println!(
                    "    ({}, {:#018x}, {:#018x}), // graph {label} @ {ccr:.3}, {config_name}: {:.4} us",
                    row.0,
                    row.1,
                    row.2,
                    trace.total_time() * 1e6
                );
                rows.push((format!("graph {label} @ CCR {ccr:.3}, {config_name}"), row));
            }
        }
    }
    assert_eq!(rows.len(), GOLDEN.len());
    for ((name, row), golden) in rows.iter().zip(GOLDEN) {
        assert_eq!(
            *row,
            golden,
            "{name}: the trace moved; makespan {:e} (recorded {:e})",
            f64::from_bits(row.1),
            f64::from_bits(golden.1)
        );
    }
}
