//! Golden simulator traces: what `milp_golden.rs` is to the MILP, for
//! `sim::simulate`. Every run simulates 200 instances and is pinned by
//! its event count, its makespan bits and one FNV-1a digest over the
//! bits of the whole `RunTrace`: per-instance completions, every sink's
//! completion times and the bytes in and out of each PE. The simulator
//! is deterministic, so a changed row is a changed *event order* or
//! floating-point summation order in `cellstream-sim`, never noise. A
//! rewrite of the engine's bookkeeping must pass this file unmodified.
//! Re-record the table (the test prints it with `-- --nocapture`) only
//! when a change is meant to move the simulation, and put the old and
//! new rows side by side in CHANGES.md.
//!
//! The cases reach every reason the engine's pump has to hold work
//! back:
//! * the paper's graphs 1 and 3 at two CCRs on a QS22, mapped by
//!   `greedy_cpu` — edge buffers, output space and the peek window;
//! * graph 1 mapped by `greedy_mem` and by `comm_aware`, which cut
//!   edges from SPEs into the PPE;
//! * the audio encoder (peek 1) and the video pipeline (peek 2), whose
//!   tasks read and write main memory;
//! * graph 1 on a Cell with two SPEs, two incoming DMA slots per SPE
//!   and one SPE-to-PPE proxy slot — full DMA and proxy queues, which
//!   the stock 16 / 8 slots never fill on these graphs;
//! * graph 3 mapped by `multi_start` under `SimConfig::default()`, as
//!   the benchmark's `plan_paper` simulates its plans.

use cellstream::apps::{audio, video};
use cellstream::core::scheduler::PlanContext;
use cellstream::daggen::paper;
use cellstream::graph::StreamGraph;
use cellstream::heuristics::scheduler_by_name;
use cellstream::platform::CellSpec;
use cellstream::sim::{simulate, RunTrace, SimConfig};

/// Instances simulated per run, as in the benchmark's `plan_paper`.
const INSTANCES: u64 = 200;

/// `(events, makespan bits, trace digest)`, one row per case and
/// configuration in the order [`cases`] lists them.
const GOLDEN: [(u64, u64, u64); 19] = [
    (30063, 0x3f57e2b437452be2, 0x05bde58313fe47da), // graph 1 @ 0.775, greedy_cpu, ideal: 1457.8590 us
    (44597, 0x3f59b2f42d4307de, 0xc6678b240a09d524), // graph 1 @ 0.775, greedy_cpu, calibrated: 1568.5448 us
    (25263, 0x3f718c437095632e, 0x49c74e5ac1e0a04b), // graph 1 @ 3.070, greedy_cpu, ideal: 4284.1563 us
    (32988, 0x3f71904e4a2fbbdb, 0x17b4b059d532b605), // graph 1 @ 3.070, greedy_cpu, calibrated: 4288.0114 us
    (24952, 0x3f543835890dc93f, 0xe8a22a9166f49b86), // graph 3 @ 0.775, greedy_cpu, ideal: 1234.1044 us
    (33696, 0x3f5581b6844628c1, 0x1402ecbd60d1fb14), // graph 3 @ 0.775, greedy_cpu, calibrated: 1312.6643 us
    (16600, 0x3f662e0e8593a7b4, 0x87900940873f0997), // graph 3 @ 3.070, greedy_cpu, ideal: 2707.5084 us
    (20506, 0x3f671f5960e10bd5, 0xc6195ffaca6a3465), // graph 3 @ 3.070, greedy_cpu, calibrated: 2822.5656 us
    (28809, 0x3f59f5b9f6d03ee0, 0x42c678255772b252), // graph 1 @ 0.775, greedy_mem, ideal: 1584.4647 us
    (42342, 0x3f5b8ec36d65726b, 0x3e91dfab3e2599e3), // graph 1 @ 0.775, greedy_mem, calibrated: 1681.9867 us
    (25365, 0x3f60c0e1e778622d, 0x901d9d59bd54bca5), // graph 1 @ 0.775, comm_aware, ideal: 2045.0985 us
    (36578, 0x3f617b6744769963, 0xb28190a99e896b0e), // graph 1 @ 0.775, comm_aware, calibrated: 2134.0386 us
    (6172, 0x3f426ed5be3d88fd, 0xa21bc3289fb7133d),  // audio, greedy_cpu, ideal: 562.5290 us
    (13966, 0x3f43638d56b4d46d, 0x0ede830f603fa19d), // audio, greedy_cpu, calibrated: 591.7015 us
    (2815, 0x3f414a301cf9c60e, 0x2f6557e87ce5e9e8),  // video, greedy_cpu, ideal: 527.6427 us
    (4631, 0x3f41aa67c0293581, 0xed54bfac125890dc),  // video, greedy_cpu, calibrated: 539.1127 us
    (18971, 0x3f6ccc45aad1a051, 0xede14e11d3e521fd), // graph 1 @ 0.775, 2 SPEs, 2 + 1 DMA slots, greedy_cpu, ideal: 3515.3733 us
    (24031, 0x3f6e1835985fd887, 0xef6e0ce741bab72f), // graph 1 @ 0.775, 2 SPEs, 2 + 1 DMA slots, greedy_cpu, calibrated: 3673.6533 us
    (31296, 0x3f44076ec56f5a05, 0x0cface50f18e0f9b), // graph 3 @ 0.775, multi_start, default: 611.2376 us
];

/// One mapped application and the configurations it is simulated under.
struct Case {
    name: String,
    graph: StreamGraph,
    spec: CellSpec,
    scheduler: &'static str,
    configs: Vec<(&'static str, SimConfig)>,
}

fn both() -> Vec<(&'static str, SimConfig)> {
    vec![("ideal", SimConfig::ideal()), ("calibrated", SimConfig::calibrated())]
}

fn cases() -> Vec<Case> {
    let qs22 = CellSpec::qs22();
    let mut cases = Vec::new();
    // graphs 1 and 3 at the sweep's first point (0.775) and its fourth (3.07)
    for (label, base) in [(1, paper::graph1()), (3, paper::graph3())] {
        let mut variants = paper::ccr_variants(&base);
        for point in [0, 3] {
            let (ccr, graph) = variants.swap_remove(point);
            cases.push(Case {
                name: format!("graph {label} @ {ccr:.3}"),
                graph,
                spec: qs22.clone(),
                scheduler: "greedy_cpu",
                configs: both(),
            });
        }
    }
    let (ccr, graph1) = paper::ccr_variants(&paper::graph1()).swap_remove(0);
    for scheduler in ["greedy_mem", "comm_aware"] {
        cases.push(Case {
            name: format!("graph 1 @ {ccr:.3}"),
            graph: graph1.clone(),
            spec: qs22.clone(),
            scheduler,
            configs: both(),
        });
    }
    for (name, graph) in [("audio", audio::graph()), ("video", video::graph())] {
        cases.push(Case {
            name: name.into(),
            graph: graph.expect("the app builds"),
            spec: qs22.clone(),
            scheduler: "greedy_cpu",
            configs: both(),
        });
    }
    cases.push(Case {
        name: format!("graph 1 @ {ccr:.3}, 2 SPEs, 2 + 1 DMA slots"),
        graph: graph1,
        spec: CellSpec::builder()
            .spes(2)
            .dma_in_limit(2)
            .dma_ppe_limit(1)
            .build()
            .expect("a valid machine"),
        scheduler: "greedy_cpu",
        configs: both(),
    });
    let (ccr, graph3) = paper::ccr_variants(&paper::graph3()).swap_remove(0);
    cases.push(Case {
        name: format!("graph 3 @ {ccr:.3}"),
        graph: graph3,
        spec: qs22,
        scheduler: "multi_start",
        configs: vec![("default", SimConfig::default())],
    });
    cases
}

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
    let mut rows = Vec::new();
    for case in cases() {
        let scheduler = scheduler_by_name(case.scheduler).expect("registered scheduler");
        let mapping =
            scheduler.plan(&case.graph, &case.spec, &PlanContext::default()).unwrap().mapping;
        for (config_name, config) in &case.configs {
            let trace = simulate(&case.graph, &case.spec, &mapping, config, INSTANCES)
                .expect("a heuristic mapping simulates");
            let row = (trace.events, trace.total_time().to_bits(), digest(&trace));
            let name = format!("{}, {}, {config_name}", case.name, case.scheduler);
            println!(
                "    ({}, {:#018x}, {:#018x}), // {name}: {:.4} us",
                row.0,
                row.1,
                row.2,
                trace.total_time() * 1e6
            );
            rows.push((name, row));
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
