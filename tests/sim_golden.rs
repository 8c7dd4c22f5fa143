//! Golden simulator traces: what `milp_golden.rs` is to the MILP, for
//! `sim::simulate`. Every run simulates 200 instances and is pinned by
//! its event count, its makespan bits, one FNV-1a digest over the
//! bits of the whole `RunTrace` (per-instance completions, every sink's
//! completion times and the bytes in and out of each PE) and the
//! steady-state cycle it records (`RunTrace::cycle`, which the
//! throughput readers return whether or not the run jumped). The event count
//! is what is left after the jump over the periodic steady state
//! (`sim_jump.rs` holds the jump to the event-by-event run). The
//! simulator is deterministic, so a changed row is a changed *event order* or
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

/// `(events, makespan bits, trace digest, (cycle completions, cycle
/// seconds bits))`, one row per case and configuration in the order
/// [`cases`] lists them; the cycle is `(0, 0)` when none was found.
const GOLDEN: [(u64, u64, u64, (u64, u64)); 19] = [
    (7853, 0x3f57e2b437452bcc, 0x86b3a77c1a0c4dc6, (1, 0x3eddf02a5589c4c0)), // graph 1 @ 0.775, greedy_cpu, ideal: 1457.8590 us
    (11140, 0x3f59b2f42d4307d8, 0x20dad0ec28f94092, (1, 0x3ee02a195edc1640)), // graph 1 @ 0.775, greedy_cpu, calibrated: 1568.5448 us
    (18590, 0x3f718c437095632e, 0xb7a93026757cb0ab, (0, 0x0000000000000000)), // graph 1 @ 3.070, greedy_cpu, ideal: 4284.1563 us
    (24392, 0x3f71904e4a2fbbda, 0xb64dd90286ec73ac, (0, 0x0000000000000000)), // graph 1 @ 3.070, greedy_cpu, calibrated: 4288.0114 us
    (12810, 0x3f543835890dc931, 0x23385ecea6f31ffb, (1, 0x3ed92d45e3d17b00)), // graph 3 @ 0.775, greedy_cpu, ideal: 1234.1044 us
    (18446, 0x3f5581b6844628c1, 0x7b58705d49ac2282, (1, 0x3edad008460c2d00)), // graph 3 @ 0.775, greedy_cpu, calibrated: 1312.6643 us
    (9448, 0x3f662e0e8593a7e8, 0x0c692ae388acfba7, (1, 0x3eebc342beddf200)), // graph 3 @ 3.070, greedy_cpu, ideal: 2707.5084 us
    (11914, 0x3f671f5960e10bff, 0x5d09d4e65bad7394, (1, 0x3eed05621e1ecac0)), // graph 3 @ 3.070, greedy_cpu, calibrated: 2822.5656 us
    (11634, 0x3f59f5b9f6d03ede, 0x8cadf5fb11973859, (2, 0x3ef022290d8d0c60)), // graph 1 @ 0.775, greedy_mem, ideal: 1584.4647 us
    (26815, 0x3f5b8ec36d65728d, 0x3b0e770b94f32c8c, (1, 0x3ee1191ef8b63ac0)), // graph 1 @ 0.775, greedy_mem, calibrated: 1681.9867 us
    (9417, 0x3f60c0e1e7786216, 0x978259ad5d67fc8e, (1, 0x3ee4855cf1b0c3c0)), // graph 1 @ 0.775, comm_aware, ideal: 2045.0985 us
    (13116, 0x3f617b674476998a, 0x40045d8cac1a85af, (1, 0x3ee5617aea3f35a0)), // graph 1 @ 0.775, comm_aware, calibrated: 2134.0386 us
    (822, 0x3f426ed5be3d88f0, 0x096da3c6917b1211, (1, 0x3ec77cf447651960)), // audio, greedy_cpu, ideal: 562.5290 us
    (1389, 0x3f43638d56b4d478, 0x18bed0f8527cdcf1, (1, 0x3ec8a99a17c3c110)), // audio, greedy_cpu, calibrated: 591.7015 us
    (489, 0x3f414a301cf9c608, 0x9ae64db1bea3ff91, (1, 0x3ec5cf751db94e70)), // video, greedy_cpu, ideal: 527.6427 us
    (702, 0x3f41aa67c0293587, 0x6d3537a9aef23e21, (1, 0x3ec63ad4e8244120)), // video, greedy_cpu, calibrated: 539.1127 us
    (5056, 0x3f6ccc45aad1a07e, 0x256666ec19fa6433, (1, 0x3ef26d3c5f12c010)), // graph 1 @ 0.775, 2 SPEs, 2 + 1 DMA slots, greedy_cpu, ideal: 3515.3733 us
    (6219, 0x3f6e1835985fd92c, 0x543e49887883630b, (1, 0x3ef3414cc20c5fb0)), // graph 1 @ 0.775, 2 SPEs, 2 + 1 DMA slots, greedy_cpu, calibrated: 3673.6533 us
    (21284, 0x3f44076ec56f5a00, 0x34a63026bb2767f4, (6, 0x3ef1334fa0924b30)), // graph 3 @ 0.775, multi_start, default: 611.2376 us
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
            let cycle = trace.cycle.map_or((0, 0), |(c, dt)| (c, dt.to_bits()));
            let row = (trace.events, trace.total_time().to_bits(), digest(&trace), cycle);
            let name = format!("{}, {}, {config_name}", case.name, case.scheduler);
            println!(
                "    ({}, {:#018x}, {:#018x}, ({}, {:#018x})), // {name}: {:.4} us",
                row.0,
                row.1,
                row.2,
                row.3 .0,
                row.3 .1,
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
