//! The simulator's jump over its periodic steady state, against the full
//! run. `sim::simulate` takes a signature of its state at each full
//! completion and, when one repeats, skips whole cycles
//! (`cellstream_sim::engine`'s module docs); `engine::simulate_full`
//! runs the same simulation event by event. The two must agree:
//! * every completion, at every sink, within `1e-9·T·(1 + k)`, where `T`
//!   is the cycle's period per completion and `k` the cycles jumped, and
//!   bit for bit when no cycle was found;
//! * the bytes in and out of every PE within `1e-12` relative;
//! * the event count of the full run is never below the jumped one's.
//!
//! The cases are random `daggen` graphs (sources read memory, sinks
//! write it) under random and PPE-heavy mappings, on a stock QS22 and on
//! a two-SPE Cell whose DMA queues fill, under the ideal and the
//! calibrated configuration, and the twelve mappings the benchmark's
//! `plan_paper` simulates. In debug builds the engine's pump, pick and
//! re-share oracles run on both sides, after the jump too.
//!
//! `steady_state_throughput` reads the cycle when there is one: on graph
//! 3's six `plan_paper` mappings, whose sources run ~140 instances ahead
//! of the sink, the `[0.5·n, 0.85·n]` window of a 200-instance run
//! measures the drain (1.3–1.9 × the model's `1/T`), while the cycle
//! equals the 3 000-instance window.

mod common;

use cellstream::core::Mapping;
use cellstream::daggen::{generate, CostParams, DagGenParams};
use cellstream::platform::{CellSpec, PeId};
use cellstream::sim::engine::simulate_full;
use cellstream::sim::{simulate, RunTrace, SimConfig};
use common::plan_paper;
use proptest::prelude::*;

/// Instances per run, as in `plan_paper`.
const INSTANCES: u64 = 200;

/// Why the jumped run `jumped` is not the full run `full`, if it is not.
fn differs(jumped: &RunTrace, full: &RunTrace) -> Option<String> {
    // at most n / c cycles are jumped
    let tol = jumped.cycle.map_or(0.0, |(c, dt)| {
        1e-9 * (dt / c as f64) * (1.0 + (full.completions.len() as u64 / c) as f64)
    });
    if jumped.sink_completions.len() != full.sink_completions.len() {
        return Some("the sinks differ".into());
    }
    let pairs = std::iter::once((&jumped.completions, &full.completions)).chain(
        jumped
            .sink_completions
            .iter()
            .map(|(_, t)| t)
            .zip(full.sink_completions.iter().map(|(_, t)| t)),
    );
    for (a, b) in pairs {
        if a.len() != b.len() {
            return Some(format!("{} completions, full run {}", a.len(), b.len()));
        }
        if let Some(i) = (0..a.len()).find(|&i| !(a[i] == b[i] || (a[i] - b[i]).abs() <= tol)) {
            return Some(format!(
                "completion {i} at {:e}, full run {:e} (tolerance {tol:e})",
                a[i], b[i]
            ));
        }
    }
    let bytes = jumped
        .bytes_in
        .iter()
        .zip(&full.bytes_in)
        .chain(jumped.bytes_out.iter().zip(&full.bytes_out));
    for (&a, &b) in bytes {
        if (a - b).abs() > 1e-12 * a.abs().max(b.abs()) {
            return Some(format!("{a:e} bytes, full run {b:e}"));
        }
    }
    if full.cycle.is_some() || full.events < jumped.events {
        return Some(format!(
            "the full run took {} events and recorded {:?}",
            full.events, full.cycle
        ));
    }
    None
}

#[test]
fn the_jump_reproduces_the_full_run_on_the_plan_paper_mappings() {
    let spec = CellSpec::qs22();
    let mut jumped_runs = 0;
    for p in plan_paper() {
        for (config_name, config) in
            [("default", SimConfig::default()), ("ideal", SimConfig::ideal())]
        {
            let jumped = simulate(&p.graph, &spec, &p.mapping, &config, INSTANCES).unwrap();
            let full = simulate_full(&p.graph, &spec, &p.mapping, &config, INSTANCES).unwrap();
            println!(
                "{}, {config_name}: cycle {:?}, events {} of {}",
                p.name, jumped.cycle, jumped.events, full.events
            );
            if let Some(why) = differs(&jumped, &full) {
                panic!("{}, {config_name}: {why}", p.name);
            }
            assert!(
                INSTANCES as f64 / jumped.total_time() * p.period <= 1.0 + 1e-6,
                "{}, {config_name}: faster than the model",
                p.name
            );
            jumped_runs += usize::from(jumped.events < full.events);
        }
    }
    // the paper's mapped streams settle: most of the 24 runs jump
    assert!(jumped_runs >= 12, "only {jumped_runs} of 24 runs jumped");
}

#[test]
fn graph_3s_steady_state_is_read_from_its_cycle() {
    let spec = CellSpec::qs22();
    let config = SimConfig::default();
    for p in plan_paper().into_iter().filter(|p| p.name.starts_with("graph 3")) {
        let short = simulate(&p.graph, &spec, &p.mapping, &config, INSTANCES).unwrap();
        let long = simulate_full(&p.graph, &spec, &p.mapping, &config, 3_000).unwrap();
        let (rate, reference) = (short.steady_state_throughput(), long.steady_state_throughput());
        println!(
            "{}: cycle {:?}, rate x T {:.6}, 3 000-instance window x T {:.6}",
            p.name,
            short.cycle,
            rate * p.period,
            reference * p.period
        );
        assert!(short.cycle.is_some(), "{}: no cycle found", p.name);
        assert!(rate * p.period <= 1.0, "{}: {rate:e} is faster than the model", p.name);
        assert!(
            (rate - reference).abs() <= 1e-4 * reference,
            "{}: {rate:e} against the long window's {reference:e}",
            p.name
        );
    }
}

/// A Cell whose DMA queues fill up on small graphs: two SPEs, two
/// incoming DMA slots each, one SPE-to-PPE proxy slot.
fn tight_cell() -> CellSpec {
    CellSpec::builder().spes(2).dma_in_limit(2).dma_ppe_limit(1).build().expect("a valid machine")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_jump_reproduces_the_full_run_on_random_graphs(
        seed in 0u64..10_000,
        n in 4usize..28,
        picks in collection::vec((0.0f64..1.0, 0usize..1024), 28..29),
        ppe_heavy in any::<bool>(),
        tight in any::<bool>(),
        calibrated in any::<bool>(),
    ) {
        let g = generate("referee", &DagGenParams {
            n, fat: 0.6, regular: 0.5, density: 0.4, jump: 2,
            costs: CostParams::default(),
        }, seed).unwrap();
        let spec = if tight { tight_cell() } else { CellSpec::qs22() };
        let ppe_share = if ppe_heavy { 0.75 } else { 0.0 };
        let assignment = g.task_ids().zip(&picks).map(|(_, &(u, pe))| {
            if u < ppe_share { PeId(0) } else { spec.pe(pe % spec.n_pes()) }
        }).collect();
        let m = Mapping::new(&g, &spec, assignment).unwrap();
        let config = if calibrated { SimConfig::calibrated() } else { SimConfig::ideal() };
        let jumped = simulate(&g, &spec, &m, &config, 120).unwrap();
        let full = simulate_full(&g, &spec, &m, &config, 120).unwrap();
        prop_assert_eq!(differs(&jumped, &full), None);
    }
}
