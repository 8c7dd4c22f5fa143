//! A referee for the annealer's capacity screen: `anneal` rejects a
//! proposal that `EvalState::overfills` without probing it. That may not
//! change a single step, so this suite keeps the walk as it stood before
//! the screen — [`reference_anneal`]: every proposal probed with
//! `score_move` — and requires `anneal` to return the same seats and the
//! same period, bit for bit, on random `daggen` graphs under several
//! seeds, on a QS22 and on a two-SPE Cell whose local stores are tight
//! enough that most proposals overfill one. With the `debug_invariants`
//! feature every screened proposal is probed as well and must score `+∞`.

use cellstream_core::steady::buffers::BufferPlan;
use cellstream_core::{evaluate, EvalState, Mapping, Move, Stop};
use cellstream_daggen::{generate, paper, CostParams, DagGenParams};
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_heuristics::{anneal, greedy_cpu, AnnealingOptions};
use cellstream_platform::{ByteSize, CellSpec, CellSpecBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `anneal` as it stood before the screen, kept verbatim but for the
/// stop checks (the cases here never stop early): every proposal is
/// probed. Also returns how many proposals the screen would have
/// skipped.
fn reference_anneal(
    g: &StreamGraph,
    spec: &CellSpec,
    start: &Mapping,
    opts: &AnnealingOptions,
) -> ((Mapping, f64), usize) {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let ppe_only = Mapping::all_on(g, spec.pe(0));
    let mut state = match EvalState::new(g, spec, start) {
        Ok(s) => s,
        Err(_) => EvalState::new(g, spec, &ppe_only).unwrap(),
    };
    if !state.is_feasible() {
        state.reset(&ppe_only).unwrap();
    }
    let mut current_p = state.period();
    let (mut best, mut best_p) = (state.mapping(), current_p);
    let mut temperature = current_p * 0.2;
    let cool_every = (opts.steps / 100).max(1);
    let mut overfilling = 0;
    for step in 0..opts.steps {
        let t = TaskId(rng.gen_range(0..g.n_tasks()));
        let mut to = spec.pe(rng.gen_range(0..spec.n_pes()));
        if to == state.pe_of(t) {
            to = spec.pe((to.index() + 1) % spec.n_pes());
            if to == state.pe_of(t) {
                continue;
            }
        }
        let mv = Move::Relocate { task: t, to };
        overfilling += usize::from(state.overfills(mv));
        let cand_p = state.score_move(mv);
        if !cand_p.is_finite() {
            continue;
        }
        let delta = cand_p - current_p;
        let accept =
            delta <= 0.0 || (temperature > 0.0 && rng.gen::<f64>() < (-delta / temperature).exp());
        if accept {
            state.apply(mv);
            current_p = cand_p;
            if current_p < best_p {
                best = state.mapping();
                best_p = current_p;
            }
        }
        if step % cool_every == cool_every - 1 {
            temperature *= 0.93;
        }
    }
    let exact = evaluate(g, spec, &best).unwrap().period;
    ((best, exact), overfilling)
}

/// `anneal` and the reference from `start`: the screened proposals, or
/// why the two walks differ.
fn compare(
    g: &StreamGraph,
    spec: &CellSpec,
    start: &Mapping,
    opts: &AnnealingOptions,
) -> Result<usize, String> {
    let (m, p, _) = anneal(g, spec, start, opts, &Stop::default());
    let ((ref_m, ref_p), overfilling) = reference_anneal(g, spec, start, opts);
    if m != ref_m || p.to_bits() != ref_p.to_bits() {
        return Err(format!("anneal reached {p:e}, the unscreened walk {ref_p:e}"));
    }
    Ok(overfilling)
}

/// A two-SPE Cell whose local stores hold the buffers of only about
/// `eighths / 8` of the graph's median task.
fn tight_two_spe_cell(g: &StreamGraph, eighths: u64) -> CellSpec {
    let mut bufs = BufferPlan::new(g).task_bytes;
    bufs.sort_by(f64::total_cmp);
    let budget = (bufs[bufs.len() / 2] * eighths as f64 / 8.0).ceil().max(1.0) as u64;
    let code = ByteSize::kib(64);
    CellSpecBuilder::default()
        .spes(2)
        .code_size(code)
        .local_store(ByteSize::bytes_exact(code.bytes() + budget))
        .build()
        .unwrap()
}

#[test]
fn the_screened_walk_is_the_unscreened_one_on_paper_graph_1() {
    let spec = CellSpec::qs22();
    let mut screened = 0;
    let mut steps = 0;
    for (ccr, g) in paper::ccr_variants(&paper::graph1()) {
        let start = greedy_cpu(&g, &spec);
        let opts = AnnealingOptions { seed: ccr.to_bits(), ..AnnealingOptions::default() };
        screened += compare(&g, &spec, &start, &opts)
            .unwrap_or_else(|why| panic!("graph 1 @ {ccr:.3}: {why}"));
        steps += opts.steps;
    }
    println!("{screened} of {steps} proposals screened");
    // the screen is not vacuous: on the paper's graphs most proposals
    // would overfill a local store
    assert!(2 * screened > steps as usize, "only {screened} of {steps} proposals screened");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn the_screened_walk_is_the_unscreened_one_on_random_graphs(
        graph_seed in 0u64..1_000_000,
        n in 6usize..40,
        seed in any::<u64>(),
        steps in 200u32..1500,
        tight in any::<bool>(),
        eighths in 4u64..24,
    ) {
        let g = generate("referee", &DagGenParams {
            n, fat: 0.6, regular: 0.5, density: 0.4, jump: 2,
            costs: CostParams::default(),
        }, graph_seed).unwrap();
        let spec = if tight { tight_two_spe_cell(&g, eighths) } else { CellSpec::qs22() };
        let start = greedy_cpu(&g, &spec);
        let opts = AnnealingOptions { steps, seed };
        prop_assert_eq!(compare(&g, &spec, &start, &opts).map(|_| ()), Ok(()));
    }
}
