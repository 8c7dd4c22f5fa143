//! A referee for the descent: `refine_in_place` leaves a scan early
//! once every move of it is known to be rejected against the current
//! state (clean-cycle termination), and reads period and balance
//! potential off the evaluator's occupancy cache. Neither may change a
//! single decision, so this suite keeps the loop they replaced —
//! [`reference_refine`]: every move re-probed every cycle, period and
//! potential recomputed from the report's raw per-PE tables with the
//! divisions spelled out — and requires the shipped search to land on
//! the same seats and the same score, bit for bit: warm, from the
//! partial seats a serving replan hands `repair_in_place`, and cold,
//! from the planners' starts on a paper-scale graph.

use cellstream_core::steady::buffers::BufferPlan;
use cellstream_core::{Availability, EvalState, Mapping, Move, Stop};
use cellstream_daggen::{chain, fork_join, CostParams};
use cellstream_graph::{StreamGraph, Workload};
use cellstream_heuristics::{greedy_cpu, refine_in_place, repair_in_place, LocalSearchOptions};
use cellstream_platform::{ByteSize, CellSpec, CellSpecBuilder, PeId};
use proptest::prelude::*;

/// `(score, potential)` of the state's current seats from the raw §3.2
/// tables: the period chain and the per-PE occupancy exactly as the
/// evaluator spelled them before it cached anything.
fn raw_verdict(state: &EvalState<'_>, plateau: bool) -> (f64, f64) {
    let r = state.report();
    let bw = state.spec().interface_bw().as_bytes_per_s();
    let n = r.compute_load.len();
    let mut period = 0.0f64;
    for i in 0..n {
        period = period.max(r.compute_load[i]).max(r.in_bytes[i] / bw).max(r.out_bytes[i] / bw);
    }
    let score = if r.violations.is_empty() { period } else { f64::INFINITY };
    let occupancy = |i: usize| r.compute_load[i].max(r.in_bytes[i] / bw).max(r.out_bytes[i] / bw);
    let pot = if plateau { (0..n).map(|i| occupancy(i) * occupancy(i)).sum() } else { 0.0 };
    (score, pot)
}

/// `refine_in_place` as it stood before the clean-cycle rule, kept
/// verbatim but for the verdict source: a round is a full relocation
/// sweep, then (if it came up dry) a full swap scan, until a round
/// changes nothing or `max_rounds` is spent.
fn reference_refine(state: &mut EvalState<'_>, opts: &LocalSearchOptions) -> f64 {
    let g = state.graph();
    let spec = state.spec();
    let (mut current, mut current_pot) = raw_verdict(state, true);

    fn probe(state: &mut EvalState<'_>, mv: Move, plateau: bool) -> (f64, f64) {
        state.apply(mv);
        let verdict = raw_verdict(state, plateau);
        state.undo();
        verdict
    }
    fn dominates(p: f64, pot: f64, bp: f64, bpot: f64) -> bool {
        if p < bp {
            return true;
        }
        p == bp && pot < bpot * (1.0 - 1e-12)
    }
    let accepts = |p: f64, pot: f64, current: f64, current_pot: f64| -> bool {
        p < current * (1.0 - 1e-9)
            || (opts.plateau && p <= current * (1.0 + 1e-12) && pot < current_pot * (1.0 - 1e-9))
    };

    for _ in 0..opts.max_rounds {
        let mut changed = false;
        for t in g.task_ids() {
            let from = state.pe_of(t);
            let mut best: Option<(Move, f64, f64)> = None;
            for to in spec.pes() {
                if to == from {
                    continue;
                }
                let mv = Move::Relocate { task: t, to };
                let (p, pot) = probe(state, mv, opts.plateau);
                if best.as_ref().is_none_or(|&(_, bp, bpot)| dominates(p, pot, bp, bpot)) {
                    best = Some((mv, p, pot));
                }
            }
            if let Some((mv, p, pot)) = best {
                if accepts(p, pot, current, current_pot) {
                    state.apply(mv);
                    (current, current_pot) = (p.min(current), pot);
                    changed = true;
                }
            }
        }
        if !changed {
            for a in g.task_ids() {
                for b in g.task_ids().skip(a.index() + 1) {
                    if state.pe_of(a) == state.pe_of(b) {
                        continue;
                    }
                    let mv = Move::Swap { a, b };
                    let (p, pot) = probe(state, mv, opts.plateau);
                    if accepts(p, pot, current, current_pot) {
                        state.apply(mv);
                        (current, current_pot) = (p.min(current), pot);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    raw_verdict(state, false).0
}

/// `daggen` chains and fork-joins composed until the workload holds at
/// least `target` tasks (10–60, the serving layers' range).
fn workload(seed: u64, target: usize) -> Workload {
    let costs = CostParams::default();
    let mut b = Workload::builder("mix");
    let (mut n_tasks, mut i) = (0, 0u64);
    while n_tasks < target {
        let s = seed.wrapping_mul(31).wrapping_add(i);
        let g = if s % 3 == 0 {
            fork_join(&format!("fj{i}"), 2 + (s / 3 % 4) as usize, &costs, s)
        } else {
            chain(&format!("ch{i}"), 2 + (s / 3 % 6) as usize, &costs, s)
        };
        n_tasks += g.n_tasks();
        b.push(&g, 0.5 + (s % 5) as f64 * 0.5).unwrap();
        i += 1;
    }
    b.build().unwrap()
}

/// The one probe a random workload almost never needs: the *last* pair
/// of a swap scan. Three independent tasks on PPE + one SPE, seated so
/// that every relocation and the first two pairs are rejected and
/// swapping the last pair divides the period by nine — a scan that
/// leaves one pair early stays at the start.
#[test]
fn the_last_pair_of_a_swap_scan_is_probed() {
    use cellstream_graph::{StreamGraph, TaskSpec};
    let mut b = StreamGraph::builder("three");
    b.add_task(TaskSpec::new("ballast").uniform_cost(0.1e-6));
    b.add_task(TaskSpec::new("likes_spe").ppe_cost(10e-6).spe_cost(1e-6));
    b.add_task(TaskSpec::new("likes_ppe").ppe_cost(1e-6).spe_cost(10e-6));
    let g = b.build().unwrap();
    let spec = CellSpec::with_spes(1);
    let seats = [Some(spec.pe(0)), Some(spec.pe(0)), Some(spec.pe(1))];
    let opts = LocalSearchOptions { plateau: false, ..LocalSearchOptions::default() };

    let start = Mapping::all_on(&g, spec.pe(0));
    let mut shipped = EvalState::new(&g, &spec, &start).unwrap();
    let score = repair_in_place(&mut shipped, &seats, &opts, &Stop::default());
    assert_eq!(shipped.assignment(), &[spec.pe(0), spec.pe(1), spec.pe(0)], "the swap was found");
    assert!(score < 1.2e-6, "period {score}");

    let mut reference = EvalState::new(&g, &spec, &start).unwrap();
    repair_in_place(
        &mut reference,
        &seats,
        &LocalSearchOptions { max_rounds: 0, ..opts.clone() },
        &Stop::default(),
    );
    assert_eq!(reference_refine(&mut reference, &opts).to_bits(), score.to_bits());
    assert_eq!(shipped.assignment(), reference.assignment());
}

/// The planners' posture: cold starts — everything on the PPE, and
/// *GreedyCpu*'s seats — on the paper's 94-task graph 2 and a QS22,
/// through `refine_in_place` directly: the long descents, over 4371
/// swap pairs, that the serving-sized cases below never draw.
#[test]
fn cold_starts_on_paper_graph2_match_the_reference() {
    let g = cellstream_daggen::paper::graph2();
    let spec = CellSpec::qs22();
    let starts =
        [("all-on-PPE", Mapping::all_on(&g, spec.pe(0))), ("greedy_cpu", greedy_cpu(&g, &spec))];
    for (name, start) in &starts {
        for plateau in [true, false] {
            let opts = LocalSearchOptions { plateau, ..LocalSearchOptions::default() };
            let mut shipped = EvalState::new(&g, &spec, start).unwrap();
            let shipped_score = refine_in_place(&mut shipped, &opts, &Stop::default());
            let mut reference = EvalState::new(&g, &spec, start).unwrap();
            let reference_score = reference_refine(&mut reference, &opts);
            let ctx = format!("{name}, plateau {plateau}");
            assert_eq!(shipped.assignment(), reference.assignment(), "{ctx}: seats");
            assert_eq!(shipped_score.to_bits(), reference_score.to_bits(), "{ctx}: score");
            assert_ne!(shipped.assignment(), start.assignment(), "{ctx}: the descent moved");
        }
    }
}

/// `spes` SPEs whose local store holds `eighths / 8` of the median task
/// buffer of `g`: most tasks fit an SPE alone and few fit one together,
/// so the capacity screen fires on a large share of the probes.
fn tight_local_store(g: &StreamGraph, spes: usize, eighths: u64) -> CellSpec {
    let mut bufs = BufferPlan::new(g).task_bytes;
    bufs.sort_by(f64::total_cmp);
    let budget = (bufs[bufs.len() / 2] * eighths as f64 / 8.0).ceil().max(1.0) as u64;
    let code = ByteSize::kib(64);
    CellSpecBuilder::default()
        .spes(spes)
        .code_size(code)
        .local_store(ByteSize::bytes_exact(code.bytes() + budget))
        .build()
        .unwrap()
}

/// The live platform a case draws: healthy (0) or one dead SPE (1).
fn overlay(spec: &CellSpec, health: u32, which_spe: u32) -> Availability {
    let mut avail = Availability::full(spec);
    if health == 1 {
        avail.fail(spec.pe(1 + which_spe as usize % spec.n_spe()));
    }
    avail
}

/// Per task: a random seat kept (3 in 4) or left to placement.
fn partial_seats(g: &StreamGraph, spec: &CellSpec, seats: &[(u32, u32)]) -> Vec<Option<PeId>> {
    (0..g.n_tasks())
        .map(|k| {
            let (keep, pe) = seats[k % seats.len()];
            (keep != 0).then(|| spec.pe(pe as usize % spec.n_pes()))
        })
        .collect()
}

/// One referee case: the shipped search and the reference descend from
/// the same seats and must end on the same seats and score bits. The
/// seats are `partial` after `repair_in_place`'s placement, eviction and
/// rebase or, with `raw`, `partial` itself (unplaced tasks on the PPE,
/// nothing evicted — often infeasible, so the descent starts at `+∞`).
fn referee_case(
    g: &StreamGraph,
    spec: &CellSpec,
    avail: &Availability,
    partial: &[Option<PeId>],
    opts: &LocalSearchOptions,
    raw: bool,
    ctx: &str,
) {
    let start = Mapping::all_on(g, spec.pe(0));
    let mut shipped = EvalState::new_with(g, spec, avail, &start).unwrap();
    let mut reference = EvalState::new_with(g, spec, avail, &start).unwrap();
    let (shipped_score, reference_score) = if raw {
        let seats = || partial.iter().map(|p| p.unwrap_or(spec.pe(0)));
        shipped.reseat(seats());
        reference.reseat(seats());
        (
            refine_in_place(&mut shipped, opts, &Stop::default()),
            reference_refine(&mut reference, opts),
        )
    } else {
        let shipped_score = repair_in_place(&mut shipped, partial, opts, &Stop::default());
        let no_refine = LocalSearchOptions { max_rounds: 0, ..opts.clone() };
        repair_in_place(&mut reference, partial, &no_refine, &Stop::default());
        (shipped_score, reference_refine(&mut reference, opts))
    };
    assert_eq!(shipped.assignment(), reference.assignment(), "{ctx}: seats");
    assert_eq!(shipped_score.to_bits(), reference_score.to_bits(), "{ctx}: score");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shipped_sweep_matches_the_reference_move_for_move(
        seed in 0u64..1_000_000,
        target in 10usize..55,
        spes in 1usize..9,
        // per task: keep a random seat (3 in 4) or leave it to placement
        seats in collection::vec((0u32..4, any::<u32>()), 64..65),
        plateau in any::<bool>(),
        rounds in 0usize..3,
        // 0 healthy, 1 one dead SPE
        (health, which_spe) in (0u32..2, any::<u32>()),
    ) {
        let w = workload(seed, target);
        let g = w.graph();
        let spec = CellSpec::with_spes(spes);
        let opts = LocalSearchOptions { plateau, max_rounds: [1, 4, 64][rounds] };
        let ctx = format!(
            "seed {seed}, {} tasks, {spes} SPEs, health {health}, plateau {plateau}, \
             max_rounds {}",
            g.n_tasks(),
            opts.max_rounds
        );
        let avail = overlay(&spec, health, which_spe);
        referee_case(g, &spec, &avail, &partial_seats(g, &spec, &seats), &opts, false, &ctx);
    }

    /// The same comparison on local stores tight enough that the capacity
    /// screen skips a large share of the probes, and from raw seats whose
    /// descent starts at `+∞`, where nothing may be screened.
    #[test]
    fn screened_sweep_matches_the_reference_on_tight_local_stores(
        seed in 0u64..1_000_000,
        target in 10usize..55,
        spes in 1usize..9,
        seats in collection::vec((0u32..4, any::<u32>()), 64..65),
        plateau in any::<bool>(),
        rounds in 0usize..3,
        (health, which_spe) in (0u32..2, any::<u32>()),
        // local-store budget in eighths of the median task buffer
        eighths in 4u64..12,
        raw in any::<bool>(),
    ) {
        let w = workload(seed, target);
        let g = w.graph();
        let spec = tight_local_store(g, spes, eighths);
        let opts = LocalSearchOptions { plateau, max_rounds: [1, 4, 64][rounds] };
        let ctx = format!(
            "seed {seed}, {} tasks, {spes} SPEs, local store {eighths}/8 of the median \
             buffer, health {health}, plateau {plateau}, max_rounds {}, raw {raw}",
            g.n_tasks(),
            opts.max_rounds
        );
        let avail = overlay(&spec, health, which_spe);
        referee_case(g, &spec, &avail, &partial_seats(g, &spec, &seats), &opts, raw, &ctx);
    }
}
