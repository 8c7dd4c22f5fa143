//! Local search over mappings (extension heuristic, paper §7 future work).
//!
//! First-improvement descent on the **incremental** evaluator
//! ([`cellstream_core::EvalState`]) over one neighbourhood:
//! move any single task to any other PE, or swap any two tasks on
//! different PEs. Every probe is an O(degree) `score_move` — no mapping
//! clones, no re-validation, no buffer-plan rebuilds — which is what
//! makes the O(K²) swap neighbourhood affordable on paper-scale graphs
//! (graph 2's 94 tasks on a QS22) and lets a wall-clock budget buy
//! orders of magnitude more moves. Infeasible neighbours score `+∞` and
//! are never selected, so starting from a feasible mapping the result
//! stays feasible. Deterministic given a deterministic start.
//!
//! **Plateau descent.** The period is a *maximum* over per-PE
//! occupations, so two co-bottlenecked PEs stall a descent on the period
//! alone: no single move lowers both, every neighbour ties. With
//! [`LocalSearchOptions::plateau`] (the default) the search also accepts
//! period-preserving moves that strictly reduce the load-balance
//! potential `Σ_PE occupancy²`, walking along the plateau until a strict
//! improvement opens up. Descent stays monotone in the lexicographic
//! objective (period, potential), so it still terminates and still never
//! worsens the start.
//!
//! **Sweeps and clean-cycle termination.** A round walks the tasks once
//! and applies each task's best acceptable relocation on the spot, and
//! only a round whose relocation sweep came up dry scans the O(K²) swap
//! pairs, applying every acceptable swap as it is met. A probe is apply
//! → verdict → undo, the undo is bitwise, and acceptance reads nothing
//! but the probed state and the current (period, potential) — so a move
//! rejected against some state is rejected again for as long as no move
//! is applied. The sweep therefore counts the tasks, and the pairs, gone
//! by since the last applied move, and leaves a scan as soon as all K
//! tasks (all K(K−1)/2 pairs) have been clean in a row, across round
//! boundaries: what it skips is exactly the re-probing of rejected moves
//! against a bit-identical state, so rounds, accepted moves and the
//! final seats are those of the loop that re-probes everything
//! (`tests/refine_referee.rs` keeps that loop and compares).
//!
//! **A probe pays for what can decide.** Two shortcuts, both exact:
//!
//! * *Capacity screen.* While the current score is finite, a move for
//!   which [`EvalState::overfills`] fires — it would push an SPE's
//!   buffers over the local store (1i) or seat a task on a dead PE — is
//!   not probed at all. Its probe would score `+∞`, and from a finite
//!   current score `+∞` is never accepted: in a relocation sweep it
//!   never beats a finite best and every finite probe beats it, so the
//!   task's best acceptable move is the same with or without it, and a
//!   skipped swap counts as a rejected pair. At a current score of `+∞`
//!   nothing is screened, because there an infinite-score move that
//!   lowers the potential is an acceptable plateau move. The screen
//!   reads the rows `apply` would start from, with `apply`'s own float
//!   operations, so its verdict is the probe's bit for bit;
//!   `debug_invariants` builds re-probe every screened move and assert
//!   the `+∞`.
//! * *Lazy potential.* A probe sums `Σ occupancy²` only when its period
//!   is at most `current·(1+1e-12)`. Above that the move is not
//!   acceptable, and every acceptable move of the same sweep beats it on
//!   period alone before the potential is compared, so the value it
//!   would have had decides nothing.
//!
//! Both keep every round, every accepted move and the final seats of the
//! loop that probes everything; feasibility of a probe from a feasible
//! state is read off the rows its move touched (see
//! [`EvalState::is_feasible`]).

use cellstream_core::scheduler::CancelToken;
use cellstream_core::{evaluate, evaluate_with, Availability, EvalState, Mapping, Move};
use cellstream_graph::StreamGraph;
use cellstream_platform::CellSpec;
use std::time::{Duration, Instant};

/// Options for [`local_search`].
#[derive(Debug, Clone)]
pub struct LocalSearchOptions {
    /// Maximum rounds: a round is one relocation sweep over the tasks
    /// plus, if that sweep applied nothing, one scan of the swap pairs.
    pub max_rounds: usize,
    /// Wall-clock budget: stop after the first round that ends past it.
    /// `None` (the default) runs all `max_rounds`.
    pub budget: Option<Duration>,
    /// Cooperative cancellation, polled between neighbourhood scans of
    /// single tasks — raising it makes the search return its best
    /// mapping so far within one such step. `None` (the default) lets
    /// the scheduler layer fill in the [`PlanContext`] token; see
    /// [`cellstream_core::scheduler::PlanContext::cancel`].
    ///
    /// [`PlanContext`]: cellstream_core::scheduler::PlanContext
    pub cancel: Option<CancelToken>,
    /// Escape period plateaus by accepting equal-period moves that
    /// strictly reduce the `Σ occupancy²` balance potential (see the
    /// module docs). On by default; off, only strict period gains are
    /// accepted.
    pub plateau: bool,
}

impl Default for LocalSearchOptions {
    fn default() -> Self {
        LocalSearchOptions { max_rounds: 64, budget: None, cancel: None, plateau: true }
    }
}

/// The plateau tie-break potential: `Σ_PE occupancy²`, summed in PE
/// order. Always finite, feasible state or not — occupancies are sums of
/// finite loads; feasibility is the primary score's business.
fn balance_potential(state: &EvalState<'_>, spec: &CellSpec) -> f64 {
    spec.pes()
        .map(|pe| {
            let occ = state.occupancy(pe);
            occ * occ
        })
        .sum()
}

/// Refine `start` by [`refine_in_place`]. Returns the refined mapping and
/// its period (re-derived with one full [`evaluate`] so the published
/// number is exactly the verifier's, free of incremental drift).
pub fn local_search(
    g: &StreamGraph,
    spec: &CellSpec,
    start: &Mapping,
    opts: &LocalSearchOptions,
) -> (Mapping, f64) {
    let mut state = match EvalState::new(g, spec, start) {
        Ok(s) => s,
        // structurally invalid start: nothing to refine
        Err(_) => return (start.clone(), f64::INFINITY),
    };
    refine_in_place(&mut state, opts);
    let refined = state.mapping();
    let exact = exact_period(g, spec, &refined);
    (refined, exact)
}

/// [`local_search`] on a caller-owned [`EvalState`]: descend from the
/// state's current seats, committing accepted moves into the state, and
/// return the incremental score reached (`+∞` only from an infeasible
/// state no move can fix). The hot-path entry point — no `EvalState`
/// construction, no `Mapping` clone, no final full [`evaluate`]: it
/// performs **zero heap allocations**, the first call on a fresh state
/// included (the counting-allocator suite pins it). Callers that publish
/// a period re-derive it at their boundary; the incremental drift stays
/// below 1e-9 relative (see the `EvalState` docs).
// check: no-alloc
pub fn refine_in_place(state: &mut EvalState<'_>, opts: &LocalSearchOptions) -> f64 {
    let g = state.graph();
    let spec = state.spec();
    // a budget too long to add to the clock is no deadline
    let deadline = opts.budget.and_then(|b| Instant::now().checked_add(b));
    // poll through the Option: materialising a default token allocates
    let cancelled = || opts.cancel.as_ref().is_some_and(|c| c.is_cancelled());
    let mut current = state.score();
    let mut current_pot = balance_potential(state, spec);

    // probe = apply → (score, potential) → exact undo; the potential is
    // summed only for a period `accepts` could take (module docs)
    fn probe(
        state: &mut EvalState<'_>,
        spec: &CellSpec,
        mv: Move,
        plateau: bool,
        current: f64,
    ) -> (f64, f64) {
        state.apply(mv);
        let s = state.score();
        let pot = match plateau {
            true if s <= current * (1.0 + 1e-12) => balance_potential(state, spec),
            true => f64::INFINITY,
            false => 0.0,
        };
        state.undo();
        (s, pot)
    }
    // the capacity screen (module docs): with `current` finite, a move
    // that overfills a local store or seats a dead PE would score +∞ and
    // can never be accepted, so it is not probed
    fn screened(state: &mut EvalState<'_>, mv: Move, current: f64) -> bool {
        let skip = current.is_finite() && state.overfills(mv);
        #[cfg(feature = "debug_invariants")]
        if skip {
            state.apply(mv);
            let s = state.score();
            state.undo();
            assert!(s.is_infinite(), "screened {mv:?} scores {s}");
        }
        skip
    }
    // a task's best relocation, lexicographic in (period, potential):
    // the primary comparison is *exact* (ulp-level accumulator
    // differences pick winners, and a tolerance here silently rewrites
    // trajectories); plateau ties are bitwise-equal periods, which moves
    // off non-critical PEs produce naturally
    fn dominates(p: f64, pot: f64, bp: f64, bpot: f64) -> bool {
        p < bp || (p == bp && pot < bpot * (1.0 - 1e-12))
    }

    // `(p, pot)` is acceptable from `(current, current_pot)`: a strict
    // period improvement, or (with `plateau`) an equal-period move that
    // strictly improves balance.
    let accepts = |p: f64, pot: f64, current: f64, current_pot: f64| -> bool {
        p < current * (1.0 - 1e-9)
            || (opts.plateau && p <= current * (1.0 + 1e-12) && pot < current_pot * (1.0 - 1e-9))
    };

    // Clean-cycle termination (see the module docs): tasks and pairs
    // (same-PE skips included) gone by since the last *applied* move.
    // Both counts reset on any accept and carry over round boundaries;
    // `changed`, the round counter, cancellation and the deadline keep
    // their meaning, so capped runs reproduce move for move.
    let n_tasks = g.n_tasks();
    let n_pairs = n_tasks * n_tasks.saturating_sub(1) / 2;
    let (mut clean_tasks, mut clean_pairs) = (0usize, 0usize);
    'sweeps: for _ in 0..opts.max_rounds {
        let mut changed = false;
        for t in g.task_ids() {
            if cancelled() {
                break 'sweeps;
            }
            let from = state.pe_of(t);
            let mut best: Option<(Move, f64, f64)> = None;
            for to in spec.pes() {
                if to == from {
                    continue;
                }
                let mv = Move::Relocate { task: t, to };
                if screened(state, mv, current) {
                    continue;
                }
                let (p, pot) = probe(state, spec, mv, opts.plateau, current);
                if best.as_ref().is_none_or(|&(_, bp, bpot)| dominates(p, pot, bp, bpot)) {
                    best = Some((mv, p, pot));
                }
            }
            match best {
                Some((mv, p, pot)) if accepts(p, pot, current, current_pot) => {
                    state.apply(mv);
                    (current, current_pot) = (p.min(current), pot);
                    changed = true;
                    (clean_tasks, clean_pairs) = (0, 0);
                }
                _ => {
                    clean_tasks += 1;
                    if clean_tasks >= n_tasks {
                        break; // every task is clean against this state
                    }
                }
            }
        }
        // swaps only when a whole relocation sweep came up dry
        if !changed {
            'scan: for a in g.task_ids() {
                if cancelled() {
                    break 'sweeps;
                }
                for b in g.task_ids().skip(a.index() + 1) {
                    let mv = Move::Swap { a, b };
                    if state.pe_of(a) != state.pe_of(b) && !screened(state, mv, current) {
                        let (p, pot) = probe(state, spec, mv, opts.plateau, current);
                        if accepts(p, pot, current, current_pot) {
                            state.apply(mv);
                            (current, current_pot) = (p.min(current), pot);
                            changed = true;
                            (clean_tasks, clean_pairs) = (0, 0);
                            continue;
                        }
                    }
                    clean_pairs += 1;
                    if clean_pairs >= n_pairs {
                        break 'scan; // every pair is clean against this state
                    }
                }
            }
        }
        if !changed {
            break; // local optimum of the full neighbourhood
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
    }
    state.score()
}

/// The full verifier's verdict on a mapping: feasible period or `+∞`.
pub(crate) fn exact_period(g: &StreamGraph, spec: &CellSpec, m: &Mapping) -> f64 {
    match evaluate(g, spec, m) {
        Ok(r) if r.is_feasible() => r.period,
        _ => f64::INFINITY,
    }
}

/// [`exact_period`] against live capacity: degraded PEs slow their
/// tasks and any seat on a dead PE reads as infeasible (`+∞`).
pub(crate) fn exact_period_with(
    g: &StreamGraph,
    spec: &CellSpec,
    avail: &Availability,
    m: &Mapping,
) -> f64 {
    match evaluate_with(g, spec, avail, m) {
        Ok(r) if r.is_feasible() => r.period,
        _ => f64::INFINITY,
    }
}

/// Run local search from several starts (e.g. both greedies and PPE-only)
/// and keep the best. The usual entry point for "the best heuristic
/// answer without the MILP". A budget in `opts` applies per start.
pub fn multi_start(
    g: &StreamGraph,
    spec: &CellSpec,
    starts: &[Mapping],
    opts: &LocalSearchOptions,
) -> (Mapping, f64) {
    assert!(!starts.is_empty(), "need at least one start");
    starts
        .iter()
        .map(|s| local_search(g, spec, s, opts))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one start")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_daggen::{chain, CostParams};
    use cellstream_platform::PeId;

    #[test]
    fn search_never_worsens() {
        let g = chain("c", 8, &CostParams::default(), 21);
        let spec = CellSpec::with_spes(3);
        let start = Mapping::all_on(&g, PeId(0));
        let start_period = exact_period(&g, &spec, &start);
        let (refined, period) = local_search(&g, &spec, &start, &LocalSearchOptions::default());
        assert!(period <= start_period);
        assert!(exact_period(&g, &spec, &refined) == period);
    }

    #[test]
    fn search_improves_ppe_only_on_offloadable_work() {
        // chain with SPE-friendly tasks: moving anything off the PPE helps
        let g = chain("c", 6, &CostParams::default(), 4);
        let spec = CellSpec::with_spes(4);
        let start = Mapping::all_on(&g, PeId(0));
        let (_, period) = local_search(&g, &spec, &start, &LocalSearchOptions::default());
        let ppe_period = exact_period(&g, &spec, &start);
        assert!(
            period < ppe_period,
            "local search should offload something: {period} vs {ppe_period}"
        );
    }

    #[test]
    fn multi_start_takes_the_best() {
        let g = chain("c", 7, &CostParams::default(), 17);
        let spec = CellSpec::with_spes(2);
        let starts = vec![
            Mapping::all_on(&g, PeId(0)),
            crate::greedy::greedy_cpu(&g, &spec),
            crate::greedy::greedy_mem(&g, &spec),
        ];
        let (_, best) = multi_start(&g, &spec, &starts, &LocalSearchOptions::default());
        for s in &starts {
            let (_, single) = local_search(&g, &spec, s, &LocalSearchOptions::default());
            assert!(best <= single + 1e-15);
        }
    }

    #[test]
    fn zero_rounds_returns_start() {
        let g = chain("c", 5, &CostParams::default(), 2);
        let spec = CellSpec::ps3();
        let start = Mapping::all_on(&g, PeId(0));
        let (m, _) = local_search(
            &g,
            &spec,
            &start,
            &LocalSearchOptions { max_rounds: 0, ..Default::default() },
        );
        assert_eq!(m, start);
    }

    #[test]
    fn zero_budget_stops_after_one_round() {
        let g = chain("c", 12, &CostParams::default(), 8);
        let spec = CellSpec::qs22();
        let start = Mapping::all_on(&g, PeId(0));
        let budgeted = LocalSearchOptions { budget: Some(Duration::ZERO), ..Default::default() };
        let (m, p) = local_search(&g, &spec, &start, &budgeted);
        // still does (at most) one full round, and never worsens
        assert!(p <= exact_period(&g, &spec, &start));
        assert_eq!(exact_period(&g, &spec, &m), p);
    }

    #[test]
    fn an_unrepresentable_deadline_is_no_deadline() {
        let g = chain("c", 12, &CostParams::default(), 8);
        let spec = CellSpec::qs22();
        let start = Mapping::all_on(&g, PeId(0));
        let unlimited = LocalSearchOptions { budget: Some(Duration::MAX), ..Default::default() };
        assert_eq!(
            local_search(&g, &spec, &start, &unlimited),
            local_search(&g, &spec, &start, &LocalSearchOptions::default())
        );
    }

    #[test]
    fn pre_cancelled_search_returns_the_start_within_one_step() {
        use cellstream_core::scheduler::CancelToken;
        // a graph big enough that one full round is ~10^4 probes: if the
        // cancel flag were only polled per round this would do real work
        let g = chain("c", 48, &CostParams::default(), 7);
        let spec = CellSpec::qs22();
        let start = Mapping::all_on(&g, PeId(0));
        let token = CancelToken::new();
        token.cancel();
        let opts = LocalSearchOptions { cancel: Some(token), ..Default::default() };
        let started = std::time::Instant::now();
        let (m, p) = local_search(&g, &spec, &start, &opts);
        // cancelled before the first single-task scan: no move applied
        assert_eq!(m, start);
        assert_eq!(p, exact_period(&g, &spec, &start));
        // and it returned within (much less than) one search round
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn cancelling_mid_search_keeps_the_best_so_far() {
        use cellstream_core::scheduler::CancelToken;
        let g = chain("c", 20, &CostParams::default(), 13);
        let spec = CellSpec::qs22();
        let start = Mapping::all_on(&g, PeId(0));
        let token = CancelToken::new();
        let opts = LocalSearchOptions { cancel: Some(token.clone()), ..Default::default() };
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            token.cancel();
        });
        let (m, p) = local_search(&g, &spec, &start, &opts);
        canceller.join().unwrap();
        // whatever was reached is valid, feasible and never worse
        assert!(p <= exact_period(&g, &spec, &start));
        assert_eq!(exact_period(&g, &spec, &m), p);
    }

    #[test]
    fn refined_period_is_the_full_evaluators() {
        // the returned period must be bit-identical to a fresh evaluate()
        let g = chain("c", 20, &CostParams::default(), 77);
        let spec = CellSpec::qs22();
        let (m, p) =
            local_search(&g, &spec, &Mapping::all_on(&g, PeId(0)), &LocalSearchOptions::default());
        let r = evaluate(&g, &spec, &m).unwrap();
        assert!(r.is_feasible());
        assert_eq!(r.period, p);
    }
}
