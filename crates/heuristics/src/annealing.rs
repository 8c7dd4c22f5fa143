//! Simulated annealing over mappings — the heaviest of the extension
//! heuristics the paper's conclusion asks for ("design involved mapping
//! heuristics which approach the optimal throughput").
//!
//! Standard Metropolis scheme on the **incremental** evaluator
//! ([`cellstream_core::EvalState`]): random single-task
//! moves are probed with an O(degree) `score_move`, accepted moves are
//! re-applied in place — no mapping clones, no full re-evaluations
//! inside the walk. Improvements are always accepted, regressions with
//! probability `exp(-Δ/temperature)`, geometric cooling. Infeasible
//! neighbours are rejected outright (the feasible region is connected
//! through the PPE, which accepts every task, so rejection cannot strand
//! the walk). Deterministic under a fixed seed.
//!
//! A proposal that [`EvalState::overfills`] — it would push an SPE's
//! buffers over the local store or seat a task on a dead PE — is
//! rejected without a probe, by the local search's capacity screen
//! (`crate::search`'s module docs). Its probe could only score `+∞`,
//! since the walk stays feasible, and an infeasible neighbour is
//! rejected before the acceptance draw and the cooling step, so the walk,
//! its random draws and its result are those of probing every proposal.
//! On `plan_paper` most proposals (40 046 of the 48 000 steps of a pass)
//! are screened. The walk polls the
//! flag of the [`Stop`] it is handed every step and its deadline every
//! 128 steps, and returns the best mapping seen when either fires,
//! with the number of steps it ran.

use crate::search::screened;
use cellstream_core::{evaluate, EvalState, Mapping, Move, Stop};
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_platform::CellSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Initial temperature as a fraction of the starting period
/// (temperature is in period units).
const T0_FRACTION: f64 = 0.2;
/// Geometric cooling factor applied every `steps/100` steps.
const COOLING: f64 = 0.93;

/// Annealing parameters.
#[derive(Debug, Clone)]
pub struct AnnealingOptions {
    /// Monte-Carlo steps.
    pub steps: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealingOptions {
    fn default() -> Self {
        AnnealingOptions { steps: 4000, seed: 0xA11EA1 }
    }
}

/// Anneal from `start` until `opts.steps` or `stop` (a raised flag ends
/// the walk at the next step, a passed deadline within 128 steps);
/// returns the best feasible mapping seen, its period (re-derived with
/// one full [`evaluate`], so the published number is exactly the
/// verifier's) and the number of steps the walk ran, rejected and
/// screened proposals included. If `start` is infeasible the walk
/// begins from PPE-only.
pub fn anneal(
    g: &StreamGraph,
    spec: &CellSpec,
    start: &Mapping,
    opts: &AnnealingOptions,
    stop: &Stop,
) -> (Mapping, f64, u32) {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let ppe_only = Mapping::all_on(g, spec.pe(0));
    let mut state = match EvalState::new(g, spec, start) {
        Ok(s) => s,
        Err(_) => EvalState::new(g, spec, &ppe_only).expect("PPE-only is structurally valid"),
    };
    if !state.is_feasible() {
        state.reset(&ppe_only).expect("PPE-only is structurally valid");
        debug_assert!(state.is_feasible(), "PPE-only is always feasible");
    }
    let mut current_p = state.period();
    let (mut best, mut best_p) = (state.mapping(), current_p);

    let mut temperature = current_p * T0_FRACTION;
    let cool_every = (opts.steps / 100).max(1);

    // `ran` counts the steps entered, `continue`d ones included
    let mut ran = 0;
    while ran < opts.steps && !stop.cancelled() && (ran % 128 != 0 || !stop.hit()) {
        ran += 1;
        // neighbour: move one random task to one random other PE
        let t = TaskId(rng.gen_range(0..g.n_tasks()));
        let mut to = spec.pe(rng.gen_range(0..spec.n_pes()));
        if to == state.pe_of(t) {
            to = spec.pe((to.index() + 1) % spec.n_pes());
            if to == state.pe_of(t) {
                continue; // single-PE platform
            }
        }
        let mv = Move::Relocate { task: t, to };
        if screened(&mut state, mv, current_p) {
            continue; // it would score +∞: an infeasible neighbour
        }
        let cand_p = state.score_move(mv);
        if !cand_p.is_finite() {
            continue; // infeasible neighbour
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
        if ran % cool_every == 0 {
            temperature *= COOLING;
        }
    }
    // publish the exact verifier period of the best mapping seen
    let exact = evaluate(g, spec, &best).expect("best mapping is valid").period;
    (best, exact, ran)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_daggen::{chain, generate, CostParams, DagGenParams};
    use cellstream_platform::PeId;
    use std::time::Duration;

    #[test]
    fn anneal_never_returns_worse_than_start() {
        let g = chain("a", 10, &CostParams::default(), 41);
        let spec = CellSpec::ps3();
        let start = Mapping::all_on(&g, PeId(0));
        let start_p = evaluate(&g, &spec, &start).unwrap().period;
        let (m, p, _) = anneal(&g, &spec, &start, &AnnealingOptions::default(), &Stop::default());
        assert!(p <= start_p + 1e-15);
        let check = evaluate(&g, &spec, &m).unwrap();
        assert!(check.is_feasible());
        assert!((check.period - p).abs() < 1e-15);
    }

    #[test]
    fn anneal_beats_plain_greedy_on_average() {
        // not a tautology: annealing explores; greedy commits. Averaged
        // over seeds it must win (or tie) on offloadable chains.
        let spec = CellSpec::qs22();
        let mut wins = 0;
        let mut ties = 0;
        for seed in 0..6u64 {
            let g = generate(
                "a",
                &DagGenParams {
                    n: 20,
                    fat: 0.5,
                    regular: 0.5,
                    density: 0.2,
                    jump: 2,
                    costs: CostParams::default(),
                },
                seed,
            )
            .unwrap();
            let greedy = crate::greedy_cpu(&g, &spec);
            let greedy_p = evaluate(&g, &spec, &greedy).unwrap().period;
            let (_, p, _) =
                anneal(&g, &spec, &greedy, &AnnealingOptions::default(), &Stop::default());
            if p < greedy_p - 1e-15 {
                wins += 1;
            } else if (p - greedy_p).abs() <= 1e-15 {
                ties += 1;
            }
        }
        assert!(wins + ties >= 5, "annealing should rarely lose: {wins} wins, {ties} ties");
        assert!(wins >= 2, "annealing should actually improve sometimes: {wins} wins");
    }

    #[test]
    fn deterministic_under_seed() {
        let g = chain("a", 8, &CostParams::default(), 13);
        let spec = CellSpec::with_spes(3);
        let start = Mapping::all_on(&g, PeId(0));
        let a = anneal(&g, &spec, &start, &AnnealingOptions::default(), &Stop::default());
        let b = anneal(&g, &spec, &start, &AnnealingOptions::default(), &Stop::default());
        assert_eq!(a.0, b.0);
        let c = anneal(
            &g,
            &spec,
            &start,
            &AnnealingOptions { seed: 9, ..Default::default() },
            &Stop::default(),
        );
        // different seed may differ (not asserted equal)
        let _ = c;
    }

    #[test]
    fn infeasible_start_falls_back_to_ppe() {
        use cellstream_graph::{StreamGraph, TaskSpec};
        let mut b = StreamGraph::builder("fat");
        let a = b.add_task(TaskSpec::new("a").uniform_cost(1e-6));
        let z = b.add_task(TaskSpec::new("z").uniform_cost(1e-6));
        b.add_edge(a, z, 500.0 * 1024.0).unwrap(); // can never sit on an SPE
        let g = b.build().unwrap();
        let spec = CellSpec::with_spes(2);
        let bad = Mapping::all_on(&g, PeId(1)); // infeasible: SPE overflow
        let (m, _, _) = anneal(
            &g,
            &spec,
            &bad,
            &AnnealingOptions { steps: 200, ..Default::default() },
            &Stop::default(),
        );
        let r = evaluate(&g, &spec, &m).unwrap();
        assert!(r.is_feasible());
    }

    #[test]
    fn pre_cancelled_anneal_returns_the_start() {
        let g = chain("a", 12, &CostParams::default(), 3);
        let spec = CellSpec::ps3();
        let start = Mapping::all_on(&g, PeId(0));
        let stop = Stop::new();
        stop.cancel();
        let opts = AnnealingOptions {
            steps: 50_000_000, // would take minutes uncancelled
            ..Default::default()
        };
        let started = std::time::Instant::now();
        let (m, p, ran) = anneal(&g, &spec, &start, &opts, &stop);
        assert_eq!(m, start, "no step taken after cancellation");
        assert_eq!(ran, 0, "a cancelled walk reports the steps it ran");
        assert!(started.elapsed() < Duration::from_secs(2));
        let r = evaluate(&g, &spec, &m).unwrap();
        assert!((r.period - p).abs() < 1e-15);
    }

    #[test]
    fn an_unrepresentable_deadline_is_no_deadline() {
        let g = chain("a", 9, &CostParams::default(), 5);
        let spec = CellSpec::ps3();
        let start = Mapping::all_on(&g, PeId(0));
        let opts = AnnealingOptions::default();
        assert_eq!(
            anneal(&g, &spec, &start, &opts, &Stop::after(Duration::MAX)),
            anneal(&g, &spec, &start, &opts, &Stop::default())
        );
    }

    #[test]
    fn zero_budget_still_returns_a_feasible_mapping() {
        let g = chain("a", 9, &CostParams::default(), 5);
        let spec = CellSpec::ps3();
        let start = Mapping::all_on(&g, PeId(0));
        let opts = AnnealingOptions::default();
        let (m, p, _) = anneal(&g, &spec, &start, &opts, &Stop::after(Duration::ZERO));
        let r = evaluate(&g, &spec, &m).unwrap();
        assert!(r.is_feasible());
        assert!((r.period - p).abs() < 1e-15);
    }
}
