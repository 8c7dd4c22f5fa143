//! Incremental replanning: repair an incumbent mapping after the
//! workload changes, instead of re-solving from scratch.
//!
//! The online serving regime (cf. Benoit et al., *Resource Allocation
//! for Multiple Concurrent In-Network Stream-Processing Applications*)
//! replans on every application arrival, departure and rate change.
//! Those events leave most of the workload — and most of a good mapping
//! — intact, so [`repair`] treats the incumbent as a **partial
//! assignment** and only works on the delta:
//!
//! 1. **seed** — every retained task keeps its incumbent PE;
//! 2. **place** — unseeded tasks (newly admitted applications) are
//!    inserted one by one in topological order, each onto the PE that
//!    minimises the whole mapping's period on the incremental evaluator
//!    (feasible hosts strictly preferred — the same one-pass scheme as
//!    the comm-aware greedy);
//! 3. **evict** — if the seeded seats themselves became infeasible (a
//!    reweight grew buffer footprints, say), tasks are moved off the
//!    violated SPEs onto the PPE, largest working set first, until the
//!    §3.2 constraints hold again (the PPE accepts every task, so this
//!    always terminates feasible);
//! 4. **refine** — a budgeted [`local_search`] polishes the result from
//!    the repaired seats.
//!
//! Steps 2–3 are O(K·n_PEs) probes on [`EvalState`]; step 4 is bounded
//! by the caller's budget/round cap. That is what buys the serving
//! layer's order-of-magnitude replan-latency headroom over a from-scratch
//! portfolio while staying within a few percent of its quality (the
//! `online` bench gates both).

use crate::search::{exact_period, exact_period_with, refine_in_place, LocalSearchOptions};
use cellstream_core::scheduler::{Plan, PlanContext, PlanError, PlanStats, Scheduler};
use cellstream_core::{Availability, EvalState, Mapping, Move};
use cellstream_graph::{StreamGraph, TaskId};
use cellstream_platform::{CellSpec, PeId};
use std::time::Instant;

/// Knobs for [`repair_with`] beyond the refinement pass.
#[derive(Debug, Clone, Default)]
pub struct RepairOptions {
    /// Parameters of the final [`refine_in_place`] polish (step 4).
    pub refine: LocalSearchOptions,
    /// Live platform capacity. `None` plans against the nominal
    /// platform (every PE healthy — the common case, zero overhead).
    /// `Some` overlays per-PE health: the evaluator slows tasks on
    /// degraded PEs and reads any seat on a dead PE as a §3.2
    /// violation, so placement avoids dead PEs and the evict pass
    /// evacuates seats stranded on them — fault recovery reuses the
    /// ordinary repair machinery unchanged.
    pub avail: Option<Availability>,
}

/// Repair a partial assignment into a full feasible mapping and refine
/// it. `partial[k]` is the retained PE of task `k` (`None` for tasks
/// that need placing — newly admitted work). Returns the mapping and its
/// exact verifier period (`+∞` only if even all-PPE is infeasible, which
/// cannot happen on platforms with a PPE).
///
/// Panics if `partial` and the graph disagree on length, or a retained
/// PE does not exist on `spec` — partial assignments and graphs travel
/// together, like mappings.
pub fn repair(
    g: &StreamGraph,
    spec: &CellSpec,
    partial: &[Option<PeId>],
    opts: &LocalSearchOptions,
) -> (Mapping, f64) {
    let ropts = RepairOptions { refine: opts.clone(), ..RepairOptions::default() };
    repair_with(g, spec, partial, &ropts)
}

/// [`repair`] with explicit [`RepairOptions`] (live platform capacity).
pub fn repair_with(
    g: &StreamGraph,
    spec: &CellSpec,
    partial: &[Option<PeId>],
    opts: &RepairOptions,
) -> (Mapping, f64) {
    assert_eq!(partial.len(), g.n_tasks(), "partial assignment covers every task");
    let ppe = spec.pe(0);
    // seed: retained seats; unplaced tasks start on the PPE (always legal)
    let assignment: Vec<PeId> = partial.iter().map(|p| p.unwrap_or(ppe)).collect();
    let seed = Mapping::new(g, spec, assignment).expect("retained PEs exist on this platform"); // check:allow(hot-path-panic): seed uses only PE ids the caller retained
    let mut state = match &opts.avail {
        Some(avail) => EvalState::new_with(g, spec, avail, &seed),
        None => EvalState::new(g, spec, &seed),
    }
    .expect("seed is structurally valid"); // check:allow(hot-path-panic): the just-built seed mapping is structurally valid
    repair_in_place(&mut state, partial, &opts.refine);
    // publish the exact verifier period, free of incremental drift
    let mapping = state.mapping();
    let period = match &opts.avail {
        Some(avail) => exact_period_with(g, spec, avail, &mapping),
        None => exact_period(g, spec, &mapping),
    };
    (mapping, period)
}

/// The allocation-free core of [`repair`]: re-seat a caller-owned
/// [`EvalState`] on `partial` (unplaced tasks fall back to the PPE),
/// place the delta, evict until feasible and refine — committing the
/// result into the state and returning its incremental score. This
/// performs **zero heap allocations**, the first call on a fresh state
/// included: every table of the state is sized at construction (the
/// counting-allocator suite pins it).
// check: no-alloc
pub fn repair_in_place(
    state: &mut EvalState<'_>,
    partial: &[Option<PeId>],
    refine: &LocalSearchOptions,
) -> f64 {
    let spec = state.spec();
    assert_eq!(partial.len(), state.graph().n_tasks(), "partial assignment covers every task");
    let ppe = spec.pe(0);
    // seed: retained seats; unplaced tasks start on the PPE (always legal)
    state.reseat(partial.iter().map(|p| p.unwrap_or(ppe)));

    place_delta(state, partial);

    // evict: restore feasibility if the retained seats (or a reweight)
    // broke it — move the largest working set off each violated SPE to
    // the PPE until the verifier is satisfied
    evict_until_feasible(state, spec);
    debug_assert!(state.is_feasible(), "eviction ends feasible");

    // drop the drift the committed placement/eviction moves accumulated
    // before refining, so the descent trajectory matches a fresh start
    // from the repaired seats
    state.rebase();
    #[cfg(feature = "debug_invariants")]
    state.check_invariants("repair_in_place: after eviction and rebase");
    refine_in_place(state, refine)
}

/// One seat candidate strictly beats the incumbent: feasible hosts
/// dominate infeasible ones; within a class, smaller period, then the
/// emptier host. Period ties (frequent: placements below the current
/// bottleneck all look equal) break toward the least-occupied host, so
/// fresh work spreads over idle SPEs instead of piling onto the first PE
/// probed.
fn seat_better(best: &Option<(PeId, f64, bool, f64)>, p: f64, feasible: bool, occ: f64) -> bool {
    match *best {
        None => true,
        Some((_, bp, bf, bocc)) => {
            (feasible && !bf)
                || (feasible == bf
                    && (p < bp * (1.0 - 1e-12) || (p <= bp * (1.0 + 1e-12) && occ < bocc)))
        }
    }
}

/// Place the delta tasks: topological order so producers
/// sit before consumers, each onto the best seat per [`seat_better`].
// check: no-alloc
fn place_delta(state: &mut EvalState<'_>, partial: &[Option<PeId>]) {
    let g = state.graph();
    let spec = state.spec();
    for &t in g.topo_order() {
        if partial[t.index()].is_some() {
            continue;
        }
        let mut best: Option<(PeId, f64, bool, f64)> = None;
        for to in spec.pes() {
            state.apply(Move::Relocate { task: t, to });
            let (p, feasible, occ) = (state.period(), state.is_feasible(), state.occupancy(to));
            state.undo();
            if seat_better(&best, p, feasible, occ) {
                best = Some((to, p, feasible, occ));
            }
        }
        let (to, ..) = best.expect("platforms have at least one PE"); // check:allow(hot-path-panic): every platform has at least the PPE, so the fold is non-empty
        state.apply(Move::Relocate { task: t, to });
    }
}

/// Move tasks off violated SPEs onto the PPE until constraints (1i)–(1k)
/// hold. Terminates: every step strictly shrinks the SPE-resident task
/// set, and the all-PPE mapping satisfies all three constraints.
/// Allocation-free: the violated SPE and the victim's buffer working set
/// are read straight off the live state instead of materialising a
/// report or a fresh `BufferPlan`.
// check: no-alloc
fn evict_until_feasible(state: &mut EvalState<'_>, spec: &CellSpec) {
    let g = state.graph();
    let ppe = spec.pe(0);
    while !state.is_feasible() {
        let Some(pe) = state.first_violated_spe() else {
            break; // defensive: is_feasible and the scan disagree
        };
        // largest buffer working set first: frees the most memory (and
        // its DMA slots) per move
        let victim = g
            .task_ids()
            .filter(|&t| state.pe_of(t) == pe)
            .max_by(|&a, &b| state.task_buffer_bytes(a).total_cmp(&state.task_buffer_bytes(b)))
            .expect("a violated SPE hosts at least one task"); // check:allow(hot-path-panic): a violated SPE cannot be empty: zero tasks means zero load
        state.apply(Move::Relocate { task: victim, to: ppe });
    }
}

/// [`repair`] as a registry [`Scheduler`] (`"repair"`).
///
/// The trait's [`PlanContext`] carries full mappings of the *current*
/// graph, so the partial assignment is derived from the first seed:
/// every task keeps its seed PE, and with no seed at all every task is
/// "new" — repair degrades to its one-pass placement + refinement, a
/// self-contained constructive heuristic. The serving layer calls
/// [`repair`] directly with a name-matched partial instead.
#[derive(Debug, Clone, Default)]
pub struct RepairScheduler {
    /// Refinement parameters (step 4).
    pub opts: LocalSearchOptions,
}

impl Scheduler for RepairScheduler {
    fn name(&self) -> &str {
        "repair"
    }

    fn plan(&self, g: &StreamGraph, spec: &CellSpec, ctx: &PlanContext) -> Result<Plan, PlanError> {
        let started = Instant::now();
        let partial: Vec<Option<PeId>> =
            match ctx.seeds.iter().find(|m| m.validate(g, spec).is_ok()) {
                Some(m) => m.assignment().iter().map(|&pe| Some(pe)).collect(),
                None => vec![None; g.n_tasks()],
            };
        let opts = crate::schedulers::search_opts_for(&self.opts, ctx);
        let (mapping, _) = repair(g, spec, &partial, &opts);
        Plan::from_mapping(
            self.name(),
            g,
            spec,
            mapping,
            PlanStats::Search { iterations: 0 },
            started.elapsed(),
        )
    }
}

/// Derive the partial assignment for [`repair`] by carrying an incumbent
/// mapping of one graph over to another version of it: tasks are matched
/// by name (stable across `Workload` recompositions), tasks without a
/// namesake — or whose retained PE no longer exists — come back `None`.
pub fn carry_over(
    old_g: &StreamGraph,
    old_m: &Mapping,
    new_g: &StreamGraph,
    spec: &CellSpec,
) -> Vec<Option<PeId>> {
    let mut out = Vec::with_capacity(new_g.n_tasks());
    carry_over_into(old_g, old_m, new_g, spec, &mut out);
    out
}

/// [`carry_over`] into a caller-owned buffer: `out` is cleared and
/// refilled, so an event loop reuses one seat vector across replans
/// instead of allocating a fresh one per event.
pub fn carry_over_into(
    old_g: &StreamGraph,
    old_m: &Mapping,
    new_g: &StreamGraph,
    spec: &CellSpec,
    out: &mut Vec<Option<PeId>>,
) {
    use std::collections::HashMap;
    assert_eq!(old_m.assignment().len(), old_g.n_tasks(), "incumbent/graph mismatch");
    let old_by_name: HashMap<&str, TaskId> =
        old_g.tasks().iter().enumerate().map(|(i, t)| (t.name.as_str(), TaskId(i))).collect();
    out.clear();
    out.extend(new_g.tasks().iter().map(|t| {
        old_by_name
            .get(t.name.as_str())
            .map(|&id| old_m.pe_of(id))
            .filter(|pe| pe.index() < spec.n_pes())
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstream_core::evaluate;
    use cellstream_daggen::{chain, fork_join, CostParams};
    use cellstream_graph::Workload;

    #[test]
    fn full_partial_keeps_feasible_seats() {
        let g = chain("c", 8, &CostParams::default(), 5);
        let spec = CellSpec::ps3();
        let seed = crate::greedy_cpu(&g, &spec);
        let seed_p = evaluate(&g, &spec, &seed).unwrap().period;
        let partial: Vec<_> = seed.assignment().iter().map(|&p| Some(p)).collect();
        let (m, p) = repair(&g, &spec, &partial, &LocalSearchOptions::default());
        assert!(p <= seed_p + 1e-15, "repair never worsens a feasible incumbent");
        assert!(evaluate(&g, &spec, &m).unwrap().is_feasible());
    }

    #[test]
    fn empty_partial_is_a_constructive_heuristic() {
        let g = fork_join("fj", 3, &CostParams::default(), 7);
        let spec = CellSpec::ps3();
        let (m, p) = repair(&g, &spec, &vec![None; g.n_tasks()], &LocalSearchOptions::default());
        let r = evaluate(&g, &spec, &m).unwrap();
        assert!(r.is_feasible());
        assert!((r.period - p).abs() < 1e-15);
        // never worse than all-on-PPE (its own fallback seat)
        let ppe = evaluate(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap().period;
        assert!(p <= ppe + 1e-15);
    }

    #[test]
    fn eviction_restores_feasibility_from_broken_seats() {
        use cellstream_graph::{StreamGraph, TaskSpec};
        use cellstream_platform::{ByteSize, CellSpecBuilder};
        // one tiny SPE; two fat-edged tasks pinned on it are infeasible
        let spec = CellSpecBuilder::default()
            .spes(1)
            .local_store(ByteSize::kib(128))
            .code_size(ByteSize::kib(64))
            .build()
            .unwrap();
        let mut b = StreamGraph::builder("fat");
        let a = b.add_task(TaskSpec::new("a").uniform_cost(1e-6));
        let z = b.add_task(TaskSpec::new("z").uniform_cost(1e-6));
        b.add_edge(a, z, 64.0 * 1024.0).unwrap();
        let g = b.build().unwrap();
        let partial = vec![Some(PeId(1)), Some(PeId(1))]; // both on the SPE
        let (m, p) = repair(&g, &spec, &partial, &LocalSearchOptions::default());
        let r = evaluate(&g, &spec, &m).unwrap();
        assert!(r.is_feasible(), "repair must evict until feasible");
        assert!(p.is_finite());
    }

    #[test]
    fn carry_over_matches_by_name_across_versions() {
        let a = chain("a", 3, &CostParams::default(), 1);
        let b = chain("b", 2, &CostParams::default(), 2);
        let spec = CellSpec::ps3();
        let old_w = Workload::compose("w", &[&a]).unwrap();
        let old_m = Mapping::new(old_w.graph(), &spec, vec![PeId(1), PeId(2), PeId(0)]).unwrap();
        let mut new_w = old_w.clone();
        new_w.add(&b, 1.0).unwrap();
        let partial = carry_over(old_w.graph(), &old_m, new_w.graph(), &spec);
        assert_eq!(
            partial,
            vec![Some(PeId(1)), Some(PeId(2)), Some(PeId(0)), None, None],
            "retained tasks keep seats, admitted tasks are unplaced"
        );
        let (m, p) = repair(new_w.graph(), &spec, &partial, &LocalSearchOptions::default());
        assert!(p.is_finite());
        assert!(evaluate(new_w.graph(), &spec, &m).unwrap().is_feasible());
    }

    #[test]
    fn repair_in_place_reuses_one_state_across_deltas() {
        // the serving shape: one EvalState, successive partials on the
        // same composed graph — each in-place pass must match a from-
        // scratch repair of the same partial
        let g = fork_join("fj", 5, &CostParams::default(), 11);
        let spec = CellSpec::ps3();
        let opts = LocalSearchOptions::default();
        let seed = Mapping::all_on(&g, PeId(0));
        let mut state = EvalState::new(&g, &spec, &seed).unwrap();
        for round in 0..4 {
            // retain a sliding window of seats, leave the rest unplaced
            let partial: Vec<Option<PeId>> = (0..g.n_tasks())
                .map(|k| ((k + round) % 3 != 0).then(|| spec.pe((k + round) % spec.n_pes())))
                .collect();
            let score = repair_in_place(&mut state, &partial, &opts);
            let (fresh, fresh_p) = repair(&g, &spec, &partial, &opts);
            assert_eq!(state.mapping(), fresh, "round {round}");
            assert!(state.is_feasible());
            assert!((score - fresh_p).abs() <= 1e-9 * fresh_p.max(1e-12), "round {round}");
        }
    }

    #[test]
    fn repair_evacuates_dead_pes_and_avoids_them() {
        // kill an SPE under an incumbent that seats work there: the
        // repaired mapping must hold zero seats on the dead PE and stay
        // feasible on the degraded platform
        let g = chain("c", 8, &CostParams::default(), 5);
        let spec = CellSpec::ps3();
        let seed = crate::greedy_cpu(&g, &spec);
        let dead = seed
            .assignment()
            .iter()
            .copied()
            .find(|pe| pe.index() > 0)
            .expect("greedy seats something on an SPE");
        let mut avail = Availability::full(&spec);
        avail.fail(dead);
        let partial: Vec<_> = seed.assignment().iter().map(|&p| Some(p)).collect();
        let opts = RepairOptions { avail: Some(avail.clone()), ..RepairOptions::default() };
        let (m, p) = repair_with(&g, &spec, &partial, &opts);
        assert!(p.is_finite(), "recovery must find a live plan");
        assert!(m.assignment().iter().all(|pe| *pe != dead), "no seat survives on the dead PE");
        let r = cellstream_core::evaluate_with(&g, &spec, &avail, &m).unwrap();
        assert!(r.is_feasible());
        assert!((r.period - p).abs() < 1e-15);
        // fresh placements (no partial) must also avoid the dead PE
        let (m2, p2) = repair_with(&g, &spec, &vec![None; g.n_tasks()], &opts);
        assert!(p2.is_finite());
        assert!(m2.assignment().iter().all(|pe| *pe != dead));
    }

    #[test]
    fn degraded_pe_shifts_work_elsewhere() {
        // a half-speed SPE is still usable but less attractive; the
        // repaired plan must score with the slowdown applied
        let g = fork_join("fj", 4, &CostParams::default(), 3);
        let spec = CellSpec::ps3();
        let mut avail = Availability::full(&spec);
        avail.set_factor(spec.pe(1), 0.5);
        let opts = RepairOptions { avail: Some(avail.clone()), ..RepairOptions::default() };
        let (m, p) = repair_with(&g, &spec, &vec![None; g.n_tasks()], &opts);
        let r = cellstream_core::evaluate_with(&g, &spec, &avail, &m).unwrap();
        assert!(r.is_feasible());
        assert!((r.period - p).abs() < 1e-15, "published period scores live capacity");
    }

    #[test]
    fn scheduler_wrapper_uses_the_first_seed() {
        let g = chain("c", 6, &CostParams::default(), 9);
        let spec = CellSpec::with_spes(2);
        let seed = crate::greedy_mem(&g, &spec);
        let seed_p = evaluate(&g, &spec, &seed).unwrap().period;
        let ctx = PlanContext::default().seed(seed);
        let plan = RepairScheduler::default().plan(&g, &spec, &ctx).unwrap();
        assert!(plan.is_feasible());
        assert!(plan.period() <= seed_p + 1e-15);
        assert_eq!(plan.scheduler, "repair");
        // and with no seed it still plans
        let plan = RepairScheduler::default().plan(&g, &spec, &PlanContext::default()).unwrap();
        assert!(plan.is_feasible());
    }
}
