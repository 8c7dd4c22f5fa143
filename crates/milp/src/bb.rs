//! Branch-and-bound over binary variables, warm-started node by node.
//!
//! Mirrors the way the paper uses CPLEX (§6): *"we used the ability of
//! CPLEX to stop its computation as soon as its solution is within 5 % of
//! the optimal solution"* — [`MipOptions::rel_gap`] defaults to `0.05`
//! and the search stops as soon as
//! `(incumbent − best_bound) / |incumbent| ≤ rel_gap` or
//! `incumbent − best_bound ≤ abs_gap`.
//!
//! Design notes:
//!
//! * **Best-first** node selection (min-heap on the parent LP bound) so the
//!   global bound rises as fast as possible — that is what closes the gap.
//! * **Warm-started re-solves**: one [`SparseLp`] instance lives for the
//!   whole search; a node only edits two floats per fixing and re-solves
//!   with the **dual simplex** from its parent's basis. A branch tightens
//!   one binary's bounds, which preserves dual feasibility exactly, so a
//!   child typically needs a handful of pivots instead of a solve from
//!   scratch. The root takes the same path from the all-slack basis,
//!   which is dual feasible for every model the solver accepts (no
//!   negative cost without a finite upper bound — every cost of Linear
//!   Program (1) is ≥ 0). When a parent's basis is refused (a singular
//!   basis, or reduced costs no bound flip repairs) the node re-solves
//!   from the slack basis instead;
//!   [`MipResult::warm_starts`]/[`MipResult::warm_start_hits`] report
//!   how often the parent's basis held at the child nodes.
//! * **Pseudo-cost branching**: per-binary average objective degradations
//!   (up and down) learned from every solved child pick the branching
//!   variable by the product rule, replacing most-fractional.
//! * The wall-clock deadline is threaded *into* the LP pivot loops
//!   ([`LpOptions::deadline`]), so a single long node LP cannot overshoot
//!   [`MipOptions::time_limit`].
//! * Nodes fix binaries by *bound tightening* (`lo = hi ∈ {0,1}`), which the
//!   bounded-variable simplex absorbs with zero extra rows.
//! * Callers may **seed incumbents** (e.g. greedy heuristic mappings) and
//!   provide an **integral completion** callback that rounds a fractional
//!   relaxation to a feasible point; both often let the search terminate at
//!   the root node.

use crate::model::{LpOptions, LpStatus, Model, SolveError, VarId};
use crate::revised::{Basis, SparseLp, SparseSolution, Workspace};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// How a MIP solve terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// Incumbent proven optimal (gap ~ 0).
    Optimal,
    /// Stopped because the relative gap fell below [`MipOptions::rel_gap`].
    GapReached,
    /// Stopped on the node limit; incumbent may be sub-optimal.
    NodeLimit,
    /// Stopped on the time limit; incumbent may be sub-optimal.
    TimeLimit,
    /// Stopped because [`MipOptions::stop`] was raised; incumbent may be
    /// sub-optimal.
    Cancelled,
    /// No feasible integral point exists.
    Infeasible,
}

/// Options for [`solve_mip`].
#[derive(Debug, Clone)]
pub struct MipOptions {
    /// Relative optimality gap at which to stop (paper: 0.05).
    pub rel_gap: f64,
    /// Absolute gap `incumbent − best_bound` at which to stop.
    pub abs_gap: f64,
    /// Maximum number of explored nodes.
    pub max_nodes: u64,
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// LP sub-solver options, applied to the root solve and to every
    /// node re-solve.
    pub lp: LpOptions,
    /// Tolerance for considering a relaxed binary integral.
    pub int_tol: f64,
    /// Cooperative cancellation flag, shared with the caller: checked at
    /// every node *and* threaded into the LP pivot loops
    /// ([`LpOptions::stop`]), so raising it aborts the search within a
    /// handful of pivots, returning the incumbent with
    /// [`MipStatus::Cancelled`]. The bare atomic (rather than a richer
    /// token type) keeps this crate free of upward dependencies.
    pub stop: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl Default for MipOptions {
    fn default() -> Self {
        MipOptions {
            rel_gap: 0.05,
            abs_gap: 1e-9,
            max_nodes: 10_000,
            time_limit: Duration::from_secs(60),
            lp: LpOptions::default(),
            int_tol: 1e-6,
            stop: None,
        }
    }
}

/// Result of a MIP solve.
#[derive(Debug, Clone)]
pub struct MipResult {
    /// Termination status.
    pub status: MipStatus,
    /// Best feasible integral point found, with its objective.
    pub incumbent: Option<(f64, Vec<f64>)>,
    /// Best proven lower bound on the optimum (minimisation).
    pub best_bound: f64,
    /// Achieved relative gap (`(inc − bound)/|inc|`), `INFINITY` if no
    /// incumbent.
    pub gap: f64,
    /// Number of branch-and-bound nodes whose LP was solved.
    pub nodes: u64,
    /// Total simplex iterations across all node LPs.
    pub lp_iterations: u64,
    /// Child re-solves attempted from the parent basis (dual simplex).
    pub warm_starts: u64,
    /// Warm starts whose parent basis held (the rest re-solved from the
    /// slack basis).
    pub warm_start_hits: u64,
}

impl MipResult {
    /// Fraction of attempted warm starts that held (`1.0` when none
    /// were attempted — nothing fell back).
    pub fn warm_start_rate(&self) -> f64 {
        if self.warm_starts == 0 {
            1.0
        } else {
            self.warm_start_hits as f64 / self.warm_starts as f64
        }
    }
}

struct Node {
    bound: f64,
    fixings: Vec<(VarId, bool)>,
    /// Optimal basis of the parent LP (shared between siblings).
    basis: Rc<Basis>,
    /// `(binary index, branched up, parent objective, parent fractional
    /// part)` — for pseudo-cost updates once this node's LP is solved.
    branched: Option<(usize, bool, f64, f64)>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    // check:allow(float-ord): canonical PartialOrd-from-Ord forwarding; the
    // total order itself lives in `Ord::cmp` via `total_cmp`
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound on top.
        other.bound.total_cmp(&self.bound)
    }
}

/// Per-binary pseudo-costs: average objective degradation per unit of
/// fractionality removed, learned separately for up and down branches.
struct PseudoCosts {
    up: Vec<(f64, u64)>,
    down: Vec<(f64, u64)>,
}

impl PseudoCosts {
    fn new(n: usize) -> PseudoCosts {
        PseudoCosts { up: vec![(0.0, 0); n], down: vec![(0.0, 0); n] }
    }

    fn record(&mut self, bi: usize, went_up: bool, per_unit: f64) {
        let slot = if went_up { &mut self.up[bi] } else { &mut self.down[bi] };
        slot.0 += per_unit.max(0.0);
        slot.1 += 1;
    }

    /// Estimated degradation per unit for one direction: the observed
    /// average, else the global average over all binaries, else 1
    /// (which makes the product rule collapse to most-fractional).
    fn estimate(&self, bi: usize, up: bool) -> f64 {
        let side = if up { &self.up } else { &self.down };
        let (sum, cnt) = side[bi];
        if cnt > 0 {
            return sum / cnt as f64;
        }
        let (gsum, gcnt) = side.iter().fold((0.0, 0u64), |(s, c), &(si, ci)| (s + si, c + ci));
        if gcnt > 0 {
            gsum / gcnt as f64
        } else {
            1.0
        }
    }

    /// Product-rule branching score of binary `bi` at fractional part
    /// `frac` (larger = better branching candidate).
    fn score(&self, bi: usize, frac: f64) -> f64 {
        let eps = 1e-6;
        (self.estimate(bi, false) * frac).max(eps)
            * (self.estimate(bi, true) * (1.0 - frac)).max(eps)
    }
}

/// Solve one node on the search's long-lived [`SparseLp`], in the
/// search's one [`Workspace`]: apply the fixings as bound edits, solve
/// with the dual simplex from `basis` — the parent's optimal basis, or
/// the slack basis at the root — and restore the bounds. When `basis` is
/// refused (singular, or not dual feasible) the node re-solves from the
/// slack basis, which the model's validation makes a dual start. The
/// flag says whether `basis` held. `None` means contradictory fixings —
/// a domain the fixings emptied — so an infeasible subtree.
fn solve_node(
    lp: &mut SparseLp,
    ws: &mut Workspace,
    model: &Model,
    fixings: &[(VarId, bool)],
    basis: &Basis,
    opts: &LpOptions,
) -> (Option<SparseSolution>, bool) {
    for &(v, val) in fixings {
        let b = if val { 1.0 } else { 0.0 };
        lp.set_bounds(v.0, b, b);
    }
    let sol = match lp.solve_dual_in(ws, basis, opts) {
        Ok(s) => (Some(s), true),
        Err(_) => (lp.solve_dual_in(ws, &lp.slack_basis(), opts).ok(), false),
    };
    for &(v, _) in fixings {
        let (lo, hi) = model.bounds(v);
        lp.set_bounds(v.0, lo, hi);
    }
    sol
}

/// A callback that attempts to complete a fractional relaxation into a
/// feasible integral point. Returns `(objective, full x)` on success. The
/// solver re-checks feasibility, so a buggy completion can never corrupt
/// the incumbent.
pub type Completion<'a> = dyn Fn(&[f64]) -> Option<(f64, Vec<f64>)> + 'a;

/// Solve `model` to integral optimality (within the configured gap).
///
/// `seeds` are known-feasible integral points (objective is recomputed and
/// feasibility verified). `completion` is invoked on every node's
/// fractional solution to harvest early incumbents.
pub fn solve_mip(
    model: &Model,
    opts: &MipOptions,
    seeds: &[Vec<f64>],
    completion: Option<&Completion<'_>>,
) -> Result<MipResult, SolveError> {
    let start = Instant::now();
    let binaries = model.binary_vars();
    let mut bin_of = vec![usize::MAX; model.n_vars()];
    for (i, v) in binaries.iter().enumerate() {
        bin_of[v.0] = i;
    }
    let mut pseudo = PseudoCosts::new(binaries.len());
    let mut nodes_done: u64 = 0;
    let mut lp_iterations: u64 = 0;
    let mut warm = (0u64, 0u64);

    // thread the MIP deadline and the cancellation flag into every LP
    // pivot loop; a budget too long to add to the clock is no deadline
    let mut lp_opts = opts.lp.clone();
    if let Some(deadline) = start.checked_add(opts.time_limit) {
        lp_opts.deadline = Some(lp_opts.deadline.map_or(deadline, |d| d.min(deadline)));
    }
    if lp_opts.stop.is_none() {
        lp_opts.stop = opts.stop.clone();
    }
    let cancelled = || {
        // check:allow(atomic-ordering): lone cancellation flag, no data
        // published alongside it
        opts.stop.as_ref().is_some_and(|s| s.load(std::sync::atomic::Ordering::Relaxed))
    };

    let mut lp = SparseLp::from_model(model)?;
    let mut ws = Workspace::new(&lp);

    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    let feas_tol = 1e-6;
    for seed in seeds {
        if seed.len() == model.n_vars() && model.max_violation(seed) <= feas_tol {
            let obj = model.objective_of(seed);
            if incumbent.as_ref().is_none_or(|(best, _)| obj < *best) {
                incumbent = Some((obj, seed.clone()));
            }
        }
    }

    // Root relaxation: the same dual path as every node, from the slack
    // basis (not counted as a warm start — there is no parent to reuse).
    // Validation ruled out an empty domain, so the slack start holds.
    let slack = lp.slack_basis();
    let root = solve_node(&mut lp, &mut ws, model, &[], &slack, &lp_opts).0;
    let root = root.expect("the slack basis of a validated model is a dual start");
    lp_iterations += root.iterations;
    nodes_done += 1;
    if root.status == LpStatus::Infeasible {
        return Ok(MipResult {
            status: MipStatus::Infeasible,
            incumbent: None,
            best_bound: f64::INFINITY,
            gap: f64::INFINITY,
            nodes: nodes_done,
            lp_iterations,
            warm_starts: 0,
            warm_start_hits: 0,
        });
    }

    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    // An LP stopped on its iteration/time limit does not yield a valid
    // bound.
    let root_bound =
        if root.status == LpStatus::Optimal { root.objective } else { f64::NEG_INFINITY };
    let mut global_bound = root_bound;
    process_solution(
        model,
        &root.x,
        root_bound,
        &binaries,
        &bin_of,
        &pseudo,
        opts,
        completion,
        &mut incumbent,
        &mut heap,
        Vec::new(),
        Rc::new(root.basis),
    );

    let gap_of = |inc: &Option<(f64, Vec<f64>)>, bound: f64| -> f64 {
        match inc {
            None => f64::INFINITY,
            Some((obj, _)) => {
                if obj.abs() < 1e-30 {
                    (obj - bound).abs()
                } else {
                    (obj - bound) / obj.abs()
                }
            }
        }
    };

    let status;
    loop {
        // Global lower bound = smallest bound among open nodes (best-first:
        // the heap top), capped by the incumbent when the tree is exhausted.
        global_bound = match (heap.peek(), &incumbent) {
            (Some(n), Some((inc, _))) => n.bound.min(*inc),
            (Some(n), None) => n.bound,
            (None, Some((inc, _))) => *inc,
            (None, None) => global_bound,
        };
        let gap = gap_of(&incumbent, global_bound);
        let abs_gap = incumbent.as_ref().map_or(f64::INFINITY, |(inc, _)| inc - global_bound);
        if incumbent.is_some() && (gap <= opts.rel_gap || abs_gap <= opts.abs_gap) {
            status = if heap.is_empty() || abs_gap <= opts.abs_gap {
                MipStatus::Optimal
            } else {
                MipStatus::GapReached
            };
            break;
        }
        let Some(node) = heap.pop() else {
            status = if incumbent.is_some() { MipStatus::Optimal } else { MipStatus::Infeasible };
            break;
        };
        // prune against incumbent (within gap)
        if let Some((inc_obj, _)) = &incumbent {
            let cutoff = inc_obj - opts.rel_gap * inc_obj.abs() - opts.abs_gap;
            if node.bound >= cutoff {
                // best-first: all remaining nodes are at least as bad
                global_bound = node.bound.min(*inc_obj);
                status = MipStatus::GapReached;
                break;
            }
        }
        if nodes_done >= opts.max_nodes {
            status = MipStatus::NodeLimit;
            global_bound = node.bound;
            break;
        }
        if start.elapsed() > opts.time_limit {
            status = MipStatus::TimeLimit;
            global_bound = node.bound;
            break;
        }
        if cancelled() {
            status = MipStatus::Cancelled;
            global_bound = node.bound;
            break;
        }

        let (sol, held) = solve_node(&mut lp, &mut ws, model, &node.fixings, &node.basis, &lp_opts);
        warm.0 += 1;
        warm.1 += u64::from(held);
        let Some(sol) = sol else {
            continue;
        };
        lp_iterations += sol.iterations;
        nodes_done += 1;
        if sol.status == LpStatus::Infeasible {
            continue;
        }
        let node_bound = if sol.status == LpStatus::Optimal { sol.objective } else { node.bound };
        // pseudo-cost learning: objective degradation per unit of
        // removed fractionality, attributed to the branched direction
        if sol.status == LpStatus::Optimal {
            if let Some((bi, went_up, parent_obj, parent_frac)) = node.branched {
                let dist = if went_up { 1.0 - parent_frac } else { parent_frac };
                if dist > opts.int_tol && parent_obj.is_finite() {
                    pseudo.record(bi, went_up, (sol.objective - parent_obj) / dist);
                }
            }
        }
        if let Some((inc_obj, _)) = &incumbent {
            if sol.status == LpStatus::Optimal && sol.objective >= *inc_obj - opts.abs_gap {
                continue; // dominated
            }
        }
        process_solution(
            model,
            &sol.x,
            node_bound,
            &binaries,
            &bin_of,
            &pseudo,
            opts,
            completion,
            &mut incumbent,
            &mut heap,
            node.fixings,
            Rc::new(sol.basis),
        );
    }

    let gap = gap_of(&incumbent, global_bound);
    Ok(MipResult {
        status,
        incumbent,
        best_bound: global_bound,
        gap,
        nodes: nodes_done,
        lp_iterations,
        warm_starts: warm.0,
        warm_start_hits: warm.1,
    })
}

/// Handle one solved relaxation: record incumbents (direct integral or via
/// completion) and push child nodes when branching is needed.
#[allow(clippy::too_many_arguments)]
fn process_solution(
    model: &Model,
    x: &[f64],
    objective: f64,
    binaries: &[VarId],
    bin_of: &[usize],
    pseudo: &PseudoCosts,
    opts: &MipOptions,
    completion: Option<&Completion<'_>>,
    incumbent: &mut Option<(f64, Vec<f64>)>,
    heap: &mut BinaryHeap<Node>,
    fixings: Vec<(VarId, bool)>,
    basis: Rc<Basis>,
) {
    // pseudo-cost (product rule) branching among the fractional binaries
    let mut branch_var: Option<(VarId, f64)> = None;
    let mut best_score = f64::NEG_INFINITY;
    for &v in binaries {
        let frac = x[v.0] - x[v.0].floor();
        let dist = frac.min(1.0 - frac);
        if dist <= opts.int_tol {
            continue;
        }
        let score = pseudo.score(bin_of[v.0], frac);
        if score > best_score {
            best_score = score;
            branch_var = Some((v, frac));
        }
    }

    match branch_var {
        None => {
            // Integral! Snap and record.
            let mut snapped = x.to_vec();
            for &v in binaries {
                snapped[v.0] = snapped[v.0].round();
            }
            if model.max_violation(&snapped) <= 1e-6 {
                let obj = model.objective_of(&snapped);
                if incumbent.as_ref().is_none_or(|(best, _)| obj < *best) {
                    *incumbent = Some((obj, snapped));
                }
            }
        }
        Some((v, frac)) => {
            if let Some(complete) = completion {
                if let Some((_, full)) = complete(x) {
                    if full.len() == model.n_vars() && model.max_violation(&full) <= 1e-6 {
                        let obj = model.objective_of(&full);
                        if incumbent.as_ref().is_none_or(|(best, _)| obj < *best) {
                            *incumbent = Some((obj, full));
                        }
                    }
                }
            }
            // dive into the rounded direction first (heap ties resolve
            // arbitrarily, but the branched metadata feeds pseudo-costs)
            for val in [x[v.0] >= 0.5, x[v.0] < 0.5] {
                let mut f = fixings.clone();
                f.push((v, val));
                heap.push(Node {
                    bound: objective,
                    fixings: f,
                    basis: basis.clone(),
                    branched: Some((bin_of[v.0], val, objective, frac)),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, VarKind};
    use crate::revised::VState;

    /// A basis the dual simplex refuses — of the wrong shape, or not dual
    /// feasible — is re-solved from the slack basis: the node still
    /// reaches the optimum, and reports that its basis did not hold.
    #[test]
    fn a_refused_basis_re_solves_from_the_slack_basis() {
        // min 2x + y  s.t.  x + y ≥ 1: the optimum is y = 1, objective 1
        let mut m = Model::new("refused");
        let x = m.add_var("x", 0.0, f64::INFINITY, 2.0, VarKind::Continuous);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0, VarKind::Continuous);
        m.add_con(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let mut lp = SparseLp::from_model(&m).unwrap();
        let mut ws = Workspace::new(&lp);
        let opts = LpOptions::default();
        let wrong_shape = Basis { cols: Vec::new(), state: Vec::new() };
        // x basic in the row prices y at 1 − 2 < 0, with no upper bound
        // to flip y to
        let x_basic = Basis {
            cols: vec![0],
            state: vec![VState::Basic(0), VState::AtLower, VState::AtUpper],
        };
        for (what, basis) in [("wrong shape", wrong_shape), ("not dual feasible", x_basic)] {
            assert!(lp.solve_dual_from(&basis, &opts).is_err(), "{what}: must be refused");
            let (sol, held) = solve_node(&mut lp, &mut ws, &m, &[], &basis, &opts);
            let sol = sol.expect("the slack basis is a dual start");
            assert!(!held, "{what}: the refused basis cannot count as held");
            assert_eq!(sol.status, LpStatus::Optimal, "{what}");
            assert!((sol.objective - 1.0).abs() < 1e-12, "{what}: {}", sol.objective);
            assert_eq!(m.certify(&sol.x, &sol.duals, 1e-9), Ok(()), "{what}");
        }
    }
}
