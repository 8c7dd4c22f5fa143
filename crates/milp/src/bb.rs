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
//!   scratch. The root takes the same path from the best seed's basis
//!   ([`SparseLp::seeded_basis`]: the slack basis with each zero-cost
//!   `[0, 1]` column the seed holds at 1 basic in an equality row, on
//!   Linear Program (1) every task's α in its (1b) row), or from the
//!   all-slack basis when no seed survived validation. Both are dual
//!   feasible for every model the solver accepts (no negative cost
//!   without a finite upper bound — every cost of Linear Program (1) is
//!   ≥ 0), since every basic cost is 0 in both. When a basis is refused
//!   (a singular basis — a seeded pick can be one — or reduced costs no
//!   bound flip repairs) the node re-solves from the slack basis
//!   instead;
//!   [`MipResult::warm_starts`]/[`MipResult::warm_start_hits`] report
//!   how often the parent's basis held at the child nodes.
//! * **The root starts with its period bounded below.** When the
//!   objective prices exactly one column `t` (cost `c > 0`, lower bound
//!   `lo`) and a seed survived, the root solves with `t`'s lower bound
//!   raised halfway to the best seed's value, `lo + ½·(z/c − lo)` for
//!   its objective `z` — on Linear Program (1), `T ≥ ½·T_seed`. Every
//!   row that bounds a PE's load by `T` then starts violated only by
//!   what the seed's load exceeds `½·T_seed` by, instead of by the whole
//!   load, and the dual simplex spends fewer of its (mostly degenerate)
//!   pivots rebalancing load before `T` can enter. The model's bound is
//!   restored at the root's optimum: with `t` basic strictly above the
//!   raised bound the basis is already optimal without it (a bound on a
//!   basic column moves neither its primal values nor its reduced
//!   costs); with `t` at the raised bound the root re-solves from its
//!   own basis, still dual feasible since only `t`'s resting value
//!   moves; an infeasible shifted root re-solves unshifted, since a
//!   raised bound proves nothing. The shift is skipped when it would
//!   empty `t`'s domain, and no node ever sees it.
//! * **Pseudo-cost branching**: per-binary average objective degradations
//!   (up and down) learned from every solved child pick the branching
//!   variable by the product rule, replacing most-fractional.
//! * The wall-clock deadline is threaded *into* the LP pivot loops
//!   ([`LpOptions::deadline`]), so a single long node LP cannot overshoot
//!   [`MipOptions::time_limit`].
//! * Nodes fix binaries by *bound tightening* (`lo = hi ∈ {0,1}`), which the
//!   bounded-variable simplex absorbs with zero extra rows.
//! * **Lazy rows** ([`Model::add_lazy_con`]) start outside the search's
//!   LP. After each node's optimum, the root's included, every inactive
//!   lazy row is tested in its own scale at the solver's feasibility
//!   tolerance. A broken row with exactly one zero-cost continuous
//!   column is *lifted*: that column moves within its bounds until the
//!   row holds, and if the lifted point satisfies every model row it is
//!   the node's solution — same objective, so optimal for the LP with
//!   every row in. Otherwise only the *refused* rows are *activated*:
//!   the broken rows with no such column, and those whose lifted column
//!   sits in a row the lifted point breaks. The rest wait, and are tested
//!   again at the re-solved optimum. After a lift only the rows it can
//!   have broken are re-checked: the LP's rows, the broken rows, and the
//!   rows outside the LP that hold a column it moved — any other row
//!   has the activity it had at the optimum, where it held. (Debug
//!   builds hold that verdict to a check of every model row.) Activated
//!   rows are appended to the search's LP in place, in activation order
//!   (so the logical of LP row `p` stays column `n + p`): the model is
//!   validated once, when the search builds its LP, and debug builds
//!   hold the grown LP to one built from scratch over the same rows,
//!   field for field (given the root's raised bound while it is in
//!   force). Only the LP workspace is built again, for the new
//!   size. The node re-solves from its optimal basis extended by the new
//!   logicals, basic — still dual feasible, since their duals are 0. A
//!   heap node's basis that predates an activation is extended the same
//!   way when the node is popped. A point is accepted only when every
//!   model row holds, so every node's value is its LP's with every row
//!   in, and the search stays exact; [`MipResult::lazy_rows`] counts the
//!   activated rows, and [`MipResult::lp_iterations`] includes the
//!   re-solves.
//! * Callers may **seed incumbents** (e.g. greedy heuristic mappings) and
//!   provide an **integral completion** callback that rounds a fractional
//!   relaxation to a feasible point; both often let the search terminate at
//!   the root node.

use crate::model::{Constraint, LpOptions, LpStatus, Model, SolveError, VarId, VarKind};
use crate::revised::{Basis, SparseLp, SparseSolution, VState, Workspace, FEAS_TOL};
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

/// Tolerance for considering a relaxed binary integral.
const INT_TOL: f64 = 1e-6;

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
    /// Lazy rows ([`Model::add_lazy_con`]) added to the search's LP
    /// because a node's optimum broke them and the lift refused them.
    pub lazy_rows: u64,
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

    /// The estimate of a binary with no history, `(down, up)`: the
    /// average over all binaries, else 1 (which makes the product rule
    /// collapse to most-fractional). It changes only when a child is
    /// recorded, so a scan over the binaries computes it once.
    fn global(&self) -> (f64, f64) {
        let average = |side: &[(f64, u64)]| {
            let (sum, cnt) = side.iter().fold((0.0, 0u64), |(s, c), &(si, ci)| (s + si, c + ci));
            if cnt > 0 {
                sum / cnt as f64
            } else {
                1.0
            }
        };
        (average(&self.down), average(&self.up))
    }

    /// Product-rule branching score of binary `bi` at fractional part
    /// `frac` (larger = better branching candidate): each direction's
    /// observed average degradation per unit, else `global`'s.
    fn score(&self, bi: usize, frac: f64, global: (f64, f64)) -> f64 {
        let estimate = |(sum, cnt): (f64, u64), fallback: f64| {
            if cnt > 0 {
                sum / cnt as f64
            } else {
                fallback
            }
        };
        let eps = 1e-6;
        (estimate(self.down[bi], global.0) * frac).max(eps)
            * (estimate(self.up[bi], global.1) * (1.0 - frac)).max(eps)
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

/// The search's one LP and [`Workspace`]: over the model's eager rows,
/// then the lazy rows activated so far, appended in activation order —
/// so the logical of LP row `p` is column `n + p` for the whole search.
struct NodeLp {
    lp: SparseLp,
    ws: Workspace,
    /// The model row behind each LP row.
    active: Vec<usize>,
    /// Lazy rows still outside the LP.
    inactive: Vec<usize>,
    /// [`Constraint::scale`] of every model row, for [`breaks`].
    scales: Vec<f64>,
    /// Lazy rows activated so far ([`MipResult::lazy_rows`]).
    activated: u64,
    /// The root's raised lower bound `(column, bound)` while it is in
    /// force ([`NodeLp::solve_root`]).
    shift: Option<(usize, f64)>,
}

impl NodeLp {
    fn new(model: &Model) -> Result<NodeLp, SolveError> {
        let (inactive, active): (Vec<usize>, Vec<usize>) =
            (0..model.n_cons()).partition(|&i| model.cons[i].lazy);
        let lp = SparseLp::from_model_rows(model, &active)?;
        let ws = Workspace::new(&lp);
        let scales = model.cons.iter().map(Constraint::scale).collect();
        Ok(NodeLp { lp, ws, active, inactive, scales, activated: 0, shift: None })
    }

    /// [`solve_node`] on this LP, then the node's value with every model
    /// row in: while the optimum breaks inactive lazy rows (each in its
    /// own scale, at `FEAS_TOL`), [`lift`] repairs them, or the rows it
    /// refuses are appended to the LP in place and the node re-solves
    /// from its optimal basis, whose new logicals start basic (their
    /// duals are 0, so the basis stays dual feasible). The solution
    /// counts the iterations of every re-solve; the flag says whether
    /// `basis` held.
    fn solve(
        &mut self,
        model: &Model,
        fixings: &[(VarId, bool)],
        basis: &Basis,
        opts: &LpOptions,
    ) -> (Option<SparseSolution>, bool) {
        let (mut sol, held) = self.solve_from(model, fixings, basis, opts);
        while let Some(s) = sol.as_mut().filter(|s| s.status == LpStatus::Optimal) {
            let broken: Vec<usize> = self
                .inactive
                .iter()
                .copied()
                .filter(|&i| breaks(model, &self.scales, i, &s.x))
                .collect();
            if broken.is_empty() {
                break;
            }
            let refused =
                match lift(model, &self.scales, &s.x, &broken, &self.active, &self.inactive) {
                    Ok(x) => {
                        debug_assert_eq!(
                            model.objective_of(&x),
                            s.objective,
                            "a lift moves no cost"
                        );
                        s.x = x;
                        break;
                    }
                    Err(refused) => refused,
                };
            self.activated += refused.len() as u64;
            self.inactive.retain(|i| !refused.contains(i));
            self.active.extend(&refused);
            self.lp.append_rows(model, &refused);
            debug_assert!(
                SparseLp::from_model_rows(model, &self.active).is_ok_and(|mut fresh| {
                    if let Some((t, raised)) = self.shift {
                        fresh.set_bounds(t, raised, fresh.bounds(t).1);
                    }
                    fresh == self.lp
                }),
                "the LP grown in place differs from one built over its rows"
            );
            self.ws = Workspace::new(&self.lp);
            let spent = s.iterations;
            sol = self.solve_from(model, fixings, &s.basis, opts).0;
            if let Some(s) = sol.as_mut() {
                s.iterations += spent;
            }
        }
        (sol, held)
    }

    /// The root: [`NodeLp::solve`] from `basis` under `shift`, the raised
    /// lower bound `(t, raised)` of [`root_shift`], then with the model's
    /// bound restored. An optimum with `t` basic more than `FEAS_TOL`
    /// above `raised` is the unshifted LP's optimum too: the basis keeps
    /// its primal values, feasible under the looser bound, and its
    /// reduced costs. Any other optimum re-solves from its own basis,
    /// still dual feasible since only `t`'s resting value moves; an
    /// infeasible shifted LP re-solves from `basis` unshifted, since a
    /// raised bound proves nothing; a solve stopped on a limit is
    /// returned as it stopped. The solution counts every solve's
    /// iterations.
    fn solve_root(
        &mut self,
        model: &Model,
        basis: &Basis,
        shift: Option<(usize, f64)>,
        opts: &LpOptions,
    ) -> Option<SparseSolution> {
        let Some((t, raised)) = shift else {
            return self.solve(model, &[], basis, opts).0;
        };
        let (lo, hi) = model.bounds(VarId(t));
        self.lp.set_bounds(t, raised, hi);
        self.shift = shift;
        let shifted = self.solve(model, &[], basis, opts).0;
        self.lp.set_bounds(t, lo, hi);
        self.shift = None;
        let shifted = shifted?;
        let from = match shifted.status {
            LpStatus::Optimal
                if matches!(shifted.basis.state[t], VState::Basic(_))
                    && shifted.x[t] - raised > FEAS_TOL =>
            {
                return Some(shifted);
            }
            LpStatus::Optimal => &shifted.basis,
            LpStatus::Infeasible => basis,
            LpStatus::IterLimit | LpStatus::TimeLimit => return Some(shifted),
        };
        let mut sol = self.solve(model, &[], from, opts).0;
        if let Some(s) = sol.as_mut() {
            s.iterations += shifted.iterations;
        }
        sol
    }

    /// [`solve_node`] from `basis`, first extended by the logicals of
    /// the rows activated since it was optimal, each basic in its row.
    fn solve_from(
        &mut self,
        model: &Model,
        fixings: &[(VarId, bool)],
        basis: &Basis,
        opts: &LpOptions,
    ) -> (Option<SparseSolution>, bool) {
        let (n, m) = (self.lp.n_structural(), self.lp.n_rows());
        let mut extended;
        let basis = if basis.cols.len() == m {
            basis
        } else {
            extended = basis.clone();
            for pos in basis.cols.len()..m {
                extended.cols.push(n + pos);
                extended.state.push(VState::Basic(pos));
            }
            &extended
        };
        solve_node(&mut self.lp, &mut self.ws, model, fixings, basis, opts)
    }
}

/// The root's raised lower bound `(t, raised)` ([`NodeLp::solve_root`])
/// when the objective prices exactly one column `t`, at a cost `c > 0`:
/// halfway from `t`'s lower bound `lo` to the value the incumbent's
/// objective `z` gives it, `lo + ½·(z/c − lo)`. `None` for an objective
/// that prices no column or several, and when the raised bound would not
/// lie strictly above `lo` and within `t`'s upper bound.
fn root_shift(model: &Model, incumbent: f64) -> Option<(usize, f64)> {
    let mut priced = model.vars.iter().enumerate().filter(|(_, v)| v.obj != 0.0);
    let (Some((t, v)), None) = (priced.next(), priced.next()) else {
        return None;
    };
    let raised = v.lo + 0.5 * (incumbent / v.obj - v.lo);
    (v.obj > 0.0 && raised > v.lo && raised <= v.hi && raised.is_finite()).then_some((t, raised))
}

/// Whether `x` breaks model row `i` in its own scale (`scales[i]`, its
/// [`Constraint::scale`]) by more than `FEAS_TOL`.
fn breaks(model: &Model, scales: &[f64], i: usize, x: &[f64]) -> bool {
    model.cons[i].violation(x) / scales[i] > FEAS_TOL
}

/// Repair the broken lazy rows without the LP: in each, move its one
/// zero-cost continuous column within its bounds until the row holds.
/// The lifted point is returned only if it satisfies every model row (a
/// lifted column sits in other rows too) — then it has `x`'s objective
/// and is optimal for the LP with every row in. Otherwise the refused
/// rows are returned, for the LP to take: every broken row with no
/// single zero-cost continuous column, and every broken row whose
/// lifted column sits in a row the lifted point breaks. The set is never
/// empty: a row the lifted point breaks either held at `x`, so it holds
/// a lifted column, or it is a broken row with no column to lift.
///
/// `broken` lists, in increasing order, the rows of `inactive` (the
/// model rows outside the LP, increasing) that `x` breaks; `lp_rows` are
/// the LP's, and `scales` every row's [`Constraint::scale`]. Only the
/// rows the lift can have broken are checked (see [`rechecked_rows`]);
/// debug builds hold the verdict to a check of every model row.
fn lift(
    model: &Model,
    scales: &[f64],
    x: &[f64],
    broken: &[usize],
    lp_rows: &[usize],
    inactive: &[usize],
) -> Result<Vec<f64>, Vec<usize>> {
    let mut lifted = x.to_vec();
    let mut refused = Vec::new();
    let mut moved = Vec::with_capacity(broken.len());
    for &i in broken {
        let con = &model.cons[i];
        let mut free = con.terms.iter().filter(|&&(c, _)| {
            let v = &model.vars[c];
            v.kind == VarKind::Continuous && v.obj == 0.0
        });
        let (Some(&(c, a)), None) = (free.next(), free.next()) else {
            refused.push(i);
            continue;
        };
        let lhs: f64 = con.terms.iter().map(|&(j, aj)| aj * lifted[j]).sum();
        let v = &model.vars[c];
        lifted[c] = (lifted[c] + (con.rhs - lhs) / a).max(v.lo).min(v.hi);
        moved.push((i, c));
    }
    let rows = rechecked_rows(model, x, &lifted, broken, lp_rows, inactive);
    let verdict = post_lift_refusals(model, scales, &lifted, broken, &refused, &moved, rows);
    debug_assert_eq!(
        verdict,
        post_lift_refusals(model, scales, &lifted, broken, &refused, &moved, 0..model.n_cons()),
        "the restricted post-lift check disagrees with a check of every row"
    );
    match verdict {
        None => Ok(lifted),
        Some(refused) => Err(refused),
    }
}

/// The rows a lift from `x` to `lifted` can have broken, in the order
/// [`lift`] checks them: the LP's rows (`x` holds them only to the
/// LP's tolerance, not necessarily to `FEAS_TOL` in their own scale),
/// then the rows of `inactive` that `x` broke or that hold a column the
/// lift moved. Any other row holds no moved column, so its activity at
/// `lifted` is its activity at `x` bit for bit, where it held.
fn rechecked_rows<'a>(
    model: &'a Model,
    x: &'a [f64],
    lifted: &'a [f64],
    broken: &'a [usize],
    lp_rows: &'a [usize],
    inactive: &'a [usize],
) -> impl Iterator<Item = usize> + 'a {
    let moves =
        |i: usize| model.cons[i].terms.iter().any(|&(c, _)| lifted[c].to_bits() != x[c].to_bits());
    let outside =
        inactive.iter().copied().filter(move |&i| broken.binary_search(&i).is_ok() || moves(i));
    lp_rows.iter().copied().chain(outside)
}

/// Whether the lifted point breaks one of `rows`: `None` if it holds
/// them all, else the rows the LP must take — `refused` (the broken rows
/// with no column to lift) and every row of `moved` whose lifted column
/// sits in a row the lifted point breaks.
fn post_lift_refusals(
    model: &Model,
    scales: &[f64],
    lifted: &[f64],
    broken: &[usize],
    refused: &[usize],
    moved: &[(usize, usize)],
    rows: impl Iterator<Item = usize>,
) -> Option<Vec<usize>> {
    let still: Vec<_> =
        rows.filter(|&i| breaks(model, scales, i, lifted)).map(|i| &model.cons[i]).collect();
    if still.is_empty() {
        return None;
    }
    let in_still =
        |c: usize| still.iter().any(|con| con.terms.binary_search_by_key(&c, |t| t.0).is_ok());
    let mut refused = refused.to_vec();
    refused.extend(moved.iter().filter(|&&(_, c)| in_still(c)).map(|&(i, _)| i));
    debug_assert!(!refused.is_empty(), "a lift that fails must refuse a row");
    if refused.is_empty() {
        // only if rounding puts an eager row the LP holds just past
        // FEAS_TOL here; activating every broken row still makes
        // progress, where an empty set would re-solve the same LP forever
        refused.extend_from_slice(broken);
    }
    Some(refused)
}

/// Whether a seed or a completion point may become the incumbent: a
/// point of the model that breaks no row or bound by more than `1e-6`
/// (a point of the wrong length breaks them infinitely), with every
/// binary within [`INT_TOL`] of 0 or 1.
fn acceptable(model: &Model, x: &[f64], binaries: &[VarId]) -> bool {
    model.max_violation(x) <= 1e-6
        && binaries.iter().all(|v| x[v.0].abs() <= INT_TOL || (x[v.0] - 1.0).abs() <= INT_TOL)
}

/// A callback that attempts to complete a fractional relaxation into a
/// feasible integral point. Returns `(objective, full x)` on success. The
/// solver re-checks feasibility and integrality, so a buggy completion
/// can never corrupt the incumbent.
pub type Completion<'a> = dyn Fn(&[f64]) -> Option<(f64, Vec<f64>)> + 'a;

/// Solve `model` to integral optimality (within the configured gap).
///
/// `seeds` are known-feasible integral points (objective is recomputed,
/// feasibility and integrality verified: a point with a fractional
/// binary is refused, like one that breaks a row); the root starts from
/// the best one's [`SparseLp::seeded_basis`]. `completion` is invoked on
/// every node's fractional solution to harvest early incumbents.
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

    let mut node_lp = NodeLp::new(model)?;

    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    for seed in seeds {
        if acceptable(model, seed, &binaries) {
            let obj = model.objective_of(seed);
            if incumbent.as_ref().is_none_or(|(best, _)| obj < *best) {
                incumbent = Some((obj, seed.clone()));
            }
        }
    }

    // Root relaxation: the same dual path as every node (not counted as a
    // warm start — there is no parent to reuse), from the best seed's
    // basis when a seed survived, else from the slack basis. A refused
    // seeded basis re-solves from the slack basis, and validation ruled
    // out an empty domain, so that start holds. With a seed, an objective
    // that prices one column solves with that column bounded below by
    // half the seed's value (`root_shift`; on Linear Program (1)
    // `T ≥ ½·T_seed`), released at the optimum (`NodeLp::solve_root`):
    // the root's bound is the unshifted LP's, and no node sees the shift.
    let (start_basis, shift) = match &incumbent {
        Some((z, x)) => (node_lp.lp.seeded_basis(x), root_shift(model, *z)),
        None => (node_lp.lp.slack_basis(), None),
    };
    let root = node_lp.solve_root(model, &start_basis, shift, &lp_opts);
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
            lazy_rows: node_lp.activated,
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

        let (sol, held) = node_lp.solve(model, &node.fixings, &node.basis, &lp_opts);
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
                if dist > INT_TOL && parent_obj.is_finite() {
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
        lazy_rows: node_lp.activated,
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
    completion: Option<&Completion<'_>>,
    incumbent: &mut Option<(f64, Vec<f64>)>,
    heap: &mut BinaryHeap<Node>,
    fixings: Vec<(VarId, bool)>,
    basis: Rc<Basis>,
) {
    // pseudo-cost (product rule) branching among the fractional binaries
    let mut branch_var: Option<(VarId, f64)> = None;
    let mut best_score = f64::NEG_INFINITY;
    let global = pseudo.global();
    for &v in binaries {
        let frac = x[v.0] - x[v.0].floor();
        let dist = frac.min(1.0 - frac);
        if dist <= INT_TOL {
            continue;
        }
        let score = pseudo.score(bin_of[v.0], frac, global);
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
                    if acceptable(model, &full, binaries) {
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
    use crate::model::Cmp;
    use crate::revised::WarmStartError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A basis the dual simplex refuses — of the wrong shape, or not dual
    /// feasible — is re-solved from the slack basis: the node still
    /// reaches the optimum, and reports that its basis did not hold.
    #[test]
    fn a_refused_basis_re_solves_from_the_slack_basis() {
        // min 2x + y  s.t.  x + y ≥ 1: the optimum is y = 1, objective 1
        let mut m = Model::new("refused");
        let x = m.add_var(0.0, f64::INFINITY, 2.0, VarKind::Continuous);
        let y = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous);
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

    /// A seed whose two columns share the same two equality rows: the
    /// first enters the first row, the second the other, and the rows
    /// are proportional, so the seeded basis is singular. The root falls
    /// back to the slack basis and reaches the slack root's optimum, and
    /// the seeded search answers like the unseeded one.
    #[test]
    fn a_singular_seeded_basis_falls_back_to_the_slack_basis() {
        // a + b = 2, 2a + 2b = 4, and min −c s.t. a + b + c ≤ 2.5 over
        // binaries: the relaxation takes c = ½, the search c = 0
        let mut m = Model::new("singular-seed");
        let a = m.add_var(0.0, 1.0, 0.0, VarKind::Binary);
        let b = m.add_var(0.0, 1.0, 0.0, VarKind::Binary);
        let c = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
        m.add_con(vec![(a, 1.0), (b, 1.0)], Cmp::Eq, 2.0);
        m.add_con(vec![(a, 2.0), (b, 2.0)], Cmp::Eq, 4.0);
        m.add_con(vec![(a, 1.0), (b, 1.0), (c, 1.0)], Cmp::Le, 2.5);
        let seed = vec![1.0, 1.0, 0.0];
        let opts = LpOptions::default();
        let mut lp = SparseLp::from_model(&m).unwrap();
        let seeded = lp.seeded_basis(&seed);
        assert_eq!(seeded.cols, [0, 1, 5], "a enters row 0, b row 1");
        assert_eq!(lp.solve_dual_from(&seeded, &opts).err(), Some(WarmStartError::Singular));
        let slack = lp.solve_dual_from(&lp.slack_basis(), &opts).unwrap();
        let mut ws = Workspace::new(&lp);
        let (root, held) = solve_node(&mut lp, &mut ws, &m, &[], &seeded, &opts);
        let root = root.expect("the slack basis is a dual start");
        assert!(!held, "a singular basis cannot count as held");
        assert_eq!((root.status, root.objective), (LpStatus::Optimal, slack.objective));
        assert!((root.objective + 0.5).abs() < 1e-12, "{}", root.objective);
        let with_seed = solve_mip(&m, &exact(), &[seed], None).unwrap();
        let without = solve_mip(&m, &exact(), &[], None).unwrap();
        assert_eq!((with_seed.status, without.status), (MipStatus::Optimal, MipStatus::Optimal));
        assert_eq!(with_seed.incumbent, without.incumbent);
        assert_eq!(with_seed.incumbent.map(|(obj, _)| obj), Some(0.0));
    }

    fn exact() -> MipOptions {
        MipOptions { rel_gap: 0.0, abs_gap: 1e-9, ..MipOptions::default() }
    }

    /// `min −3a − 2b − 4c  s.t.  a + b + c ≤ 2` over binaries, with
    /// `a + c ≤ 1` added lazily or not: the relaxation without it takes
    /// `a = c = 1` (−7), with it `b = c = 1` (−6).
    fn knapsack(lazy: bool) -> Model {
        let mut m = Model::new("knapsack");
        let a = m.add_var(0.0, 1.0, -3.0, VarKind::Binary);
        let b = m.add_var(0.0, 1.0, -2.0, VarKind::Binary);
        let c = m.add_var(0.0, 1.0, -4.0, VarKind::Binary);
        m.add_con(vec![(a, 1.0), (b, 1.0), (c, 1.0)], Cmp::Le, 2.0);
        let row = vec![(a, 1.0), (c, 1.0)];
        if lazy {
            m.add_lazy_con(row, Cmp::Le, 1.0);
        } else {
            m.add_con(row, Cmp::Le, 1.0);
        }
        m
    }

    /// `min −a − b` over binaries with a zero-cost indicator
    /// `e ≥ a + b − 1` added lazily, and `cap` on `e` as an eager row —
    /// the shape of (1k)'s McCormick row and its DMA-slot sum.
    fn indicator(cap: f64) -> Model {
        let mut m = Model::new("indicator");
        let a = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
        let b = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
        let e = m.add_var(0.0, 1.0, 0.0, VarKind::Continuous);
        m.add_con(vec![(e, 1.0)], Cmp::Le, cap);
        m.add_lazy_con(vec![(e, 1.0), (a, -1.0), (b, -1.0)], Cmp::Ge, -1.0);
        m
    }

    /// A lazy row the optimum needs has no column to lift, so it is
    /// activated, and the search answers what the eager model answers.
    #[test]
    fn a_binding_lazy_row_is_activated_and_matches_the_eager_model() {
        let lazy = solve_mip(&knapsack(true), &exact(), &[], None).unwrap();
        let eager = solve_mip(&knapsack(false), &exact(), &[], None).unwrap();
        assert_eq!((lazy.status, eager.status), (MipStatus::Optimal, MipStatus::Optimal));
        assert_eq!(lazy.incumbent, eager.incumbent);
        assert_eq!(lazy.incumbent.map(|(obj, _)| obj), Some(-6.0));
        assert_eq!((lazy.lazy_rows, eager.lazy_rows), (1, 0));
    }

    /// A broken lazy row whose indicator can rise is repaired by the
    /// lift: the LP never carries the row, and the answer satisfies it.
    #[test]
    fn a_lift_repairs_a_broken_lazy_row_without_activating_it() {
        let m = indicator(1.0);
        let res = solve_mip(&m, &exact(), &[], None).unwrap();
        assert_eq!(res.status, MipStatus::Optimal);
        assert_eq!(res.lazy_rows, 0);
        assert_eq!(res.nodes, 1, "the lifted root is integral");
        let (obj, x) = res.incumbent.unwrap();
        assert_eq!((obj, x), (-2.0, vec![1.0, 1.0, 1.0]));
    }

    /// A lift that breaks another row (the indicator's cap) is refused:
    /// the lazy row is activated, and the optimum drops to one binary.
    #[test]
    fn a_lift_that_breaks_another_row_activates_the_row() {
        let m = indicator(0.5);
        let res = solve_mip(&m, &exact(), &[], None).unwrap();
        assert_eq!(res.status, MipStatus::Optimal);
        assert_eq!(res.lazy_rows, 1);
        let (obj, x) = res.incumbent.unwrap();
        assert_eq!(obj, -1.0);
        assert!(m.max_violation(&x) <= 1e-9, "{x:?}");
    }

    /// `min −a − b − c` over binaries with zero-cost `e, f ∈ [0, 1]`,
    /// `e ≤ ½`, and `e ≥ a + b − 1`, `f ≥ b + c − 1` lazy or not.
    fn two_indicators(lazy: bool) -> Model {
        let mut m = Model::new("two-indicators");
        let a = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
        let b = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
        let c = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
        let e = m.add_var(0.0, 1.0, 0.0, VarKind::Continuous);
        let f = m.add_var(0.0, 1.0, 0.0, VarKind::Continuous);
        m.add_con(vec![(e, 1.0)], Cmp::Le, 0.5);
        for (ind, x, y) in [(e, a, b), (f, b, c)] {
            let row = vec![(ind, 1.0), (x, -1.0), (y, -1.0)];
            if lazy {
                m.add_lazy_con(row, Cmp::Ge, -1.0);
            } else {
                m.add_con(row, Cmp::Ge, -1.0);
            }
        }
        m
    }

    /// The root breaks both lazy rows; lifting `e` breaks its cap, lifting
    /// `f` breaks nothing. Only `e`'s row is refused and activated, and
    /// the answer is the eager model's.
    #[test]
    fn a_lift_refused_in_one_row_activates_only_that_row() {
        let lazy = solve_mip(&two_indicators(true), &exact(), &[], None).unwrap();
        let eager = solve_mip(&two_indicators(false), &exact(), &[], None).unwrap();
        assert_eq!((lazy.status, eager.status), (MipStatus::Optimal, MipStatus::Optimal));
        assert_eq!(lazy.lazy_rows, 1);
        let objective = |r: &MipResult| r.incumbent.as_ref().map(|(obj, _)| *obj);
        assert_eq!(objective(&lazy), Some(-2.0));
        assert_eq!(objective(&lazy), objective(&eager));
    }

    /// A lifted column that also sits in a second inactive lazy row, one
    /// the optimum did not break: the restricted post-lift check reaches
    /// that row through the column and returns the verdict of a check of
    /// every model row. Checking the broken rows alone would accept the
    /// lifted point.
    #[test]
    fn a_lifted_column_in_a_second_inactive_row_is_rechecked() {
        // e ≥ a + b − 1 and e ≤ ½, both lazy: at a = b = 1, e = 0 only
        // the first is broken, and lifting e to 1 breaks the second
        let mut m = Model::new("second-row");
        let a = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
        let b = m.add_var(0.0, 1.0, -1.0, VarKind::Binary);
        let e = m.add_var(0.0, 1.0, 0.0, VarKind::Continuous);
        m.add_lazy_con(vec![(e, 1.0), (a, -1.0), (b, -1.0)], Cmp::Ge, -1.0);
        m.add_lazy_con(vec![(e, 1.0)], Cmp::Le, 0.5);
        let (x, lifted) = ([1.0, 1.0, 0.0], [1.0, 1.0, 1.0]);
        let (broken, inactive, moved) = ([0], [0, 1], [(0, 2)]);
        let scales: Vec<f64> = m.cons.iter().map(Constraint::scale).collect();
        let rows: Vec<usize> = rechecked_rows(&m, &x, &lifted, &broken, &[], &inactive).collect();
        assert_eq!(rows, [0, 1], "row 1 holds the lifted e");
        let verdict = |rows: &[usize]| {
            post_lift_refusals(&m, &scales, &lifted, &broken, &[], &moved, rows.iter().copied())
        };
        let full: Vec<usize> = (0..m.n_cons()).collect();
        assert_eq!(verdict(&full), Some(vec![0]));
        assert_eq!(verdict(&rows), verdict(&full));
        assert_eq!(verdict(&broken), None, "the broken row alone holds after the lift");
        assert_eq!(lift(&m, &scales, &x, &broken, &[], &inactive), Err(vec![0]));
    }

    /// A node whose stored basis predates an activation re-solves from
    /// that basis extended by the new logicals: the basis holds, and the
    /// answer is the full model's, certified with 0 for every row the LP
    /// does not carry.
    #[test]
    fn a_basis_from_before_an_activation_is_extended() {
        let m = knapsack(true);
        let opts = LpOptions::default();
        let mut lp = NodeLp::new(&m).unwrap();
        let slack = lp.lp.slack_basis();
        // the root's basis, on the eager row alone
        let root = lp.solve_from(&m, &[], &slack, &opts).0.unwrap();
        assert_eq!(root.basis.cols.len(), 1);
        // b = 0 breaks a + c ≤ 1: activated
        let (child, held) = lp.solve(&m, &[(VarId(1), false)], &root.basis, &opts);
        assert!(held);
        assert_eq!((lp.activated, lp.lp.n_rows()), (1, 2));
        assert_eq!(child.unwrap().objective, -4.0);
        // its sibling b = 1, from the one-row root basis
        let (sibling, held) = lp.solve(&m, &[(VarId(1), true)], &root.basis, &opts);
        assert!(held, "the extended basis must be a dual start");
        assert_eq!(lp.activated, 1, "the sibling activates nothing more");
        let sibling = sibling.unwrap();
        assert_eq!(sibling.status, LpStatus::Optimal);
        assert_eq!(sibling.objective, -6.0);
        let mut fixed = m.clone();
        fixed.set_bounds(VarId(1), 1.0, 1.0);
        let mut y = vec![0.0; m.n_cons()];
        for (&row, &dual) in lp.active.iter().zip(&sibling.duals) {
            y[row] = dual;
        }
        assert_eq!(fixed.certify(&sibling.x, &y, 1e-9), Ok(()));
    }

    /// A random model of Linear Program (1)'s shape, whose objective
    /// prices one column, `t ≥ 0` at cost 1: each of `k` tasks on one of
    /// `p` PEs (`Σ_i a_ki = 1`), each PE's load at most `t`, and each
    /// PE's task count capped by a lazy row. PE 0 is the fastest, so the
    /// relaxation crowds it and breaks its cap, which no column can lift.
    /// Returned with a seed: a round-robin assignment at `t` = its
    /// largest load, within every cap.
    fn one_priced_column(rng: &mut StdRng) -> (Model, Vec<f64>) {
        let (k, p) = (rng.gen_range(2..=5usize), rng.gen_range(2..=3usize));
        let mut m = Model::new("one-priced");
        let t = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous);
        let a: Vec<Vec<VarId>> = (0..k)
            .map(|_| (0..p).map(|_| m.add_var(0.0, 1.0, 0.0, VarKind::Binary)).collect())
            .collect();
        for row in &a {
            m.add_con(row.iter().map(|&v| (v, 1.0)).collect(), Cmp::Eq, 1.0);
        }
        let w: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..p).map(|i| rng.gen_range(1.0..4.0) * (1 + 2 * i) as f64).collect())
            .collect();
        let cap = k.div_ceil(p) as f64;
        for i in 0..p {
            let mut load: Vec<(VarId, f64)> = (0..k).map(|kk| (a[kk][i], w[kk][i])).collect();
            load.push((t, -1.0));
            m.add_con(load, Cmp::Le, 0.0);
            m.add_lazy_con((0..k).map(|kk| (a[kk][i], 1.0)).collect(), Cmp::Le, cap);
        }
        let offset = rng.gen_range(0..p);
        let mut x = vec![0.0; m.n_vars()];
        let mut loads = vec![0.0; p];
        for (kk, row) in a.iter().enumerate() {
            let i = (kk + offset) % p;
            x[row[i].0] = 1.0;
            loads[i] += w[kk][i];
        }
        x[t.0] = loads.iter().fold(0.0, |acc: f64, &l| acc.max(l));
        (m, x)
    }

    /// `solve_root` on a fresh search LP from `x`'s seeded basis.
    fn root_of(m: &Model, x: &[f64], shift: Option<(usize, f64)>) -> (SparseSolution, NodeLp) {
        let mut lp = NodeLp::new(m).unwrap();
        let basis = lp.lp.seeded_basis(x);
        let root = lp.solve_root(m, &basis, shift, &LpOptions::default());
        (root.expect("the slack basis is a dual start"), lp)
    }

    /// `root`'s duals on every model row: 0 on the rows its LP lacks.
    fn model_duals(m: &Model, lp: &NodeLp, root: &SparseSolution) -> Vec<f64> {
        let mut y = vec![0.0; m.n_cons()];
        for (&row, &dual) in lp.active.iter().zip(&root.duals) {
            y[row] = dual;
        }
        y
    }

    /// On random models whose objective prices one column, the root
    /// solved with that column bounded below by half the seed's value
    /// and released reaches the unshifted root's objective, certified
    /// against every model row — lazy rows activated under the shift
    /// included, which the debug build also holds to an LP built from
    /// scratch with the same raised bound. The seeded search ends at the
    /// unseeded one's optimum.
    #[test]
    fn the_shifted_root_reaches_the_unshifted_root() {
        let mut activated = 0;
        for seed in 0..128 {
            let (m, x) = one_priced_column(&mut StdRng::seed_from_u64(seed));
            let z = m.objective_of(&x);
            assert_eq!(root_shift(&m, z), Some((0, 0.5 * x[0])), "seed {seed}");
            let (shifted, lp) = root_of(&m, &x, root_shift(&m, z));
            let (plain, _) = root_of(&m, &x, None);
            assert_eq!((shifted.status, plain.status), (LpStatus::Optimal, LpStatus::Optimal));
            let tol = 1e-9 * plain.objective.abs().max(1.0);
            assert!(
                (shifted.objective - plain.objective).abs() <= tol,
                "seed {seed}: shifted {} against {}",
                shifted.objective,
                plain.objective
            );
            let y = model_duals(&m, &lp, &shifted);
            assert_eq!(m.certify(&shifted.x, &y, 1e-9), Ok(()), "seed {seed}");
            activated += lp.activated;
            let seeded = solve_mip(&m, &exact(), &[x], None).unwrap();
            let unseeded = solve_mip(&m, &exact(), &[], None).unwrap();
            assert_eq!((seeded.status, unseeded.status), (MipStatus::Optimal, MipStatus::Optimal));
            let objective = |r: &MipResult| r.incumbent.as_ref().map(|(obj, _)| *obj);
            let (with, without) = (objective(&seeded).unwrap(), objective(&unseeded).unwrap());
            assert!((with - without).abs() <= 1e-9 * without, "seed {seed}: {with} vs {without}");
        }
        assert!(activated > 0, "no shifted root activated a lazy row");
    }

    /// Three unit tasks on three identical PEs: the relaxation's optimum
    /// is `t = 1`. A seed with every task on one PE (`t = 3`) raises the
    /// bound to 1.5, above it: the shifted LP rests `t` at 1.5, and the
    /// root releases it and re-solves to 1, certified; so does the
    /// search.
    #[test]
    fn a_poor_seed_takes_the_release_path_to_the_optimum() {
        let mut m = Model::new("poor-seed");
        let t = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous);
        let a: Vec<Vec<VarId>> = (0..3)
            .map(|_| (0..3).map(|_| m.add_var(0.0, 1.0, 0.0, VarKind::Binary)).collect())
            .collect();
        for row in &a {
            m.add_con(row.iter().map(|&v| (v, 1.0)).collect(), Cmp::Eq, 1.0);
        }
        for i in 0..3 {
            let mut load: Vec<(VarId, f64)> = a.iter().map(|row| (row[i], 1.0)).collect();
            load.push((t, -1.0));
            m.add_con(load, Cmp::Le, 0.0);
        }
        let mut x = vec![0.0; m.n_vars()];
        x[t.0] = 3.0;
        for row in &a {
            x[row[0].0] = 1.0;
        }
        let shift = root_shift(&m, m.objective_of(&x));
        assert_eq!(shift, Some((0, 1.5)));
        let mut lp = SparseLp::from_model(&m).unwrap();
        lp.set_bounds(0, 1.5, f64::INFINITY);
        let held = lp.solve_dual_from(&lp.seeded_basis(&x), &LpOptions::default()).unwrap();
        assert_eq!((held.status, held.objective), (LpStatus::Optimal, 1.5));
        assert_eq!(held.basis.state[0], VState::AtLower, "t rests at the raised bound");
        let (root, lp) = root_of(&m, &x, shift);
        assert_eq!(root.status, LpStatus::Optimal);
        assert!((root.objective - 1.0).abs() < 1e-12, "{}", root.objective);
        assert!(root.iterations > held.iterations, "the release re-solve is counted");
        assert_eq!(m.certify(&root.x, &model_duals(&m, &lp, &root), 1e-9), Ok(()));
        let res = solve_mip(&m, &exact(), &[x], None).unwrap();
        assert_eq!(res.status, MipStatus::Optimal);
        assert_eq!(res.incumbent.map(|(obj, _)| obj), Some(1.0));
    }

    /// A priced column with a finite upper bound, 8, and a row that holds
    /// it to 5: an incumbent objective of 12 raises its lower bound to 6,
    /// inside its domain but past the row, so the shifted LP is
    /// infeasible. The root re-solves unshifted and reports the true
    /// optimum, `t = 2.5`.
    #[test]
    fn a_shift_that_empties_the_lp_re_solves_unshifted() {
        let mut m = Model::new("infeasible-shift");
        let t = m.add_var(0.0, 8.0, 1.0, VarKind::Continuous);
        let a = m.add_var(0.0, 1.0, 0.0, VarKind::Binary);
        let b = m.add_var(0.0, 1.0, 0.0, VarKind::Binary);
        m.add_con(vec![(a, 1.0), (b, 1.0)], Cmp::Eq, 1.0);
        m.add_con(vec![(t, 1.0), (a, -5.0)], Cmp::Ge, 0.0);
        m.add_con(vec![(t, 1.0), (b, -5.0)], Cmp::Ge, 0.0);
        m.add_con(vec![(t, 1.0)], Cmp::Le, 5.0);
        let shift = root_shift(&m, 12.0);
        assert_eq!(shift, Some((0, 6.0)));
        let mut lp = SparseLp::from_model(&m).unwrap();
        lp.set_bounds(0, 6.0, 8.0);
        let shifted = lp.solve_dual_from(&lp.slack_basis(), &LpOptions::default()).unwrap();
        assert_eq!(shifted.status, LpStatus::Infeasible);
        let x = [5.0, 1.0, 0.0];
        let (root, lp) = root_of(&m, &x, shift);
        assert_eq!(root.status, LpStatus::Optimal);
        assert!((root.objective - 2.5).abs() < 1e-12, "{}", root.objective);
        assert_eq!(m.certify(&root.x, &model_duals(&m, &lp, &root), 1e-9), Ok(()));
    }

    /// Only an objective that prices exactly one column, at a positive
    /// cost, is shifted, and only to a bound strictly above the column's
    /// own and within its domain.
    #[test]
    fn only_one_positively_priced_column_is_shifted() {
        let model = |costs: &[f64], lo: f64, hi: f64| {
            let mut m = Model::new("priced");
            for &c in costs {
                m.add_var(lo, hi, c, VarKind::Continuous);
            }
            m
        };
        let inf = f64::INFINITY;
        assert_eq!(root_shift(&model(&[0.0, 2.0, 0.0], 1.0, inf), 10.0), Some((1, 3.0)));
        assert_eq!(root_shift(&model(&[0.0, 0.0], 1.0, inf), 10.0), None, "no priced column");
        assert_eq!(root_shift(&model(&[2.0, 1.0], 1.0, inf), 10.0), None, "two priced columns");
        assert_eq!(root_shift(&model(&[-2.0], 1.0, 9.0), -10.0), None, "a negative cost");
        assert_eq!(root_shift(&model(&[2.0], 1.0, 2.5), 10.0), None, "past the upper bound");
        assert_eq!(root_shift(&model(&[2.0], 1.0, 3.0), 10.0), Some((0, 3.0)), "at it");
        assert_eq!(root_shift(&model(&[2.0], 1.0, inf), 2.0), None, "no raise");
        assert_eq!(root_shift(&model(&[1e-300], 1.0, inf), 1e300), None, "an infinite bound");
    }
}
