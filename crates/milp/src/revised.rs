//! Sparse revised simplex with bounded variables — the LP engine behind
//! [`Model::solve_lp`] and branch-and-bound. It is a **dual simplex**
//! only ([`SparseLp::solve_dual_from`]): from the all-slack basis or a
//! seed's ([`SparseLp::seeded_basis`]) at a root, from the parent's
//! basis at a branch-and-bound child.
//!
//! * the constraint matrix lives in compressed sparse columns
//!   ([`crate::sparse::ColMatrix`]) built straight from the model's row
//!   triplets, with a row-wise copy beside them for the pivot row — the
//!   matrix is never densified; the entering column, the pivot-row
//!   multipliers and the duals are dense length-`m` vectors;
//! * the basis is LU-factorized with Forrest–Tomlin updates and
//!   periodic refactorization ([`crate::factor`]);
//! * the leaving row is the most bound-violating basic variable, read
//!   from the set of violated positions (`InfeasibleSet`); the ratio
//!   test is a one-pass Harris test over the pivot row, with a Bland
//!   rule (lowest column index) after a run of degenerate pivots;
//! * variables keep their **native bounds** `l ≤ x ≤ u` (no shift), so
//!   a branch-and-bound bound tightening is a two-float edit and the
//!   parent basis stays meaningful: a branch keeps the parent's basis
//!   dual feasible, so a child re-solves in a handful of pivots.
//!
//! The slack basis is dual feasible for every model
//! [`SparseLp::from_model`] accepts: a negative cost needs a finite
//! upper bound to rest its column on, and every lower bound is finite.
//! So there is no phase 1 and no primal simplex; an optimal answer
//! carries row duals ([`SparseSolution::duals`]) that
//! [`Model::certify`] checks against the model's own rows.

use crate::factor::Factorization;
use crate::model::{Cmp, Constraint, LpOptions, LpStatus, Model, SolveError};
use crate::sparse::{ColMatrix, SparseAcc};
use crate::stop::Stop;

/// Where a column currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VState {
    /// In the basis, at this position.
    Basic(usize),
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
}

/// A simplex basis: which column sits at each of the `m` basis
/// positions, plus the resting state of every column. Cheap to clone —
/// branch-and-bound shares parent bases between sibling nodes.
#[derive(Debug, Clone)]
pub struct Basis {
    /// `cols[position] = column`.
    pub cols: Vec<usize>,
    /// State of all `n + m` columns (structural then logical).
    pub state: Vec<VState>,
}

/// Result of an LP solve, with the final basis for warm starts.
#[derive(Debug, Clone)]
pub struct SparseSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value (`∞` when infeasible).
    pub objective: f64,
    /// Structural variable values, model order.
    pub x: Vec<f64>,
    /// Row duals `y` in the LP's row order (the model's for
    /// [`SparseLp::from_model`]), for `Optimal` only (empty
    /// otherwise): `c_B B⁻¹` unscaled back to the model's rows, so the
    /// reduced cost of variable `j` is `c_j − Σ_i y_i a_ij` —
    /// [`Model::certify`] checks them.
    pub duals: Vec<f64>,
    /// Simplex iterations used.
    pub iterations: u64,
    /// Final basis (meaningful for `Optimal`/`IterLimit`).
    pub basis: Basis,
}

/// Why a dual start was refused (branch-and-bound then re-solves from
/// the slack basis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmStartError {
    /// The supplied basis does not match this problem's dimensions.
    Mismatch,
    /// The basis matrix is singular under the new bounds.
    Singular,
    /// Reduced costs are not dual-feasible and no bound flip fixes them.
    DualInfeasible,
}

/// A model standardised for the revised simplex: CSC columns
/// (structural + one logical per row) with a row-wise copy beside them,
/// native bounds, equilibrated rows. Bounds are mutable
/// ([`SparseLp::set_bounds`]) so branch-and-bound can fix binaries
/// without rebuilding anything, and branch-and-bound appends the rows
/// it activates in place.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseLp {
    m: usize,
    n: usize,
    /// `n + m` columns: structural, then logical `j = n + row`.
    mat: ColMatrix,
    /// `mat` transposed — column `i` is row `i`, entries in increasing
    /// column order: what the pivot-row kernel walks.
    rows: ColMatrix,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Phase-2 costs (zero on logicals).
    cost: Vec<f64>,
    /// Row right-hand sides (equilibrated).
    rhs: Vec<f64>,
    /// The equilibration factor of every row: model row `i` times
    /// `scale[i]` is row `i` here.
    scale: Vec<f64>,
}

pub(crate) const FEAS_TOL: f64 = 1e-7;
const PIVOT_TOL: f64 = 1e-10;
/// Dual feasibility tolerance: the Harris ratio test's relaxation.
const DUAL_TOL: f64 = 1e-8;
const DEGENERATE_RUN_FOR_BLAND: u32 = 48;
const REFRESH_EVERY: u64 = 256;
const DEADLINE_EVERY: u64 = 32;

impl SparseLp {
    /// Standardise `model`; errors are exactly those of the model's own
    /// validation (bad bound, empty domain, non-finite coefficient, a
    /// negative cost on a column with no finite upper bound).
    pub fn from_model(model: &Model) -> Result<SparseLp, SolveError> {
        let all: Vec<usize> = (0..model.cons.len()).collect();
        SparseLp::from_model_rows(model, &all)
    }

    /// [`SparseLp::from_model`] over the model rows `rows` only, in that
    /// order: row `p` here (and its logical, column `n + p`) is model row
    /// `rows[p]`, and so are the solution's duals. Appending rows keeps
    /// every earlier logical's index, which is what lets
    /// branch-and-bound extend an optimal basis with the slacks of rows
    /// it activates. The whole model is validated, lazy rows included.
    pub(crate) fn from_model_rows(model: &Model, rows: &[usize]) -> Result<SparseLp, SolveError> {
        let n = model.vars.len();
        let m = rows.len();
        model.validate()?;
        let (mut scale, mut rhs) = (Vec::with_capacity(m), Vec::with_capacity(m));
        let scaled: Vec<Vec<(usize, f64)>> = rows
            .iter()
            .enumerate()
            .map(|(p, &r)| {
                let con = &model.cons[r];
                let (s, row) = scaled_row(con, n + p);
                scale.push(s);
                rhs.push(con.rhs * s);
                row
            })
            .collect();
        let mat = ColMatrix::from_rows(m, n + m, || scaled.iter().map(|r| r.as_slice()));
        let rows_t = mat.transpose();

        let mut lower = Vec::with_capacity(n + m);
        let mut upper = Vec::with_capacity(n + m);
        let mut cost = vec![0.0; n + m];
        for (j, v) in model.vars.iter().enumerate() {
            lower.push(v.lo);
            upper.push(v.hi.max(v.lo));
            cost[j] = v.obj;
        }
        for &r in rows {
            let (lo, hi) = logical_bounds(model.cons[r].cmp);
            lower.push(lo);
            upper.push(hi);
        }
        Ok(SparseLp { m, n, mat, rows: rows_t, lower, upper, cost, rhs, scale })
    }

    /// Append the model rows `rows` after this LP's, in place, with no
    /// second validation of the model: the LP is then
    /// [`SparseLp::from_model_rows`] over its old rows followed by
    /// `rows`, field for field, and every earlier logical keeps its
    /// column. Structural bounds must be the model's (no fixing in
    /// force), but for branch-and-bound's root shift, the raised lower
    /// bound on the priced column it solves its root with: a caller that
    /// compares this LP with one built over the same rows applies the
    /// same raised bound to that one first.
    pub(crate) fn append_rows(&mut self, model: &Model, rows: &[usize]) {
        let (n, m) = (self.n, self.m);
        let scaled: Vec<Vec<(usize, f64)>> = rows
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let con = &model.cons[r];
                let (s, row) = scaled_row(con, n + m + i);
                let (lo, hi) = logical_bounds(con.cmp);
                self.scale.push(s);
                self.rhs.push(con.rhs * s);
                self.lower.push(lo);
                self.upper.push(hi);
                self.cost.push(0.0);
                row
            })
            .collect();
        self.m += rows.len();
        self.mat.append_rows(n + self.m, &scaled);
        self.rows.append_cols(n + self.m, &scaled);
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.m
    }

    /// Number of structural columns.
    pub fn n_structural(&self) -> usize {
        self.n
    }

    /// Stored nonzeros (structural + logical).
    pub fn nnz(&self) -> usize {
        self.mat.nnz()
    }

    /// Current bounds of structural column `j`.
    pub fn bounds(&self, j: usize) -> (f64, f64) {
        (self.lower[j], self.upper[j])
    }

    /// Overwrite the bounds of structural column `j` (branch-and-bound
    /// fixings). The matrix and factorizations are untouched.
    pub fn set_bounds(&mut self, j: usize, lo: f64, hi: f64) {
        debug_assert!(j < self.n, "only structural bounds are mutable");
        self.lower[j] = lo;
        self.upper[j] = hi;
    }

    /// Run the bounded-variable dual simplex from `basis`: the slack
    /// basis ([`SparseLp::slack_basis`]) for a solve from scratch, or the
    /// parent node's optimal basis, which makes a re-solve fast when only
    /// bounds changed since it was optimal — the branch-and-bound case.
    /// Refuses with a [`WarmStartError`] a basis it cannot start from
    /// instead of guessing. Nothing but `opts` ends the solve early.
    pub fn solve_dual_from(
        &self,
        basis: &Basis,
        opts: &LpOptions,
    ) -> Result<SparseSolution, WarmStartError> {
        self.solve_dual_in(&mut Workspace::new(self), basis, opts, &Stop::default())
    }

    /// [`SparseLp::solve_dual_from`] in the caller's buffers, ended
    /// early with [`LpStatus::TimeLimit`] once `stop` fires: the pivot
    /// loop polls it, so one long LP cannot overshoot a branch-and-bound
    /// budget by more than a few pivots.
    pub(crate) fn solve_dual_in(
        &self,
        ws: &mut Workspace,
        basis: &Basis,
        opts: &LpOptions,
        stop: &Stop,
    ) -> Result<SparseSolution, WarmStartError> {
        if self.empty_domain() {
            return Err(WarmStartError::Mismatch);
        }
        let mut s = Simplex::new(self, opts, ws);
        s.init_from_basis(basis)?;
        let status = s.dual(stop);
        Ok(s.finish(status))
    }

    /// The all-slack basis: every logical basic in its own row, every
    /// structural resting at its bound nearest zero. Its reduced costs
    /// are the costs themselves, so a dual start from it
    /// ([`SparseLp::solve_dual_from`]) holds whenever every column its
    /// cost pulls off that bound has a finite bound to flip to — for
    /// every model [`SparseLp::from_model`] accepts, as long as no bound
    /// edit has emptied a domain.
    pub fn slack_basis(&self) -> Basis {
        let (n, m) = (self.n, self.m);
        let mut state = vec![VState::AtLower; n + m];
        for ((s, &lo), &hi) in state[..n].iter_mut().zip(&self.lower).zip(&self.upper) {
            // rest at the finite bound closer to zero (both exist is the
            // common case: binaries); lower is always finite per model
            *s = if hi.is_finite() && hi.abs() < lo.abs() {
                VState::AtUpper
            } else {
                VState::AtLower
            };
        }
        for (pos, j) in (n..n + m).enumerate() {
            state[j] = VState::Basic(pos);
        }
        Basis { cols: (n..n + m).collect(), state }
    }

    /// The slack basis with the columns of a known point `x` (one entry
    /// per structural) made basic: in column order, each zero-cost
    /// column with bounds `[0, 1]` that `x` holds at 1 enters the first
    /// equality row that holds it and whose logical is still basic, and
    /// that logical leaves at its fixed bound. Every basic cost is then
    /// 0, so the duals are 0 and the reduced costs the costs: the basis
    /// is exactly as dual feasible as the slack basis. On Linear Program
    /// (1) that puts each task's α at 1 basic in its (1b) row. Nothing
    /// here checks the pick; a singular one is refused by the solve like
    /// any other basis.
    pub fn seeded_basis(&self, x: &[f64]) -> Basis {
        let n = self.n;
        let mut basis = self.slack_basis();
        for (j, &xj) in x.iter().enumerate().take(n) {
            if xj != 1.0 || self.cost[j] != 0.0 || (self.lower[j], self.upper[j]) != (0.0, 1.0) {
                continue;
            }
            let equality_slack = |r: usize| {
                (self.lower[n + r], self.upper[n + r]) == (0.0, 0.0)
                    && basis.state[n + r] == VState::Basic(r)
            };
            if let Some(r) = self.mat.col(j).0.iter().copied().find(|&r| equality_slack(r)) {
                basis.cols[r] = j;
                basis.state[j] = VState::Basic(r);
                basis.state[n + r] = VState::AtLower;
            }
        }
        basis
    }

    fn empty_domain(&self) -> bool {
        (0..self.n + self.m).any(|j| self.lower[j] > self.upper[j] + 1e-12)
    }

    fn ncols(&self) -> usize {
        self.n + self.m
    }
}

/// Row equilibration of model row `con` as the LP row whose logical is
/// column `logical`: its factor, scaling the row to unit max
/// coefficient magnitude (positive, so the comparison keeps its
/// direction), and its scaled terms followed by the logical. The
/// logical's coefficient stays +1: the scaled slack just absorbs the row
/// scale, and its sign bounds are invariant under positive scaling.
fn scaled_row(con: &Constraint, logical: usize) -> (f64, Vec<(usize, f64)>) {
    let scale = match con.magnitude() {
        mag if mag > 0.0 => 1.0 / mag,
        _ => 1.0,
    };
    let mut row = Vec::with_capacity(con.terms.len() + 1);
    row.extend(con.terms.iter().map(|&(c, a)| (c, a * scale)));
    row.push((logical, 1.0));
    (scale, row)
}

/// The bounds of a row's logical: its sign by the row's comparison.
fn logical_bounds(cmp: Cmp) -> (f64, f64) {
    match cmp {
        Cmp::Le => (0.0, f64::INFINITY),
        Cmp::Ge => (f64::NEG_INFINITY, 0.0),
        Cmp::Eq => (0.0, 0.0),
    }
}

/// The buffers a solve works in, sized for one [`SparseLp`]. A solve
/// initialises everything it reads, so a workspace can be handed from
/// solve to solve — branch-and-bound keeps one for the whole search —
/// and the pivot loop allocates nothing.
#[derive(Debug)]
pub(crate) struct Workspace {
    factor: Factorization,
    /// `basis[position] = column`.
    basis: Vec<usize>,
    state: Vec<VState>,
    /// Values of the basic variables by position.
    beta: Vec<f64>,
    /// Reduced costs, updated from the pivot row.
    dvec: Vec<f64>,
    /// Bounds of the basic column at each position.
    basic_lo: Vec<f64>,
    basic_hi: Vec<f64>,
    /// Columns whose bounds coincide in this solve.
    fixed: Vec<bool>,
    /// Dense length-`m` buffers: entering column / pivot row / duals
    /// and right-hand side.
    wbuf: Vec<f64>,
    rbuf: Vec<f64>,
    ybuf: Vec<f64>,
    /// Non-zero positions of the entering column, increasing. Between
    /// pivots `wbuf` is zero everywhere else and `rbuf` everywhere.
    wnz: Vec<usize>,
    /// The pivot row: accumulator over all columns, then the entries
    /// that count as `(column, α_rj)`.
    acc: SparseAcc,
    alpha_row: Vec<(usize, f64)>,
    /// The dual ratio test's eligible entries of the pivot row:
    /// `(column, α_rj, |d_j| / |α_rj|)`.
    candidates: Vec<(usize, f64, f64)>,
    /// The basis positions outside their bounds.
    infeasible: InfeasibleSet,
}

/// The basis positions whose value violates a bound by more than
/// `FEAS_TOL`, each with its violation — where the dual simplex takes its
/// leaving row. A pivot or a bound flip moves only the values at the
/// entering column's non-zero positions (and the bounds at the pivot
/// position), so the set is refreshed there and rebuilt only when every
/// value is recomputed; the leaving row is then read from the violated
/// positions instead of a scan over all `m`.
#[derive(Debug)]
pub(crate) struct InfeasibleSet {
    /// `(position, violation, below its lower bound)`, in no particular
    /// order, behind a placeholder at index 0.
    members: Vec<(usize, f64, bool)>,
    /// `slot[pos]`: index of `pos` in `members`, 0 if absent — so that
    /// the common refresh, a position that stays what it was, is one
    /// unconditional store (into the placeholder when absent).
    slot: Vec<usize>,
}

impl InfeasibleSet {
    pub(crate) fn new(m: usize) -> InfeasibleSet {
        let mut members = Vec::with_capacity(m + 1);
        members.push((usize::MAX, 0.0, false));
        InfeasibleSet { members, slot: vec![0; m] }
    }

    /// Recompute every position.
    pub(crate) fn rebuild(&mut self, beta: &[f64], lo: &[f64], hi: &[f64]) {
        for &(pos, ..) in &self.members[1..] {
            self.slot[pos] = 0;
        }
        self.members.truncate(1);
        for pos in 0..beta.len() {
            self.refresh(pos, beta, lo, hi);
        }
    }

    /// Re-read position `pos` after its value or bounds moved: the test
    /// the dense scan made there (a value cannot lie both below `lo` and
    /// above `hi` by more than the tolerance).
    pub(crate) fn refresh(&mut self, pos: usize, beta: &[f64], lo: &[f64], hi: &[f64]) {
        let (d_lo, d_hi) = (lo[pos] - beta[pos], beta[pos] - hi[pos]);
        let below = d_lo > FEAS_TOL;
        let v = if below { d_lo } else { d_hi };
        let violated = v > FEAS_TOL;
        let at = self.slot[pos];
        if violated == (at != 0) {
            self.members[at] = (pos, v, below);
        } else if violated {
            self.slot[pos] = self.members.len();
            self.members.push((pos, v, below));
        } else {
            self.members.swap_remove(at);
            if let Some(&(moved, ..)) = self.members.get(at) {
                self.slot[moved] = at;
            }
            self.slot[pos] = 0;
        }
    }

    /// The most violated position and whether it lies below its bound —
    /// the lowest such position on ties, as a scan in position order
    /// keeping strict improvements finds it — or `None` when every
    /// value is within its bounds.
    pub(crate) fn leaving(&self) -> Option<(usize, bool)> {
        let mut best: Option<(usize, f64, bool)> = None;
        for &(pos, v, below) in &self.members[1..] {
            if best.is_none_or(|(bp, bv, _)| v > bv || (v == bv && pos < bp)) {
                best = Some((pos, v, below));
            }
        }
        best.map(|(pos, _, below)| (pos, below))
    }
}

impl Workspace {
    pub(crate) fn new(lp: &SparseLp) -> Workspace {
        let (m, ncols) = (lp.m, lp.ncols());
        Workspace {
            factor: Factorization::new(m),
            basis: Vec::with_capacity(m),
            state: vec![VState::AtLower; ncols],
            beta: vec![0.0; m],
            dvec: vec![0.0; ncols],
            basic_lo: vec![0.0; m],
            basic_hi: vec![0.0; m],
            fixed: vec![false; ncols],
            wbuf: vec![0.0; m],
            rbuf: vec![0.0; m],
            ybuf: vec![0.0; m],
            wnz: Vec::with_capacity(m),
            acc: SparseAcc::new(ncols),
            alpha_row: Vec::with_capacity(ncols),
            candidates: Vec::with_capacity(ncols),
            infeasible: InfeasibleSet::new(m),
        }
    }
}

/// The state of one dual simplex solve.
struct Simplex<'a> {
    lp: &'a SparseLp,
    opts: &'a LpOptions,
    ws: &'a mut Workspace,
    iterations: u64,
    degenerate_run: u32,
    /// Bland's rule is in force in the ratio test: set after a run of
    /// degenerate pivots, cleared by the next pivot that moves.
    bland: bool,
    /// Consecutive numerical restarts (refactor-and-retry); every
    /// committed pivot resets it.
    restarts: u32,
    /// Set when a mid-pivot refactorization found a singular basis —
    /// the factorization is unusable and the solve must stop.
    broken: bool,
}

impl<'a> Simplex<'a> {
    fn new(lp: &'a SparseLp, opts: &'a LpOptions, ws: &'a mut Workspace) -> Simplex<'a> {
        debug_assert_eq!((ws.beta.len(), ws.dvec.len()), (lp.m, lp.ncols()));
        for (j, fixed) in ws.fixed.iter_mut().enumerate() {
            *fixed = lp.upper[j] - lp.lower[j] <= 0.0;
        }
        Simplex {
            lp,
            opts,
            ws,
            iterations: 0,
            degenerate_run: 0,
            bland: false,
            restarts: 0,
            broken: false,
        }
    }

    // ---- setup ------------------------------------------------------------

    fn init_from_basis(&mut self, warm: &Basis) -> Result<(), WarmStartError> {
        let (m, ncols) = (self.lp.m, self.lp.ncols());
        if warm.cols.len() != m || warm.state.len() != ncols {
            return Err(WarmStartError::Mismatch);
        }
        self.ws.basis.clear();
        self.ws.basis.extend_from_slice(&warm.cols);
        self.ws.state.copy_from_slice(&warm.state);
        for (pos, &j) in self.ws.basis.iter().enumerate() {
            if j >= ncols || self.ws.state[j] != VState::Basic(pos) {
                return Err(WarmStartError::Mismatch);
            }
        }
        self.cache_basic_bounds();
        // nonbasic columns must rest on a finite bound
        for j in 0..ncols {
            match self.ws.state[j] {
                VState::AtLower if !self.lp.lower[j].is_finite() => {
                    if self.lp.upper[j].is_finite() {
                        self.ws.state[j] = VState::AtUpper;
                    } else {
                        return Err(WarmStartError::Mismatch);
                    }
                }
                VState::AtUpper if !self.lp.upper[j].is_finite() => {
                    if self.lp.lower[j].is_finite() {
                        self.ws.state[j] = VState::AtLower;
                    } else {
                        return Err(WarmStartError::Mismatch);
                    }
                }
                _ => {}
            }
        }
        if self.refactor_full().is_err() {
            return Err(WarmStartError::Singular);
        }
        self.compute_duals();
        // restore dual feasibility by bound flips where possible
        let mut flipped = false;
        for j in 0..ncols {
            if self.ws.fixed[j] {
                continue;
            }
            match self.ws.state[j] {
                VState::AtLower if self.ws.dvec[j] < -1e-6 => {
                    if self.lp.upper[j].is_finite() {
                        self.ws.state[j] = VState::AtUpper;
                        flipped = true;
                    } else {
                        return Err(WarmStartError::DualInfeasible);
                    }
                }
                VState::AtUpper if self.ws.dvec[j] > 1e-6 => {
                    if self.lp.lower[j].is_finite() {
                        self.ws.state[j] = VState::AtLower;
                        flipped = true;
                    } else {
                        return Err(WarmStartError::DualInfeasible);
                    }
                }
                _ => {}
            }
        }
        if flipped {
            self.compute_beta();
        }
        Ok(())
    }

    // ---- shared helpers ---------------------------------------------------

    /// Refill the per-position bound caches from the current basis.
    fn cache_basic_bounds(&mut self) {
        for (pos, &j) in self.ws.basis.iter().enumerate() {
            self.ws.basic_lo[pos] = self.lp.lower[j];
            self.ws.basic_hi[pos] = self.lp.upper[j];
        }
    }

    fn value_of(&self, j: usize) -> f64 {
        match self.ws.state[j] {
            VState::Basic(pos) => self.ws.beta[pos],
            VState::AtLower => self.lp.lower[j],
            VState::AtUpper => self.lp.upper[j],
        }
    }

    /// Refactor the basis and recompute `beta` from scratch.
    fn refactor_full(&mut self) -> Result<(), crate::factor::FactorError> {
        let basis = &self.ws.basis;
        let mat = &self.lp.mat;
        self.ws.factor.refactor(|p| mat.col(basis[p]))?;
        self.compute_beta();
        Ok(())
    }

    fn compute_beta(&mut self) {
        let mut r = std::mem::take(&mut self.ws.ybuf);
        r.clear();
        r.extend_from_slice(&self.lp.rhs);
        for j in 0..self.lp.ncols() {
            if matches!(self.ws.state[j], VState::Basic(_)) {
                continue;
            }
            let v = self.value_of(j);
            if v != 0.0 {
                self.lp.mat.col_axpy(j, -v, &mut r);
            }
        }
        self.ws.factor.ftran(&mut r);
        self.ws.beta.copy_from_slice(&r);
        self.ws.ybuf = r;
        let Workspace { infeasible, beta, basic_lo, basic_hi, .. } = &mut *self.ws;
        infeasible.rebuild(beta, basic_lo, basic_hi);
    }

    /// Move the basic values a step `t` along the entering column `w`
    /// (non-zero at `nz`), and re-read their bound violations.
    fn step_values(&mut self, w: &[f64], nz: &[usize], t: f64) {
        let Workspace { infeasible, beta, basic_lo, basic_hi, .. } = &mut *self.ws;
        for &pos in nz {
            beta[pos] -= t * w[pos];
            infeasible.refresh(pos, beta, basic_lo, basic_hi);
        }
    }

    /// `y = c_B B⁻¹` into `y`: one BTRAN of the basic costs.
    fn btran_costs(&mut self, y: &mut Vec<f64>) {
        y.clear();
        y.extend(self.ws.basis.iter().map(|&j| self.lp.cost[j]));
        self.ws.factor.btran(y);
    }

    /// Recompute every reduced cost `d_j = c_j − y·a_j` from scratch.
    fn compute_duals(&mut self) {
        let mut y = std::mem::take(&mut self.ws.ybuf);
        self.btran_costs(&mut y);
        for j in 0..self.lp.ncols() {
            self.ws.dvec[j] = match self.ws.state[j] {
                VState::Basic(_) => 0.0,
                _ => self.lp.cost[j] - self.lp.mat.col_dot(j, &y),
            };
        }
        self.ws.ybuf = y;
    }

    /// FTRAN column `q` into the entering-column buffer and list its
    /// non-zero positions; both are handed back with
    /// [`Simplex::put_entering`].
    fn take_entering(&mut self, q: usize) -> (Vec<f64>, Vec<usize>) {
        let mut w = std::mem::take(&mut self.ws.wbuf);
        let mut nz = std::mem::take(&mut self.ws.wnz);
        // the buffer holds the last entering column, non-zero at `nz`
        for &pos in &nz {
            w[pos] = 0.0;
        }
        debug_assert!(w.iter().all(|&v| v == 0.0));
        self.lp.mat.col_axpy(q, 1.0, &mut w);
        self.ws.factor.ftran_entering(&mut w, self.lp.mat.col(q).0, &mut nz);
        (w, nz)
    }

    fn put_entering(&mut self, w: Vec<f64>, nz: Vec<usize>) {
        self.ws.wbuf = w;
        self.ws.wnz = nz;
    }

    /// Row `r` of `B⁻¹A` into `alpha_row`: the entries above
    /// `PIVOT_TOL` in magnitude of the nonbasic columns that are not
    /// fixed, in increasing column order.
    fn pivot_row(&mut self, r: usize) {
        // the buffer is all zero: the last `combine` cleared it
        let mut rho = std::mem::take(&mut self.ws.rbuf);
        debug_assert!(rho.iter().all(|&v| v == 0.0));
        rho[r] = 1.0;
        self.ws.factor.btran(&mut rho);
        self.lp.rows.combine(&mut rho, &mut self.ws.acc);
        self.ws.rbuf = rho;
        let Workspace { acc, alpha_row, state, fixed, .. } = &mut *self.ws;
        alpha_row.clear();
        acc.drain(|j, a| {
            if !matches!(state[j], VState::Basic(_)) && !fixed[j] && a.abs() > PIVOT_TOL {
                alpha_row.push((j, a));
            }
        });
    }

    fn track_degeneracy(&mut self, t: f64) {
        if t.abs() <= 1e-9 {
            self.degenerate_run += 1;
            if self.degenerate_run >= DEGENERATE_RUN_FOR_BLAND {
                self.bland = true;
            }
        } else {
            self.degenerate_run = 0;
            self.bland = false;
        }
    }

    /// Commit a pivot: column `q` (FTRAN'd to `w`, non-zero at `nz`)
    /// replaces basis position `r`; the leaving column rests at
    /// `leave_state`. `sigma_t` is the signed primal step. Returns
    /// `false` when the update was refused and a refactor was
    /// performed (values are recomputed; reduced costs must be
    /// refreshed by the caller — unless the refactor found the new
    /// basis singular and set `broken`, when nothing may read the
    /// factorization again).
    #[allow(clippy::too_many_arguments)]
    fn commit_pivot(
        &mut self,
        q: usize,
        w: &[f64],
        nz: &[usize],
        r: usize,
        leave_state: VState,
        entering_value: f64,
        sigma_t: f64,
    ) -> bool {
        self.restarts = 0;
        self.step_values(w, nz, sigma_t);
        let jout = self.ws.basis[r];
        self.ws.state[jout] = leave_state;
        self.ws.basis[r] = q;
        self.ws.state[q] = VState::Basic(r);
        self.ws.beta[r] = entering_value;
        self.ws.basic_lo[r] = self.lp.lower[q];
        self.ws.basic_hi[r] = self.lp.upper[q];
        let Workspace { infeasible, beta, basic_lo, basic_hi, .. } = &mut *self.ws;
        infeasible.refresh(r, beta, basic_lo, basic_hi);
        if !self.ws.factor.update(w, nz, r) || self.ws.factor.should_refactor() {
            // refactor with the *new* basis (recomputes beta); a
            // singular result poisons the solve and stops it
            if self.refactor_full().is_err() {
                self.broken = true;
            }
            return false;
        }
        true
    }

    /// Refactor + recompute and allow a bounded number of retries.
    fn restart(&mut self) -> bool {
        self.restarts += 1;
        if self.restarts > 8 {
            return false;
        }
        self.refactor_full().is_ok()
    }

    // ---- dual simplex -----------------------------------------------------

    /// Pivot until optimal, infeasible, `opts`' iteration cap or `stop`,
    /// which is polled every [`DEADLINE_EVERY`] pivots.
    fn dual(&mut self, stop: &Stop) -> LpStatus {
        loop {
            if self.broken || self.iterations >= self.opts.max_iterations {
                return LpStatus::IterLimit;
            }
            if self.iterations.is_multiple_of(DEADLINE_EVERY) && stop.hit() {
                return LpStatus::TimeLimit;
            }
            self.iterations += 1;
            if self.iterations.is_multiple_of(REFRESH_EVERY) {
                if self.refactor_full().is_err() {
                    return LpStatus::IterLimit;
                }
                self.compute_duals();
            }

            // leaving: the most bound-violating basic variable
            let Some((r, below)) = self.ws.infeasible.leaving() else {
                return LpStatus::Optimal; // primal feasible + dual feasible
            };

            self.pivot_row(r);

            // dual ratio test (Harris flavour): eligibility keeps theta's
            // sign so reduced costs stay dual feasible. One pass over the
            // pivot row finds the relaxed bound and keeps the eligible
            // entries with their ratios; the choice walks only those.
            let Workspace { alpha_row, candidates, state, dvec, .. } = &mut *self.ws;
            let mut relaxed = f64::INFINITY;
            candidates.clear();
            for &(j, a) in alpha_row.iter() {
                let eligible = match state[j] {
                    VState::AtLower if below => a < 0.0,
                    VState::AtLower => a > 0.0,
                    VState::AtUpper if below => a > 0.0,
                    VState::AtUpper => a < 0.0,
                    VState::Basic(_) => false,
                };
                if eligible {
                    let d = dvec[j].abs();
                    relaxed = relaxed.min((d + DUAL_TOL) / a.abs());
                    candidates.push((j, a, d / a.abs()));
                }
            }
            if relaxed.is_infinite() {
                return LpStatus::Infeasible; // dual unbounded
            }
            let bland = self.bland;
            let mut q = usize::MAX;
            let mut alpha_rq = 0.0f64;
            for &(j, a, ratio) in candidates.iter() {
                if ratio <= relaxed {
                    // Bland mode: first (lowest-index) qualifying column
                    if q != usize::MAX && (bland || a.abs() <= alpha_rq.abs()) {
                        continue;
                    }
                    q = j;
                    alpha_rq = a;
                }
            }
            if q == usize::MAX {
                return LpStatus::Infeasible;
            }

            // entering column
            let (w, nz) = self.take_entering(q);
            if (w[r] - alpha_rq).abs() > 1e-6 * (1.0 + alpha_rq.abs()) || w[r].abs() <= PIVOT_TOL {
                self.put_entering(w, nz);
                if self.restart() {
                    self.compute_duals();
                    continue;
                }
                return LpStatus::IterLimit;
            }

            let (target, leave_state) = if below {
                (self.ws.basic_lo[r], VState::AtLower)
            } else {
                (self.ws.basic_hi[r], VState::AtUpper)
            };
            let delta_beta_r = target - self.ws.beta[r];
            let delta_xq = -delta_beta_r / w[r];
            let entering_value = self.value_of(q) + delta_xq;

            // reduced costs: theta = d_q / alpha_rq
            let j_leave = self.ws.basis[r];
            let theta = self.ws.dvec[q] / w[r];
            for &(j, a) in &self.ws.alpha_row {
                if j != q {
                    self.ws.dvec[j] -= theta * a;
                }
            }
            self.ws.dvec[j_leave] = -theta;
            self.ws.dvec[q] = 0.0;

            self.track_degeneracy(delta_xq);
            // beta update: beta -= delta_xq * w, then overwrite position r
            let clean = self.commit_pivot(q, &w, &nz, r, leave_state, entering_value, delta_xq);
            self.put_entering(w, nz);
            if !clean && !self.broken {
                self.compute_duals();
            }
        }
    }

    // ---- extraction -------------------------------------------------------

    fn finish(&mut self, status: LpStatus) -> SparseSolution {
        let n = self.lp.n;
        let mut x = vec![0.0; n];
        if status != LpStatus::Infeasible {
            for (j, v) in x.iter_mut().enumerate() {
                *v = self.value_of(j).max(self.lp.lower[j]).min(self.lp.upper[j]);
            }
        } else {
            for (j, v) in x.iter_mut().enumerate() {
                *v = self.lp.lower[j].max(0.0).min(self.lp.upper[j]);
            }
        }
        let objective = match status {
            LpStatus::Infeasible => f64::INFINITY,
            _ => x.iter().zip(&self.lp.cost).map(|(xi, ci)| xi * ci).sum(),
        };
        let mut duals = Vec::new();
        if status == LpStatus::Optimal {
            self.btran_costs(&mut duals);
            for (y, s) in duals.iter_mut().zip(&self.lp.scale) {
                *y *= s;
            }
        }
        SparseSolution {
            status,
            objective,
            x,
            duals,
            iterations: self.iterations,
            basis: Basis { cols: self.ws.basis.clone(), state: self.ws.state.clone() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, LpOptions, LpStatus, Model, VarId, VarKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dual_resolve_after_fixing_matches_fresh_solve() {
        // knapsack LP: fix one variable, warm-start the re-solve
        let mut m = Model::new("warm");
        let a = m.add_var(0.0, 1.0, -10.0, VarKind::Binary);
        let b = m.add_var(0.0, 1.0, -13.0, VarKind::Binary);
        let c = m.add_var(0.0, 1.0, -7.0, VarKind::Binary);
        m.add_con(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 6.0);
        let mut lp = SparseLp::from_model(&m).unwrap();
        let opts = LpOptions::default();
        let root = lp.solve_dual_from(&lp.slack_basis(), &opts).unwrap();
        assert_eq!(root.status, LpStatus::Optimal);

        for (var, fix) in [(0usize, 0.0), (0, 1.0), (1, 0.0), (2, 1.0)] {
            lp.set_bounds(var, fix, fix);
            let warm = lp.solve_dual_from(&root.basis, &opts).unwrap();
            let fresh = lp.solve_dual_from(&lp.slack_basis(), &opts).unwrap();
            assert_eq!(warm.status, fresh.status, "fix x{var}={fix}");
            assert!(
                (warm.objective - fresh.objective).abs() < 1e-7,
                "fix x{var}={fix}: warm {} fresh {}",
                warm.objective,
                fresh.objective
            );
            lp.set_bounds(var, 0.0, 1.0);
        }
    }

    #[test]
    fn dual_detects_infeasible_child() {
        let mut m = Model::new("inf-child");
        let a = m.add_var(0.0, 1.0, 1.0, VarKind::Binary);
        let b = m.add_var(0.0, 1.0, 1.0, VarKind::Binary);
        m.add_con(vec![(a, 1.0), (b, 1.0)], Cmp::Le, 1.0);
        let mut lp = SparseLp::from_model(&m).unwrap();
        let root = lp.solve_dual_from(&lp.slack_basis(), &LpOptions::default()).unwrap();
        lp.set_bounds(0, 1.0, 1.0);
        lp.set_bounds(1, 1.0, 1.0);
        let warm = lp.solve_dual_from(&root.basis, &LpOptions::default()).unwrap();
        assert_eq!(warm.status, LpStatus::Infeasible);
    }

    /// A pivot whose update is refused and whose refactorization
    /// then finds the new basis singular must stop the solve, not price
    /// on the half-built factorization. The entering column handed to
    /// the pivot claims a tiny pivot in row 0, where column `x0` really
    /// has none: the update refuses it (1e-9 against a 10 elsewhere) and
    /// the refactor sees a basis with an empty row 0.
    #[test]
    fn a_singular_refactorization_ends_the_solve() {
        let mut m = Model::new("singular");
        let x0 = m.add_var(0.0, 1.0, 0.0, VarKind::Continuous);
        let x1 = m.add_var(0.0, 1.0, 0.0, VarKind::Continuous);
        m.add_con(vec![(x1, 1.0)], Cmp::Le, 0.0);
        m.add_con(vec![(x0, 1.0), (x1, 1.0)], Cmp::Ge, -5.0);
        let lp = SparseLp::from_model(&m).unwrap();
        let opts = LpOptions::default();
        let mut ws = Workspace::new(&lp);
        let mut s = Simplex::new(&lp, &opts, &mut ws);
        s.init_from_basis(&lp.slack_basis()).unwrap();
        let clean = s.commit_pivot(0, &[1e-9, 10.0], &[0, 1], 0, VState::AtLower, 0.0, 0.0);
        assert!(!clean, "the update must be refused");
        assert!(s.broken, "x0 in row 0's position leaves row 0 empty");
        assert_eq!(s.dual(&Stop::default()), LpStatus::IterLimit);
    }

    /// A random model with equality rows, and a 0/1 point `x` that holds
    /// every row: binaries (half of them zero-cost, the rest priced
    /// either way), one continuous column, one to three equality rows
    /// over random columns and up to two inequality rows, each row's
    /// right-hand side read off `x`.
    fn model_with_equalities(rng: &mut StdRng) -> (Model, Vec<f64>) {
        let mut m = Model::new("seeded");
        let n = rng.gen_range(2..=6usize);
        let mut x = Vec::with_capacity(n + 1);
        for _ in 0..n {
            let cost = if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(-3.0..3.0) };
            m.add_var(0.0, 1.0, cost, VarKind::Binary);
            x.push(if rng.gen_bool(0.6) { 1.0 } else { 0.0 });
        }
        m.add_var(0.0, 10.0, rng.gen_range(0.0..2.0), VarKind::Continuous);
        x.push(rng.gen_range(0.0..10.0));
        let eq_rows = rng.gen_range(1..=3);
        for row in 0..eq_rows + rng.gen_range(0..=2) {
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for j in 0..=n {
                if rng.gen_bool(0.6) {
                    let a: f64 = rng.gen_range(0.5..3.0);
                    terms.push((VarId(j), if rng.gen_bool(0.3) { -a } else { a }));
                }
            }
            if terms.is_empty() {
                terms.push((VarId(rng.gen_range(0..n)), 1.0));
            }
            let lhs: f64 = terms.iter().map(|&(v, a)| a * x[v.0]).sum();
            match row < eq_rows {
                true => m.add_con(terms, Cmp::Eq, lhs),
                false if rng.gen_bool(0.5) => {
                    m.add_con(terms, Cmp::Le, lhs + rng.gen_range(0.0..2.0))
                }
                false => m.add_con(terms, Cmp::Ge, lhs - rng.gen_range(0.0..2.0)),
            }
        }
        (m, x)
    }

    /// The seeded basis puts only zero-cost columns into the basis, so
    /// its duals are 0 and every reduced cost is the column's cost, bit
    /// for bit; the dual simplex accepts it and reaches the slack root's
    /// optimum, certified.
    #[test]
    fn the_seeded_basis_prices_like_the_slack_basis() {
        let opts = LpOptions::default();
        let mut seeded_some = 0;
        for seed in 0..256 {
            let (m, x) = model_with_equalities(&mut StdRng::seed_from_u64(seed));
            let lp = SparseLp::from_model(&m).unwrap();
            let basis = lp.seeded_basis(&x);
            let entered: Vec<usize> = basis.cols.iter().copied().filter(|&j| j < lp.n).collect();
            for &j in &entered {
                assert_eq!((lp.cost[j], x[j], lp.bounds(j)), (0.0, 1.0, (0.0, 1.0)), "seed {seed}");
            }
            seeded_some += usize::from(!entered.is_empty());
            let mut ws = Workspace::new(&lp);
            let mut s = Simplex::new(&lp, &opts, &mut ws);
            s.init_from_basis(&basis).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            for j in 0..lp.ncols() {
                if !matches!(s.ws.state[j], VState::Basic(_)) {
                    assert_eq!(
                        s.ws.dvec[j].to_bits(),
                        lp.cost[j].to_bits(),
                        "seed {seed}, column {j}"
                    );
                }
            }
            let slack = lp.solve_dual_from(&lp.slack_basis(), &opts).unwrap();
            let seeded = lp.solve_dual_from(&basis, &opts).unwrap();
            assert_eq!((slack.status, seeded.status), (LpStatus::Optimal, LpStatus::Optimal));
            let tol = 1e-9 * (1.0 + slack.objective.abs());
            assert!(
                (seeded.objective - slack.objective).abs() <= tol,
                "seed {seed}: {} vs {}",
                seeded.objective,
                slack.objective
            );
            assert_eq!(m.certify(&seeded.x, &seeded.duals, 1e-9), Ok(()), "seed {seed}");
        }
        assert!(seeded_some >= 128, "only {seeded_some} of 256 seeded bases moved a column");
    }

    /// Retries are capped only when they come one after another: nine
    /// spread over a solve, each after a committed pivot, still let it
    /// finish, while nine in a row stop it.
    #[test]
    fn only_consecutive_retries_stop_a_solve() {
        // twelve covering rows x_i >= 1: twelve dual pivots from the
        // slack basis, one per row
        let mut m = Model::new("cover");
        for i in 0..12 {
            let x = m.add_var(0.0, 10.0, 1.0 + i as f64, VarKind::Continuous);
            m.add_con(vec![(x, 1.0)], Cmp::Ge, 1.0);
        }
        let lp = SparseLp::from_model(&m).unwrap();
        let one_more: Vec<LpOptions> = (1..=9).map(|k| LpOptions { max_iterations: k }).collect();
        let uncapped = LpOptions::default();
        let mut ws = Workspace::new(&lp);
        let mut s = Simplex::new(&lp, &uncapped, &mut ws);
        s.init_from_basis(&lp.slack_basis()).unwrap();
        for (k, cap) in one_more.iter().enumerate() {
            assert!(s.restart(), "retry {} follows a committed pivot", k + 1);
            s.compute_duals();
            s.opts = cap;
            assert_eq!(
                (s.dual(&Stop::default()), s.iterations),
                (LpStatus::IterLimit, k as u64 + 1)
            );
        }
        s.opts = &uncapped;
        assert_eq!(s.dual(&Stop::default()), LpStatus::Optimal);
        let in_a_row: Vec<bool> = (0..9).map(|_| s.restart()).collect();
        assert_eq!(in_a_row, [true, true, true, true, true, true, true, true, false]);
    }
}
