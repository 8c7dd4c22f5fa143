//! Sparse revised simplex with bounded variables — the LP engine behind
//! [`Model::solve_lp`] and branch-and-bound.
//!
//! * the constraint matrix lives in compressed sparse columns
//!   ([`crate::sparse::ColMatrix`]) built straight from the model's row
//!   triplets, with a row-wise copy beside them for the pivot row — the
//!   matrix is never densified; the entering column, the pivot-row
//!   multipliers and the duals are dense length-`m` vectors;
//! * the basis is LU-factorized with Forrest–Tomlin updates and
//!   periodic refactorization ([`crate::factor`]);
//! * pricing is Devex ([`crate::pricing`]) with a Bland fallback after
//!   degenerate runs;
//! * the primal ratio test is a Harris-style two-pass (relaxed bound
//!   pass for the step length, second pass for the largest pivot);
//! * variables keep their **native bounds** `l ≤ x ≤ u` (no shift), so
//!   a branch-and-bound bound tightening is a two-float edit and the
//!   parent basis stays meaningful — which is what the bounded-variable
//!   **dual simplex** ([`SparseLp::solve_dual_from`]) exploits to
//!   re-solve child nodes in a handful of pivots.
//!
//! Feasibility is reached by a composite (artificial-free) phase 1:
//! the all-logical basis is always available, out-of-bound basic
//! variables get ±1 costs, and the ratio test stops at the first bound
//! breakpoint. No artificial columns ever enter the problem.

use crate::factor::Factorization;
use crate::model::{Cmp, LpOptions, LpStatus, Model, SolveError, VarId};
use crate::pricing::Devex;
use crate::sparse::{ColMatrix, SparseAcc};

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

/// Result of a sparse LP solve: an [`crate::model::LpSolution`] plus
/// the final basis for warm starts.
#[derive(Debug, Clone)]
pub struct SparseSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value (`∞` when infeasible, `−∞` when unbounded).
    pub objective: f64,
    /// Structural variable values, model order.
    pub x: Vec<f64>,
    /// Simplex iterations used.
    pub iterations: u64,
    /// Final basis (meaningful for `Optimal`/`IterLimit`).
    pub basis: Basis,
}

/// Why a dual warm start was abandoned (the caller falls back to a
/// fresh primal solve).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmStartError {
    /// The supplied basis does not match this problem's dimensions.
    Mismatch,
    /// The basis matrix is singular under the new bounds.
    Singular,
    /// Reduced costs are not dual-feasible and no bound flip fixes them.
    DualInfeasible,
    /// Numerical trouble mid-flight (pivot consistency check failed).
    Numerical,
}

/// A model standardised for the revised simplex: CSC columns
/// (structural + one logical per row) with a row-wise copy beside them,
/// native bounds, equilibrated rows. Bounds are mutable
/// ([`SparseLp::set_bounds`]) so branch-and-bound can fix binaries
/// without rebuilding anything.
#[derive(Debug, Clone)]
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
}

pub(crate) const FEAS_TOL: f64 = 1e-7;
const PIVOT_TOL: f64 = 1e-10;
const HARRIS_DELTA: f64 = 1e-7;
const DEGENERATE_RUN_FOR_BLAND: u32 = 48;
const REFRESH_EVERY: u64 = 256;
const DEADLINE_EVERY: u64 = 32;

impl SparseLp {
    /// Standardise `model`; errors are exactly those of the model's own
    /// validation (bad bound, empty domain, non-finite coefficient).
    pub fn from_model(model: &Model) -> Result<SparseLp, SolveError> {
        let n = model.vars.len();
        let m = model.cons.len();
        model.validate()?;
        // row equilibration: scale every row to unit max coefficient
        // magnitude (cmp-direction preserved: scales are positive)
        let mut scale = vec![1.0f64; m];
        let mut rhs = vec![0.0f64; m];
        for (i, con) in model.cons.iter().enumerate() {
            let maxmag = con.terms.iter().fold(con.rhs.abs(), |acc, &(_, a)| acc.max(a.abs()));
            if maxmag > 0.0 {
                scale[i] = 1.0 / maxmag;
            }
            rhs[i] = con.rhs * scale[i];
        }
        // columns: structural from the (scaled) row triplets, then one
        // logical per row with coefficient +1 and sign bounds by cmp
        let scaled: Vec<Vec<(usize, f64)>> = model
            .cons
            .iter()
            .enumerate()
            .map(|(i, con)| {
                let mut row: Vec<(usize, f64)> =
                    con.terms.iter().map(|&(c, a)| (c, a * scale[i])).collect();
                // logical coefficient stays +1: the scaled slack just
                // absorbs the row scale, and its sign bounds are
                // invariant under positive scaling
                row.push((n + i, 1.0));
                row
            })
            .collect();
        let mat = ColMatrix::from_rows(m, n + m, || scaled.iter().map(|r| r.as_slice()));
        let rows = mat.transpose();

        let mut lower = Vec::with_capacity(n + m);
        let mut upper = Vec::with_capacity(n + m);
        let mut cost = vec![0.0; n + m];
        for (j, v) in model.vars.iter().enumerate() {
            lower.push(v.lo);
            upper.push(v.hi.max(v.lo));
            cost[j] = v.obj;
        }
        for con in &model.cons {
            let (lo, hi) = match con.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lower.push(lo);
            upper.push(hi);
        }
        Ok(SparseLp { m, n, mat, rows, lower, upper, cost, rhs })
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

    /// Solve from scratch: composite phase 1 from the all-logical
    /// basis, then Devex phase 2.
    pub fn solve_primal(&self, opts: &LpOptions) -> Result<SparseSolution, SolveError> {
        self.solve_primal_in(&mut Workspace::new(self), opts)
    }

    /// [`SparseLp::solve_primal`] in the caller's buffers.
    pub(crate) fn solve_primal_in(
        &self,
        ws: &mut Workspace,
        opts: &LpOptions,
    ) -> Result<SparseSolution, SolveError> {
        if let Some(bad) = self.empty_domain() {
            return Err(SolveError::EmptyDomain(VarId(bad.min(self.n))));
        }
        let mut s = Simplex::new(self, opts, ws);
        s.init_logical_basis();
        if s.refactor_full().is_err() {
            // the all-logical basis is the identity; this cannot happen
            return Ok(s.finish(LpStatus::Infeasible));
        }
        let status = s.phase1();
        if status != LpStatus::Optimal {
            return Ok(s.finish(status));
        }
        let status = s.phase2();
        Ok(s.finish(status))
    }

    /// Warm-started re-solve: start from `basis` (typically the parent
    /// node's optimal basis) and run the bounded-variable dual simplex.
    /// Fast exactly when only bounds changed since `basis` was optimal
    /// — the branch-and-bound case. Falls back with a
    /// [`WarmStartError`] instead of guessing on numerical trouble.
    pub fn solve_dual_from(
        &self,
        basis: &Basis,
        opts: &LpOptions,
    ) -> Result<SparseSolution, WarmStartError> {
        self.solve_dual_in(&mut Workspace::new(self), basis, opts)
    }

    /// [`SparseLp::solve_dual_from`] in the caller's buffers.
    pub(crate) fn solve_dual_in(
        &self,
        ws: &mut Workspace,
        basis: &Basis,
        opts: &LpOptions,
    ) -> Result<SparseSolution, WarmStartError> {
        if self.empty_domain().is_some() {
            return Err(WarmStartError::Mismatch);
        }
        let mut s = Simplex::new(self, opts, ws);
        s.init_from_basis(basis)?;
        let status = s.dual();
        Ok(s.finish(status))
    }

    /// The all-slack basis: every logical basic in its own row, every
    /// structural resting at its bound nearest zero. Its reduced costs
    /// are the costs themselves, so a dual start from it
    /// ([`SparseLp::solve_dual_from`]) holds whenever every column its
    /// cost pulls off that bound has a finite bound to flip to — always
    /// when no cost is negative, as in Linear Program (1), whose
    /// branch-and-bound root starts here.
    pub fn slack_basis(&self) -> Basis {
        let mut basis =
            Basis { cols: Vec::with_capacity(self.m), state: vec![VState::AtLower; self.ncols()] };
        self.fill_slack_basis(&mut basis.cols, &mut basis.state);
        basis
    }

    /// Write the all-slack basis into `cols` and `state`.
    fn fill_slack_basis(&self, cols: &mut Vec<usize>, state: &mut [VState]) {
        let (n, m) = (self.n, self.m);
        cols.clear();
        cols.extend(n..n + m);
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
    }

    fn empty_domain(&self) -> Option<usize> {
        (0..self.n + self.m).find(|&j| self.lower[j] > self.upper[j] + 1e-12)
    }

    fn ncols(&self) -> usize {
        self.n + self.m
    }
}

/// The buffers a solve works in, sized for one [`SparseLp`]. A solve
/// initialises everything it reads, so a workspace can be handed from
/// solve to solve — branch-and-bound keeps one for the whole search —
/// and the pivot loop allocates nothing.
#[derive(Debug)]
pub(crate) struct Workspace {
    factor: Factorization,
    pricer: Devex,
    /// `basis[position] = column`.
    basis: Vec<usize>,
    state: Vec<VState>,
    /// Values of the basic variables by position.
    beta: Vec<f64>,
    /// Reduced costs (phase-2 maintenance; phase 1 recomputes).
    dvec: Vec<f64>,
    /// Bounds of the basic column at each position.
    basic_lo: Vec<f64>,
    basic_hi: Vec<f64>,
    /// Columns whose bounds coincide in this solve.
    fixed: Vec<bool>,
    /// Dense length-`m` buffers: entering column / pivot row / duals
    /// and right-hand side / basic costs.
    wbuf: Vec<f64>,
    rbuf: Vec<f64>,
    ybuf: Vec<f64>,
    cbuf: Vec<f64>,
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
            pricer: Devex::new(ncols),
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
            cbuf: vec![0.0; m],
            wnz: Vec::with_capacity(m),
            acc: SparseAcc::new(ncols),
            alpha_row: Vec::with_capacity(ncols),
            candidates: Vec::with_capacity(ncols),
            infeasible: InfeasibleSet::new(m),
        }
    }
}

/// The solver state shared by phase 1, phase 2 and the dual simplex.
struct Simplex<'a> {
    lp: &'a SparseLp,
    opts: &'a LpOptions,
    ws: &'a mut Workspace,
    iterations: u64,
    degenerate_run: u32,
    /// Consecutive numerical restarts (refactor-and-retry); every
    /// committed pivot resets it.
    restarts: u32,
    /// Set when a mid-pivot refactorization found a singular basis —
    /// the factorization is unusable and the solve must stop.
    broken: bool,
}

enum Step {
    Unbounded,
    Progress,
    /// Numerical trouble: refactor and retry the iteration.
    Retry,
}

impl<'a> Simplex<'a> {
    fn new(lp: &'a SparseLp, opts: &'a LpOptions, ws: &'a mut Workspace) -> Simplex<'a> {
        debug_assert_eq!((ws.beta.len(), ws.dvec.len()), (lp.m, lp.ncols()));
        ws.pricer.reset();
        ws.pricer.set_bland(false);
        for (j, fixed) in ws.fixed.iter_mut().enumerate() {
            *fixed = lp.upper[j] - lp.lower[j] <= 0.0;
        }
        Simplex { lp, opts, ws, iterations: 0, degenerate_run: 0, restarts: 0, broken: false }
    }

    /// Take a dense length-`m` zeroed buffer out of the named slot
    /// (put back by the caller). Avoids per-pivot allocs.
    fn take_zeroed(slot: &mut Vec<f64>, m: usize) -> Vec<f64> {
        let mut v = std::mem::take(slot);
        v.clear();
        v.resize(m, 0.0);
        v
    }

    // ---- setup ------------------------------------------------------------

    fn init_logical_basis(&mut self) {
        self.lp.fill_slack_basis(&mut self.ws.basis, &mut self.ws.state);
        self.cache_basic_bounds();
    }

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
        self.compute_duals_phase2();
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

    /// Recompute reduced costs from the basic-cost vector `cb` (indexed
    /// by basis position). Column costs are the phase-2 objective when
    /// `phase2_costs`, zero otherwise (phase 1).
    fn compute_duals_from(&mut self, cb: &[f64], phase2_costs: bool) {
        let mut y = std::mem::take(&mut self.ws.ybuf);
        y.clear();
        y.extend_from_slice(cb);
        self.ws.factor.btran(&mut y);
        for j in 0..self.lp.ncols() {
            self.ws.dvec[j] = match self.ws.state[j] {
                VState::Basic(_) => 0.0,
                _ => {
                    let c = if phase2_costs { self.lp.cost[j] } else { 0.0 };
                    c - self.lp.mat.col_dot(j, &y)
                }
            };
        }
        self.ws.ybuf = y;
    }

    fn compute_duals_phase2(&mut self) {
        let mut cb = std::mem::take(&mut self.ws.cbuf);
        cb.clear();
        cb.extend(self.ws.basis.iter().map(|&j| self.lp.cost[j]));
        self.compute_duals_from(&cb, true);
        self.ws.cbuf = cb;
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

    /// Row `r` of `B⁻¹A` into `alpha_row`: the entries above `tol` in
    /// magnitude of the nonbasic columns `keep(column, fixed)` lets
    /// through, in increasing column order.
    fn pivot_row(&mut self, r: usize, tol: f64, keep: impl Fn(usize, bool) -> bool) {
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
            if !matches!(state[j], VState::Basic(_)) && keep(j, fixed[j]) && a.abs() > tol {
                alpha_row.push((j, a));
            }
        });
    }

    fn deadline_hit(&self) -> bool {
        self.iterations.is_multiple_of(DEADLINE_EVERY)
            && (self.opts.deadline.is_some_and(|d| std::time::Instant::now() >= d)
                || self
                    .opts
                    .stop
                    .as_ref()
                    // check:allow(atomic-ordering): lone cancellation flag,
                    // no data published alongside it
                    .is_some_and(|s| s.load(std::sync::atomic::Ordering::Relaxed)))
    }

    fn track_degeneracy(&mut self, t: f64) {
        if t.abs() <= 1e-9 {
            self.degenerate_run += 1;
            if self.degenerate_run >= DEGENERATE_RUN_FOR_BLAND {
                self.ws.pricer.set_bland(true);
            }
        } else {
            self.degenerate_run = 0;
            self.ws.pricer.set_bland(false);
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

    // ---- phase 1: composite (artificial-free) -----------------------------

    /// Total primal infeasibility of the current basic solution.
    fn infeasibility(&self) -> f64 {
        let mut total = 0.0;
        for (pos, &b) in self.ws.beta.iter().enumerate() {
            total += (self.ws.basic_lo[pos] - b).max(0.0) + (b - self.ws.basic_hi[pos]).max(0.0);
        }
        total
    }

    fn phase1(&mut self) -> LpStatus {
        loop {
            if self.broken || self.iterations >= self.opts.max_iterations {
                return LpStatus::IterLimit;
            }
            if self.deadline_hit() {
                return LpStatus::TimeLimit;
            }
            self.iterations += 1;
            if self.iterations.is_multiple_of(REFRESH_EVERY) && self.refactor_full().is_err() {
                // numerical failure, not proven infeasibility
                return LpStatus::IterLimit;
            }

            // infeasibility costs of the current iterate, into the
            // reusable basic-cost buffer (no per-pivot allocation)
            let mut any_infeasible = false;
            let mut cb = Self::take_zeroed(&mut self.ws.cbuf, self.lp.m);
            for (pos, slot) in cb.iter_mut().enumerate() {
                *slot = if self.ws.beta[pos] < self.ws.basic_lo[pos] - FEAS_TOL {
                    -1.0
                } else if self.ws.beta[pos] > self.ws.basic_hi[pos] + FEAS_TOL {
                    1.0
                } else {
                    0.0
                };
                any_infeasible |= *slot != 0.0;
            }
            if !any_infeasible {
                self.ws.cbuf = cb;
                return LpStatus::Optimal; // primal feasible: phase 1 done
            }
            self.compute_duals_from(&cb, false);
            self.ws.cbuf = cb;

            // price
            let Some(q) = self.price() else {
                // no improving direction but still infeasible: proven
                return LpStatus::Infeasible;
            };
            let sigma: f64 = if self.ws.state[q] == VState::AtLower { 1.0 } else { -1.0 };
            let (w, nz) = self.take_entering(q);
            let step = self.phase1_step(q, sigma, &w, &nz);
            self.put_entering(w, nz);
            match step {
                Step::Unbounded | Step::Retry => {
                    // a feasibility objective bounded below by zero can
                    // only look unbounded through numerical noise; both
                    // cases are numerical trouble, never a verdict
                    if self.restart() {
                        continue;
                    }
                    return LpStatus::IterLimit;
                }
                Step::Progress => {}
            }
        }
    }

    /// First-breakpoint phase-1 ratio test + pivot. Infeasible basics
    /// moving **toward** their violated bound block when they reach it;
    /// feasible basics block at the nearest bound in their direction.
    fn phase1_step(&mut self, q: usize, sigma: f64, w: &[f64], nz: &[usize]) -> Step {
        let mut t_best = f64::INFINITY;
        let mut leave: Option<(usize, VState)> = None;
        let mut best_mag = 0.0f64;
        for &pos in nz {
            let wi = w[pos];
            if wi.abs() <= PIVOT_TOL {
                continue;
            }
            let rate = -sigma * wi;
            let (l, u, v) = (self.ws.basic_lo[pos], self.ws.basic_hi[pos], self.ws.beta[pos]);
            let (limit, st) = if v < l - FEAS_TOL {
                if rate > 0.0 {
                    ((l - v) / rate, VState::AtLower)
                } else {
                    continue;
                }
            } else if v > u + FEAS_TOL {
                if rate < 0.0 {
                    ((v - u) / -rate, VState::AtUpper)
                } else {
                    continue;
                }
            } else if rate < 0.0 && l.is_finite() {
                (((v - l).max(0.0)) / -rate, VState::AtLower)
            } else if rate > 0.0 && u.is_finite() {
                (((u - v).max(0.0)) / rate, VState::AtUpper)
            } else {
                continue;
            };
            let tie_break = match leave {
                None => true,
                // Bland needs lowest-index ties; otherwise stability
                // prefers the largest pivot magnitude
                Some((rp, _)) => {
                    if self.ws.pricer.bland() {
                        self.ws.basis[pos] < self.ws.basis[rp]
                    } else {
                        wi.abs() > best_mag
                    }
                }
            };
            let better = limit < t_best - 1e-12 || (limit <= t_best + 1e-12 && tie_break);
            if better {
                t_best = t_best.min(limit);
                leave = Some((pos, st));
                best_mag = wi.abs();
            }
        }
        let t_flip = self.lp.upper[q] - self.lp.lower[q];
        if t_best.is_infinite() && !t_flip.is_finite() {
            return Step::Unbounded;
        }
        if t_flip <= t_best {
            self.flip_bound(q, sigma, t_flip, w, nz);
            self.track_degeneracy(t_flip);
            return Step::Progress;
        }
        let (r, leave_state) = leave.expect("finite step has a leaving row");
        if w[r].abs() <= PIVOT_TOL {
            return Step::Retry;
        }
        self.track_degeneracy(t_best);
        let entering =
            if sigma > 0.0 { self.lp.lower[q] + t_best } else { self.lp.upper[q] - t_best };
        self.commit_pivot(q, w, nz, r, leave_state, entering, sigma * t_best);
        Step::Progress
    }

    fn flip_bound(&mut self, q: usize, sigma: f64, t_flip: f64, w: &[f64], nz: &[usize]) {
        self.step_values(w, nz, sigma * t_flip);
        self.ws.state[q] = if sigma > 0.0 { VState::AtUpper } else { VState::AtLower };
    }

    /// Refactor + recompute and allow a bounded number of retries.
    fn restart(&mut self) -> bool {
        self.restarts += 1;
        if self.restarts > 8 {
            return false;
        }
        self.refactor_full().is_ok()
    }

    /// Entering candidate by current pricing mode, `None` if dual
    /// feasible. Candidates are produced in index order (Bland safe).
    fn price(&self) -> Option<usize> {
        let tol = self.opts.tolerance.max(1e-9);
        let Workspace { dvec, state, fixed, pricer, .. } = &*self.ws;
        // one rarely-taken branch per column: a basic or fixed column
        // prices at zero, which no tolerance lets through
        let candidates = (0..self.lp.ncols()).filter_map(|j| {
            let sign = match state[j] {
                VState::Basic(_) => 0.0,
                VState::AtLower => -1.0,
                VState::AtUpper => 1.0,
            };
            let viol = if fixed[j] { 0.0 } else { sign * dvec[j] };
            (viol > tol).then_some((j, viol))
        });
        pricer.select(candidates)
    }

    // ---- phase 2: Devex primal with Harris ratio test ---------------------

    fn phase2(&mut self) -> LpStatus {
        self.compute_duals_phase2();
        loop {
            if self.broken || self.iterations >= self.opts.max_iterations {
                return LpStatus::IterLimit;
            }
            if self.deadline_hit() {
                return LpStatus::TimeLimit;
            }
            self.iterations += 1;
            if self.iterations.is_multiple_of(REFRESH_EVERY) {
                if self.refactor_full().is_err() {
                    return LpStatus::IterLimit;
                }
                self.compute_duals_phase2();
            }
            // a committed pivot can drift an almost-tight basic value
            // past its bound; fall back to phase 1 if it ever exceeds
            // the tolerance meaningfully (rare, degenerate models)
            let Some(q) = self.price() else {
                if self.infeasibility() > 1e-5 {
                    let st = self.phase1();
                    if st != LpStatus::Optimal {
                        return st;
                    }
                    self.compute_duals_phase2();
                    continue;
                }
                return LpStatus::Optimal;
            };
            let sigma: f64 = if self.ws.state[q] == VState::AtLower { 1.0 } else { -1.0 };
            let (w, nz) = self.take_entering(q);
            let step = self.phase2_step(q, sigma, &w, &nz);
            self.put_entering(w, nz);
            match step {
                Step::Unbounded => return LpStatus::Unbounded,
                Step::Retry => {
                    if self.restart() {
                        self.compute_duals_phase2();
                        continue;
                    }
                    return LpStatus::IterLimit;
                }
                Step::Progress => {}
            }
        }
    }

    fn phase2_step(&mut self, q: usize, sigma: f64, w: &[f64], nz: &[usize]) -> Step {
        // Harris pass 1: relaxed step bound
        let mut t_relaxed = f64::INFINITY;
        for &pos in nz {
            let wi = w[pos];
            if wi.abs() <= PIVOT_TOL {
                continue;
            }
            let rate = -sigma * wi;
            let (l, u, v) = (self.ws.basic_lo[pos], self.ws.basic_hi[pos], self.ws.beta[pos]);
            let limit = if rate < 0.0 && l.is_finite() {
                (v - l + HARRIS_DELTA) / -rate
            } else if rate > 0.0 && u.is_finite() {
                (u - v + HARRIS_DELTA) / rate
            } else {
                continue;
            };
            t_relaxed = t_relaxed.min(limit);
        }
        // a basic value drifted past its bound by more than the Harris
        // delta would make t_relaxed negative and pass 2 reject every
        // blocking row — clamp so the drifted row wins a degenerate
        // pivot that pulls it back onto its bound instead
        t_relaxed = t_relaxed.max(0.0);
        let t_flip = self.lp.upper[q] - self.lp.lower[q];
        if t_relaxed.is_infinite() && !t_flip.is_finite() {
            return Step::Unbounded;
        }
        // Harris pass 2: among rows whose strict limit fits under the
        // relaxed bound, take the largest pivot magnitude. In Bland
        // mode the classic rule applies instead — smallest strict
        // limit, ties by smallest basis column index — because Bland's
        // anti-cycling guarantee needs lowest-index tie-breaking on
        // BOTH the entering and the leaving side.
        let bland = self.ws.pricer.bland();
        let mut choice: Option<(usize, VState, f64)> = None;
        let mut best_mag = 0.0f64;
        for &pos in nz {
            let wi = w[pos];
            if wi.abs() <= PIVOT_TOL {
                continue;
            }
            let rate = -sigma * wi;
            let (l, u, v) = (self.ws.basic_lo[pos], self.ws.basic_hi[pos], self.ws.beta[pos]);
            let (limit, st) = if rate < 0.0 && l.is_finite() {
                (((v - l).max(0.0)) / -rate, VState::AtLower)
            } else if rate > 0.0 && u.is_finite() {
                (((u - v).max(0.0)) / rate, VState::AtUpper)
            } else {
                continue;
            };
            if limit > t_relaxed {
                continue;
            }
            let better = match choice {
                None => true,
                Some((rc, _, tc)) => {
                    if bland {
                        limit < tc - 1e-12
                            || (limit <= tc + 1e-12 && self.ws.basis[pos] < self.ws.basis[rc])
                    } else {
                        wi.abs() > best_mag
                    }
                }
            };
            if better {
                choice = Some((pos, st, limit));
                best_mag = wi.abs();
            }
        }
        let t_rows = choice.map_or(f64::INFINITY, |(_, _, t)| t);
        if t_flip <= t_rows {
            if !t_flip.is_finite() {
                return Step::Unbounded;
            }
            self.flip_bound(q, sigma, t_flip, w, nz);
            self.track_degeneracy(t_flip);
            return Step::Progress;
        }
        let (r, leave_state, t) = choice.expect("t_rows finite implies a blocking row");
        if w[r].abs() <= PIVOT_TOL {
            return Step::Retry;
        }
        self.track_degeneracy(t);

        // pivot row for reduced-cost + Devex maintenance (on B_old)
        self.pivot_row(r, 1e-12, |j, _| j != q);
        let pivot = w[r];
        let theta = self.ws.dvec[q] / pivot;
        let jout = self.ws.basis[r];
        for &(j, a) in &self.ws.alpha_row {
            self.ws.dvec[j] -= theta * a;
        }
        self.ws.dvec[jout] = -theta;
        self.ws.dvec[q] = 0.0;
        self.ws.pricer.update(q, pivot, jout, &self.ws.alpha_row);

        let entering = if sigma > 0.0 { self.lp.lower[q] + t } else { self.lp.upper[q] - t };
        // a broken factorization cannot price: the loop head ends the solve
        if !self.commit_pivot(q, w, nz, r, leave_state, entering, sigma * t) && !self.broken {
            self.compute_duals_phase2();
        }
        Step::Progress
    }

    // ---- dual simplex -----------------------------------------------------

    fn dual(&mut self) -> LpStatus {
        loop {
            if self.broken || self.iterations >= self.opts.max_iterations {
                return LpStatus::IterLimit;
            }
            if self.deadline_hit() {
                return LpStatus::TimeLimit;
            }
            self.iterations += 1;
            if self.iterations.is_multiple_of(REFRESH_EVERY) {
                if self.refactor_full().is_err() {
                    return LpStatus::IterLimit;
                }
                self.compute_duals_phase2();
            }

            // leaving: the most bound-violating basic variable
            let Some((r, below)) = self.ws.infeasible.leaving() else {
                return LpStatus::Optimal; // primal feasible + dual feasible
            };

            self.pivot_row(r, PIVOT_TOL, |_, fixed| !fixed);

            // dual ratio test (Harris flavour): eligibility keeps theta's
            // sign so reduced costs stay dual feasible. One pass over the
            // pivot row finds the relaxed bound and keeps the eligible
            // entries with their ratios; the choice walks only those.
            let Workspace { alpha_row, candidates, state, dvec, pricer, .. } = &mut *self.ws;
            let dtol = self.opts.tolerance.max(1e-9);
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
                    relaxed = relaxed.min((d + dtol) / a.abs());
                    candidates.push((j, a, d / a.abs()));
                }
            }
            if relaxed.is_infinite() {
                return LpStatus::Infeasible; // dual unbounded
            }
            let bland = pricer.bland();
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
                    self.compute_duals_phase2();
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
                self.compute_duals_phase2();
            }
        }
    }

    // ---- extraction -------------------------------------------------------

    fn finish(&self, status: LpStatus) -> SparseSolution {
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
            LpStatus::Unbounded => f64::NEG_INFINITY,
            _ => x.iter().zip(&self.lp.cost).map(|(xi, ci)| xi * ci).sum(),
        };
        SparseSolution {
            status,
            objective,
            x,
            iterations: self.iterations,
            basis: Basis { cols: self.ws.basis.clone(), state: self.ws.state.clone() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, LpOptions, LpStatus, Model, VarKind};

    fn solve(m: &Model) -> SparseSolution {
        let lp = SparseLp::from_model(m).expect("valid model");
        lp.solve_primal(&LpOptions::default()).expect("solvable")
    }

    #[test]
    fn trivial_bounds_only() {
        let mut m = Model::new("t");
        m.add_var("x", 1.0, 5.0, 1.0, VarKind::Continuous);
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn textbook_2d() {
        let mut m = Model::new("dantzig");
        let x = m.add_var("x", 0.0, f64::INFINITY, -3.0, VarKind::Continuous);
        let y = m.add_var("y", 0.0, f64::INFINITY, -5.0, VarKind::Continuous);
        m.add_con(vec![(x, 1.0)], Cmp::Le, 4.0);
        m.add_con(vec![(y, 2.0)], Cmp::Le, 12.0);
        m.add_con(vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 36.0).abs() < 1e-8, "{}", s.objective);
        assert!((s.x[0] - 2.0).abs() < 1e-8);
        assert!((s.x[1] - 6.0).abs() < 1e-8);
    }

    #[test]
    fn equalities_and_ge_need_phase1() {
        let mut m = Model::new("eq");
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0, VarKind::Continuous);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0, VarKind::Continuous);
        m.add_con(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
        m.add_con(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 4.0);
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] - 7.0).abs() < 1e-8, "{:?}", s.x);
        assert!((s.x[1] - 3.0).abs() < 1e-8);

        let mut m = Model::new("ge");
        let x = m.add_var("x", 0.0, f64::INFINITY, 2.0, VarKind::Continuous);
        let y = m.add_var("y", 0.0, f64::INFINITY, 3.0, VarKind::Continuous);
        m.add_con(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 10.0);
        m.add_con(vec![(x, 1.0)], Cmp::Ge, 2.0);
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-8, "{}", s.objective);
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let mut m = Model::new("inf");
        let x = m.add_var("x", 0.0, 1.0, 1.0, VarKind::Continuous);
        m.add_con(vec![(x, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(solve(&m).status, LpStatus::Infeasible);

        let mut m = Model::new("unb");
        let x = m.add_var("x", 0.0, f64::INFINITY, -1.0, VarKind::Continuous);
        let y = m.add_var("y", 0.0, f64::INFINITY, 0.0, VarKind::Continuous);
        m.add_con(vec![(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
        assert_eq!(solve(&m).status, LpStatus::Unbounded);
    }

    #[test]
    fn bound_flips_on_boxed_vars() {
        let mut m = Model::new("ub");
        let x = m.add_var("x", 0.0, 2.0, -1.0, VarKind::Continuous);
        let y = m.add_var("y", 0.0, 3.0, -1.0, VarKind::Continuous);
        let z = m.add_var("z", 0.0, 4.0, -1.0, VarKind::Continuous);
        m.add_con(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Le, 10.0);
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 9.0).abs() < 1e-8);
    }

    #[test]
    fn negative_lower_bounds_native() {
        // min x + y, x >= -5, x + y >= 0, y in [0,3] -> objective 0
        let mut m = Model::new("shift");
        let x = m.add_var("x", -5.0, f64::INFINITY, 1.0, VarKind::Continuous);
        let y = m.add_var("y", 0.0, 3.0, 1.0, VarKind::Continuous);
        m.add_con(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 0.0);
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(s.objective.abs() < 1e-8, "{}", s.objective);
    }

    #[test]
    fn degenerate_beale_terminates() {
        let mut m = Model::new("beale");
        let x1 = m.add_var("x1", 0.0, f64::INFINITY, -0.75, VarKind::Continuous);
        let x2 = m.add_var("x2", 0.0, f64::INFINITY, 150.0, VarKind::Continuous);
        let x3 = m.add_var("x3", 0.0, f64::INFINITY, -0.02, VarKind::Continuous);
        let x4 = m.add_var("x4", 0.0, f64::INFINITY, 6.0, VarKind::Continuous);
        m.add_con(vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], Cmp::Le, 0.0);
        m.add_con(vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], Cmp::Le, 0.0);
        m.add_con(vec![(x3, 1.0)], Cmp::Le, 1.0);
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 0.05).abs() < 1e-6, "{}", s.objective);
    }

    #[test]
    fn dual_resolve_after_fixing_matches_fresh_solve() {
        // knapsack LP: fix one variable, warm-start the re-solve
        let mut m = Model::new("warm");
        let a = m.add_var("a", 0.0, 1.0, -10.0, VarKind::Binary);
        let b = m.add_var("b", 0.0, 1.0, -13.0, VarKind::Binary);
        let c = m.add_var("c", 0.0, 1.0, -7.0, VarKind::Binary);
        m.add_con(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 6.0);
        let mut lp = SparseLp::from_model(&m).unwrap();
        let root = lp.solve_primal(&LpOptions::default()).unwrap();
        assert_eq!(root.status, LpStatus::Optimal);

        for (var, fix) in [(0usize, 0.0), (0, 1.0), (1, 0.0), (2, 1.0)] {
            lp.set_bounds(var, fix, fix);
            let warm = lp.solve_dual_from(&root.basis, &LpOptions::default()).unwrap();
            let fresh = lp.solve_primal(&LpOptions::default()).unwrap();
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
        let a = m.add_var("a", 0.0, 1.0, 1.0, VarKind::Binary);
        let b = m.add_var("b", 0.0, 1.0, 1.0, VarKind::Binary);
        m.add_con(vec![(a, 1.0), (b, 1.0)], Cmp::Le, 1.0);
        let mut lp = SparseLp::from_model(&m).unwrap();
        let root = lp.solve_primal(&LpOptions::default()).unwrap();
        lp.set_bounds(0, 1.0, 1.0);
        lp.set_bounds(1, 1.0, 1.0);
        let warm = lp.solve_dual_from(&root.basis, &LpOptions::default()).unwrap();
        assert_eq!(warm.status, LpStatus::Infeasible);
    }

    /// A pivot whose update is refused and whose refactorization
    /// then finds the new basis singular must stop the solve, not price
    /// on the half-built factorization. The entering column handed to the
    /// ratio test claims a tiny pivot in row 0, where column `x0` really
    /// has none: the update refuses it (1e-9 against a 10 elsewhere) and
    /// the refactor sees a basis with an empty row 0.
    #[test]
    fn a_singular_refactorization_ends_the_solve() {
        let mut m = Model::new("singular");
        let x0 = m.add_var("x0", 0.0, 1.0, 0.0, VarKind::Continuous);
        let x1 = m.add_var("x1", 0.0, 1.0, 0.0, VarKind::Continuous);
        m.add_con(vec![(x1, 1.0)], Cmp::Le, 0.0);
        m.add_con(vec![(x0, 1.0), (x1, 1.0)], Cmp::Ge, -5.0);
        let lp = SparseLp::from_model(&m).unwrap();
        let opts = LpOptions::default();
        let mut ws = Workspace::new(&lp);
        let mut s = Simplex::new(&lp, &opts, &mut ws);
        s.init_logical_basis();
        s.refactor_full().unwrap();
        s.compute_duals_phase2();
        let step = s.phase2_step(0, 1.0, &[1e-9, 10.0], &[0, 1]);
        assert!(matches!(step, Step::Progress));
        assert!(s.broken, "x0 in row 0's position leaves row 0 empty");
        assert_eq!(s.dual(), LpStatus::IterLimit);
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
            let x = m.add_var(format!("x{i}"), 0.0, 10.0, 1.0 + i as f64, VarKind::Continuous);
            m.add_con(vec![(x, 1.0)], Cmp::Ge, 1.0);
        }
        let lp = SparseLp::from_model(&m).unwrap();
        let one_more: Vec<LpOptions> =
            (1..=9).map(|k| LpOptions { max_iterations: k, ..LpOptions::default() }).collect();
        let uncapped = LpOptions::default();
        let mut ws = Workspace::new(&lp);
        let mut s = Simplex::new(&lp, &uncapped, &mut ws);
        s.init_from_basis(&lp.slack_basis()).unwrap();
        for (k, cap) in one_more.iter().enumerate() {
            assert!(s.restart(), "retry {} follows a committed pivot", k + 1);
            s.compute_duals_phase2();
            s.opts = cap;
            assert_eq!((s.dual(), s.iterations), (LpStatus::IterLimit, k as u64 + 1));
        }
        s.opts = &uncapped;
        assert_eq!(s.dual(), LpStatus::Optimal);
        let in_a_row: Vec<bool> = (0..9).map(|_| s.restart()).collect();
        assert_eq!(in_a_row, [true, true, true, true, true, true, true, true, false]);
    }

    #[test]
    fn badly_scaled_rows_survive_equilibration() {
        let mut m = Model::new("scale");
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0, VarKind::Continuous);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0, VarKind::Continuous);
        m.add_con(vec![(x, 2.5e10), (y, 1e10)], Cmp::Ge, 5e10);
        m.add_con(vec![(x, 1e-6), (y, 3e-6)], Cmp::Ge, 4e-6);
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(2.5e10 * s.x[0] + 1e10 * s.x[1] >= 5e10 * (1.0 - 1e-7));
        assert!(1e-6 * s.x[0] + 3e-6 * s.x[1] >= 4e-6 * (1.0 - 1e-7));
    }

    #[test]
    fn no_constraint_model_handled() {
        let mut m = Model::new("empty");
        m.add_var("x", 0.0, 2.0, -1.0, VarKind::Continuous);
        m.add_var("y", -1.0, f64::INFINITY, 1.0, VarKind::Continuous);
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 3.0).abs() < 1e-9, "{}", s.objective);
    }
}
