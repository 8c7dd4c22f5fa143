//! The modelling layer: variables, linear constraints, objective.
//!
//! Kept intentionally small — just enough structure for the steady-state
//! mapping formulations and for the solver test-suite. Only minimisation
//! is supported (maximise by negating the objective). Every variable needs
//! a finite lower bound, and a variable with a negative cost a finite
//! upper bound too: then the all-slack basis, which rests every
//! structural on a bound, is dual feasible, and the dual simplex starts
//! from it with no phase 1. Every cost of Linear Program (1) is ≥ 0.
//!
//! [`Model::certify`] is the solver's referee: it checks an answer and
//! its row duals against the model's own rows, with no factorization.

use crate::revised::{SparseLp, SparseSolution};
use std::fmt;

/// Identifier of a model variable (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

impl VarId {
    /// Raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Continuous or binary. (General integers are not needed by the paper's
/// formulation: α and β are 0/1, T is rational.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Rational variable.
    Continuous,
    /// 0/1 variable (relaxed to `[0,1]` in LP solves, branched in B&B).
    Binary,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `≤ rhs`
    Le,
    /// `= rhs`
    Eq,
    /// `≥ rhs`
    Ge,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub lo: f64,
    pub hi: f64,
    pub obj: f64,
    pub kind: VarKind,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    /// Sparse row: (column, coefficient), columns strictly increasing.
    pub terms: Vec<(usize, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
    /// Added by [`Model::add_lazy_con`]: branch-and-bound leaves the row
    /// out of its LP until a node's optimum breaks it.
    pub lazy: bool,
}

impl Constraint {
    /// The row's magnitude `max(|rhs|, max |coefficient|)`: the scale
    /// the solver equilibrates it to and the certificate measures it in.
    pub(crate) fn magnitude(&self) -> f64 {
        self.terms.iter().fold(self.rhs.abs(), |acc, &(_, a)| acc.max(a.abs()))
    }

    /// How far `x` breaks the row (0 when it holds); a non-finite
    /// activity breaks it infinitely, so no NaN slips through a `max`.
    pub(crate) fn violation(&self, x: &[f64]) -> f64 {
        let lhs: f64 = self.terms.iter().map(|&(c, a)| a * x[c]).sum();
        let viol = match self.cmp {
            Cmp::Le => lhs - self.rhs,
            Cmp::Ge => self.rhs - lhs,
            Cmp::Eq => (lhs - self.rhs).abs(),
        };
        if lhs.is_finite() && !viol.is_nan() {
            viol.max(0.0)
        } else {
            f64::INFINITY
        }
    }

    /// The row's own scale: [`Constraint::magnitude`], 1 for an all-zero
    /// row. [`Constraint::violation`] over it is the measure of the
    /// solver's feasibility tolerance.
    pub(crate) fn scale(&self) -> f64 {
        match self.magnitude() {
            s if s > 0.0 => s,
            _ => 1.0,
        }
    }
}

/// Termination status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal (within tolerances).
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// Iteration limit hit before convergence.
    IterLimit,
    /// The branch-and-bound search's [`Stop`](crate::Stop) fired
    /// before convergence; a plain LP solve never stops on one.
    TimeLimit,
}

/// Errors raised before the solver even starts.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// A variable has `lo > hi` (often produced by contradictory B&B
    /// fixings; treated as infeasible by branch-and-bound).
    EmptyDomain(VarId),
    /// A variable has an infinite/NaN bound where a finite one is needed.
    BadBound(VarId),
    /// A coefficient or rhs is NaN/infinite.
    BadCoefficient,
    /// A variable has a negative cost and no finite upper bound: its
    /// column would leave the slack basis dual infeasible (and may make
    /// the LP unbounded).
    NegativeCostUncapped(VarId),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::EmptyDomain(v) => write!(f, "variable {v} has an empty domain"),
            SolveError::BadBound(v) => write!(f, "variable {v} needs a finite lower bound"),
            SolveError::BadCoefficient => write!(f, "non-finite coefficient in model"),
            SolveError::NegativeCostUncapped(v) => {
                write!(f, "variable {v} has a negative cost and no finite upper bound")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Options for a plain LP solve.
#[derive(Debug, Clone)]
pub struct LpOptions {
    /// Hard cap on simplex iterations.
    pub max_iterations: u64,
}

impl Default for LpOptions {
    fn default() -> Self {
        LpOptions { max_iterations: 200_000 }
    }
}

/// A linear model: `minimize c·x  s.t.  A x {≤,=,≥} b,  lo ≤ x ≤ hi`.
#[derive(Debug, Clone, Default)]
pub struct Model {
    name: String,
    pub(crate) vars: Vec<Variable>,
    pub(crate) cons: Vec<Constraint>,
}

impl Model {
    /// Fresh empty model.
    pub fn new(name: impl Into<String>) -> Self {
        Model { name: name.into(), vars: Vec::new(), cons: Vec::new() }
    }

    /// Model name (for logs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a variable with bounds `[lo, hi]` (use `f64::INFINITY` for a
    /// free upper bound), objective coefficient `obj` and kind.
    pub fn add_var(&mut self, lo: f64, hi: f64, obj: f64, kind: VarKind) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(Variable { lo, hi, obj, kind });
        id
    }

    /// Add a constraint `Σ coef·var  cmp  rhs`. Duplicate variables in
    /// `terms` are summed.
    pub fn add_con(&mut self, terms: Vec<(VarId, f64)>, cmp: Cmp, rhs: f64) {
        self.push_con(terms, cmp, rhs, false);
    }

    /// Add a constraint like [`Model::add_con`], marked *lazy*: a row
    /// expected to hold at most optima without being imposed. It is a row
    /// of the model like any other — [`Model::max_violation`],
    /// [`Model::certify`], [`Model::columns`] and [`Model::solve_lp`]
    /// all see it — and only [`crate::bb::solve_mip`] defers it, adding
    /// it to its LP when a node's optimum breaks it.
    pub fn add_lazy_con(&mut self, terms: Vec<(VarId, f64)>, cmp: Cmp, rhs: f64) {
        self.push_con(terms, cmp, rhs, true);
    }

    fn push_con(&mut self, terms: Vec<(VarId, f64)>, cmp: Cmp, rhs: f64, lazy: bool) {
        let mut row: Vec<(usize, f64)> = terms.into_iter().map(|(v, c)| (v.0, c)).collect();
        row.sort_unstable_by_key(|&(c, _)| c);
        let mut dedup: Vec<(usize, f64)> = Vec::with_capacity(row.len());
        for (c, v) in row {
            match dedup.last_mut() {
                Some((lc, lv)) if *lc == c => *lv += v,
                _ => dedup.push((c, v)),
            }
        }
        dedup.retain(|&(_, v)| v != 0.0);
        self.cons.push(Constraint { terms: dedup, cmp, rhs, lazy });
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn n_cons(&self) -> usize {
        self.cons.len()
    }

    /// Ids of the binary variables, in index order.
    pub fn binary_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Binary)
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// Current bounds of a variable.
    pub fn bounds(&self, v: VarId) -> (f64, f64) {
        (self.vars[v.0].lo, self.vars[v.0].hi)
    }

    /// Overwrite the bounds of a variable (used by branch-and-bound to fix
    /// binaries: `set_bounds(v, 1.0, 1.0)`).
    pub fn set_bounds(&mut self, v: VarId, lo: f64, hi: f64) {
        self.vars[v.0].lo = lo;
        self.vars[v.0].hi = hi;
    }

    /// Objective value of a given point (no feasibility check).
    pub fn objective_of(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, &xi)| v.obj * xi).sum()
    }

    /// Maximum constraint violation of a point, for feasibility checks in
    /// tests and incumbent validation. Bound violations included, lazy
    /// rows too. A point of the wrong length, a non-finite entry or a
    /// non-finite row activity is an infinite violation: a NaN point is
    /// never feasible.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        if x.len() != self.n_vars() {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        for (var, &xi) in self.vars.iter().zip(x) {
            if !xi.is_finite() {
                return f64::INFINITY;
            }
            worst = worst.max(var.lo - xi).max(xi - var.hi);
        }
        self.cons.iter().fold(worst, |worst, con| worst.max(con.violation(x)))
    }

    /// Reject what the solver cannot take: every variable needs a finite
    /// lower bound, non-crossed bounds, a finite objective coefficient
    /// and, when that coefficient is negative, a finite upper bound;
    /// every row needs finite coefficients and a finite right-hand side.
    /// `SparseLp::from_model` calls it, so [`Model::solve_lp`] and
    /// branch-and-bound report the same [`SolveError`]s.
    pub(crate) fn validate(&self) -> Result<(), SolveError> {
        for (i, v) in self.vars.iter().enumerate() {
            // NaN upper bounds must error too: every comparison below
            // is false for NaN, which would silently fix the variable
            // at its lower bound instead of surfacing the bad model
            if !v.lo.is_finite() || v.hi.is_nan() {
                return Err(SolveError::BadBound(VarId(i)));
            }
            if v.hi < v.lo - 1e-12 {
                return Err(SolveError::EmptyDomain(VarId(i)));
            }
            if !v.obj.is_finite() {
                return Err(SolveError::BadCoefficient);
            }
            if v.obj < 0.0 && v.hi.is_infinite() {
                return Err(SolveError::NegativeCostUncapped(VarId(i)));
            }
        }
        for con in &self.cons {
            if !con.rhs.is_finite() || con.terms.iter().any(|&(_, a)| !a.is_finite()) {
                return Err(SolveError::BadCoefficient);
            }
        }
        Ok(())
    }

    /// The constraint matrix as compressed sparse columns (`n_cons`
    /// rows × `n_vars` columns), built straight from the sparse row
    /// triplets with no densification. This is the storage the revised
    /// simplex works on; formulation layers expose it for inspection.
    pub fn columns(&self) -> crate::sparse::ColMatrix {
        crate::sparse::ColMatrix::from_rows(self.cons.len(), self.vars.len(), || {
            self.cons.iter().map(|c| c.terms.as_slice())
        })
    }

    /// Solve the continuous relaxation (binaries relaxed to `[0,1]`,
    /// which their bounds already encode) with the dual simplex from the
    /// all-slack basis.
    pub fn solve_lp(&self, opts: &LpOptions) -> Result<SparseSolution, SolveError> {
        let lp = SparseLp::from_model(self)?;
        let sol = lp.solve_dual_from(&lp.slack_basis(), opts);
        // validation admitted only models whose slack basis is dual
        // feasible, and a fresh model has no emptied domain
        Ok(sol.expect("the slack basis of a validated model is a dual start"))
    }

    /// Check that `x` is an optimal point of the continuous relaxation
    /// and `y` (one dual per row, [`SparseSolution::duals`]) proves it,
    /// using only the model's own rows — no basis, no factorization.
    /// Each row is measured in its own scale `s_i = max(|b_i|, max_j
    /// |a_ij|)` (1 when both are zero), and `tol` is relative:
    ///
    /// * **primal feasibility**: `x` within its bounds by
    ///   `tol·(1 + |bound|)`, each row within `tol·s_i`;
    /// * **reduced costs** `d_j = c_j − Σ_i y_i a_ij`, measured against
    ///   `1 + |c_j| + Σ_i |y_i a_ij|`: a variable resting at its lower
    ///   bound may have `d_j ≥ 0` only, at its upper bound `d_j ≤ 0`
    ///   only, strictly between them `d_j = 0`;
    /// * **row-dual signs** by [`Cmp`], on `y_i·s_i`: `≤` rows need
    ///   `y_i ≤ 0`, `≥` rows `y_i ≥ 0`, `=` rows either;
    /// * **complementary slackness**: `|y_i|·|a_i·x − b_i| ≤ tol·(1 + |c·x|)`;
    /// * **the duality gap**: `c·x` minus the dual objective `b·y +
    ///   Σ_j d_j·(the bound of x_j that d_j's sign prices)` at most
    ///   `tol·(1 + |c·x|)` in magnitude.
    ///
    /// Feasible `x`, sign-correct `y` and a zero gap make `x` optimal by
    /// weak duality; the other two checks name where a gap comes from.
    pub fn certify(&self, x: &[f64], y: &[f64], tol: f64) -> Result<(), Uncertified> {
        if x.len() != self.vars.len() || y.len() != self.cons.len() {
            return Err(Uncertified::Shape);
        }
        // an infinite bound is never near: `∞ ≤ ∞` would say it is
        let near = |a: f64, b: f64| b.is_finite() && (a - b).abs() <= tol * (1.0 + b.abs());
        for (j, (v, &xj)) in self.vars.iter().zip(x).enumerate() {
            if xj < v.lo - tol * (1.0 + v.lo.abs()) || xj > v.hi + tol * (1.0 + v.hi.abs()) {
                return Err(Uncertified::Bound(VarId(j)));
            }
        }
        // reduced costs, with the magnitude each one is measured against
        let mut d: Vec<f64> = self.vars.iter().map(|v| v.obj).collect();
        let mut size: Vec<f64> = self.vars.iter().map(|v| 1.0 + v.obj.abs()).collect();
        let primal = self.objective_of(x);
        let mut dual = 0.0;
        for (i, (con, &yi)) in self.cons.iter().zip(y).enumerate() {
            let scale = con.scale();
            let residual: f64 = con.terms.iter().map(|&(c, a)| a * x[c]).sum::<f64>() - con.rhs;
            let broken = match con.cmp {
                Cmp::Le => residual,
                Cmp::Ge => -residual,
                Cmp::Eq => residual.abs(),
            };
            if broken > tol * scale {
                return Err(Uncertified::Row(i));
            }
            let wrong_sign = match con.cmp {
                Cmp::Le => yi * scale,
                Cmp::Ge => -yi * scale,
                Cmp::Eq => 0.0,
            };
            if wrong_sign > tol {
                return Err(Uncertified::DualSign(i));
            }
            if (yi * residual).abs() > tol * (1.0 + primal.abs()) {
                return Err(Uncertified::Slackness(i));
            }
            for &(c, a) in &con.terms {
                d[c] -= yi * a;
                size[c] += (yi * a).abs();
            }
            dual += yi * con.rhs;
        }
        for (j, (v, &xj)) in self.vars.iter().zip(x).enumerate() {
            let (at_lo, at_hi) = (near(xj, v.lo), near(xj, v.hi));
            let dj = d[j] / size[j];
            let priced = (dj < -tol && !at_hi) || (dj > tol && !at_lo);
            if priced {
                return Err(Uncertified::ReducedCost(VarId(j)));
            }
            // the bound a reduced cost prices: lower for d_j ≥ 0, upper
            // for d_j < 0 — lower again for a d_j < 0 within the
            // tolerance and no upper bound (beyond it, the check above
            // refused it)
            dual += d[j] * if d[j] < 0.0 && v.hi.is_finite() { v.hi } else { v.lo };
        }
        if !near(dual, primal) {
            return Err(Uncertified::Gap { primal, dual });
        }
        Ok(())
    }
}

/// The first check [`Model::certify`] found failing.
#[derive(Debug, Clone, PartialEq)]
pub enum Uncertified {
    /// `x` or `y` has the wrong length.
    Shape,
    /// `x` lies outside this variable's bounds.
    Bound(VarId),
    /// `x` breaks this row.
    Row(usize),
    /// This variable's reduced cost would improve the objective by
    /// moving it off where it rests.
    ReducedCost(VarId),
    /// This row's dual has the wrong sign for its [`Cmp`].
    DualSign(usize),
    /// This row is slack, yet its dual is not zero.
    Slackness(usize),
    /// The primal and dual objectives differ.
    Gap {
        /// `c·x`.
        primal: f64,
        /// The dual objective of `y`.
        dual: f64,
    },
}

impl fmt::Display for Uncertified {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Uncertified::Shape => write!(f, "x or y has the wrong length"),
            Uncertified::Bound(v) => write!(f, "{v} is out of its bounds"),
            Uncertified::Row(i) => write!(f, "row {i} is violated"),
            Uncertified::ReducedCost(v) => write!(f, "{v} has a reduced cost of the wrong sign"),
            Uncertified::DualSign(i) => write!(f, "row {i} has a dual of the wrong sign"),
            Uncertified::Slackness(i) => write!(f, "row {i} is slack with a non-zero dual"),
            Uncertified::Gap { primal, dual } => {
                write!(f, "duality gap: primal {primal:e}, dual {dual:e}")
            }
        }
    }
}

impl std::error::Error for Uncertified {}
