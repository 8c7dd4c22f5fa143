//! The modelling layer: variables, linear constraints, objective.
//!
//! Kept intentionally small — just enough structure for the steady-state
//! mapping formulations and for the solver test-suite. Only minimisation
//! is supported (maximise by negating the objective); every variable needs
//! a finite lower bound (a nonbasic column rests at one of its bounds, and
//! the all-logical starting basis rests every structural at its lower one).

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
    /// Kept for debugging dumps; not read on the solve path.
    #[allow(dead_code)]
    pub name: String,
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
}

/// Termination status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal (within tolerances).
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Iteration limit hit before convergence.
    IterLimit,
    /// The [`LpOptions::deadline`] passed before convergence.
    TimeLimit,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Why the solve stopped.
    pub status: LpStatus,
    /// Objective value (meaningful for `Optimal`; best point found for
    /// `IterLimit`).
    pub objective: f64,
    /// Primal values in model-variable order.
    pub x: Vec<f64>,
    /// Simplex iterations used (both phases).
    pub iterations: u64,
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
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::EmptyDomain(v) => write!(f, "variable {v} has an empty domain"),
            SolveError::BadBound(v) => write!(f, "variable {v} needs a finite lower bound"),
            SolveError::BadCoefficient => write!(f, "non-finite coefficient in model"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Options for a plain LP solve.
#[derive(Debug, Clone)]
pub struct LpOptions {
    /// Hard cap on simplex iterations across both phases.
    pub max_iterations: u64,
    /// Feasibility / pricing tolerance.
    pub tolerance: f64,
    /// Optional wall-clock deadline checked *inside* the pivot loop, so
    /// one long LP cannot overshoot a branch-and-bound budget.
    pub deadline: Option<std::time::Instant>,
    /// Optional cooperative cancellation flag, checked alongside the
    /// deadline in the pivot loops: raising it stops the solve with
    /// [`LpStatus::TimeLimit`] within a few pivots.
    pub stop: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl Default for LpOptions {
    fn default() -> Self {
        LpOptions { max_iterations: 200_000, tolerance: 1e-8, deadline: None, stop: None }
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
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        lo: f64,
        hi: f64,
        obj: f64,
        kind: VarKind,
    ) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(Variable { name: name.into(), lo, hi, obj, kind });
        id
    }

    /// Add a constraint `Σ coef·var  cmp  rhs`. Duplicate variables in
    /// `terms` are summed.
    pub fn add_con(&mut self, terms: Vec<(VarId, f64)>, cmp: Cmp, rhs: f64) {
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
        self.cons.push(Constraint { terms: dedup, cmp, rhs });
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
    /// tests and incumbent validation. Bound violations included.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for v in self.vars.iter().zip(x.iter().enumerate()) {
            let (var, (_, &xi)) = v;
            worst = worst.max(var.lo - xi).max(xi - var.hi);
        }
        for con in &self.cons {
            let lhs: f64 = con.terms.iter().map(|&(c, a)| a * x[c]).sum();
            let viol = match con.cmp {
                Cmp::Le => lhs - con.rhs,
                Cmp::Ge => con.rhs - lhs,
                Cmp::Eq => (lhs - con.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }

    /// Reject what the solver cannot take: every variable needs a finite
    /// lower bound, non-crossed bounds and a finite objective
    /// coefficient; every row needs finite coefficients and a finite
    /// right-hand side. [`Model::solve_lp`] calls it *before* presolve —
    /// which would otherwise fold a `NaN` singleton row into a bound, or
    /// a `NaN` coefficient on a fixed column into a right-hand side, and
    /// lose the evidence — and `SparseLp::from_model` calls it for
    /// branch-and-bound, so both entry points report the same
    /// [`SolveError`]s.
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
    /// which their bounds already encode): a light presolve, then the
    /// sparse revised simplex from the all-logical basis.
    pub fn solve_lp(&self, opts: &LpOptions) -> Result<LpSolution, SolveError> {
        // validation must run before presolve: an EmptyDomain surfaces
        // as an error rather than an Infeasible verdict, and a
        // non-finite row is still there to be found
        self.validate()?;
        let pre = crate::presolve::presolve(self);
        if pre.verdict == Some(LpStatus::Infeasible) {
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                objective: f64::INFINITY,
                x: vec![0.0; self.n_vars()],
                iterations: 0,
            });
        }
        let lp = crate::revised::SparseLp::from_model(&pre.model)?;
        let sol = lp.solve_primal(opts)?;
        let x = pre.postsolve(&sol.x);
        let objective = match sol.status {
            LpStatus::Infeasible => f64::INFINITY,
            LpStatus::Unbounded => f64::NEG_INFINITY,
            _ => self.objective_of(&x),
        };
        Ok(LpSolution { status: sol.status, objective, x, iterations: sol.iterations })
    }
}
