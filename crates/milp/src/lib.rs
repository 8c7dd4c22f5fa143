//! A from-scratch Linear Programming / Mixed-Integer Programming solver.
//!
//! The paper solves its mapping problem (§5, Linear Program (1)) with ILOG
//! CPLEX, stopped as soon as the incumbent is within 5 % of optimal. This
//! crate is the in-repo substitute:
//!
//! * [`revised`] — the one LP engine: a **sparse revised simplex**
//!   over compressed sparse columns ([`sparse`]), with an LU-factorized
//!   basis updated in product form ([`factor`]), Devex pricing with a
//!   Bland anti-cycling fallback ([`pricing`]), a Harris two-pass ratio
//!   test, a light presolve ([`presolve`]), and a bounded-variable
//!   **dual simplex** for warm-started re-solves. Variable bounds
//!   (`l ≤ x ≤ u`, including the `{0,1}` boxes of the relaxed binaries)
//!   are handled natively by the pivoting rules rather than as extra
//!   rows, which keeps the mapping LPs at a few thousand rows instead
//!   of tens of thousands.
//! * [`bb`] — branch-and-bound over the binary variables with best-first
//!   node selection, pseudo-cost branching, **dual-simplex warm starts**
//!   from the parent basis (a branch only tightens one binary's bounds,
//!   which is the dual simplex's home turf), seedable incumbents
//!   (the greedy heuristics of §6.3 make excellent warm starts), an
//!   *integral-completion* callback that turns fractional relaxations into
//!   feasible mappings, and the paper's relative-gap early stop.
//! * [`model`] — the tiny modelling layer shared by all of it.
//!
//! The solver is deliberately general: nothing in this crate knows about
//! streaming or the Cell. Correctness is established against two
//! exhaustive oracles that share no pivoting code with the engine:
//! vertex enumeration for LPs and exhaustive binary search for MIPs
//! (`src/tests.rs`); the formulation-derived instances are refereed by
//! `cellstream-core`'s brute-force mapper (`tests/milp_differential.rs`
//! at the workspace root).
//!
//! # Example
//!
//! ```
//! use cellstream_milp::model::{Model, Cmp, VarKind};
//!
//! // maximize x + 2y  s.t. x + y <= 4, x <= 3, y <= 2   (as minimize -x-2y)
//! let mut m = Model::new("demo");
//! let x = m.add_var("x", 0.0, 3.0, -1.0, VarKind::Continuous);
//! let y = m.add_var("y", 0.0, 2.0, -2.0, VarKind::Continuous);
//! m.add_con(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
//! let sol = m.solve_lp(&Default::default()).unwrap();
//! assert!((sol.objective - (-6.0)).abs() < 1e-8); // x=2, y=2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bb;
pub mod factor;
pub mod model;
pub mod presolve;
pub mod pricing;
pub mod revised;
pub mod sparse;

pub use bb::{MipOptions, MipResult, MipStatus};
pub use model::{Cmp, LpOptions, LpSolution, LpStatus, Model, SolveError, VarId, VarKind};
pub use revised::{Basis, SparseLp, SparseSolution};
pub use sparse::ColMatrix;

#[cfg(test)]
mod kernel_tests;
#[cfg(test)]
mod tests;
