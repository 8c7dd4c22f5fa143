//! A from-scratch Linear Programming / Mixed-Integer Programming solver.
//!
//! The paper solves its mapping problem (§5, Linear Program (1)) with ILOG
//! CPLEX, stopped as soon as the incumbent is within 5 % of optimal. This
//! crate is the in-repo substitute:
//!
//! * [`revised`] — the one LP engine: a bounded-variable **dual
//!   simplex** over compressed sparse columns ([`sparse`]), with an
//!   LU-factorized basis kept current by Forrest–Tomlin updates
//!   ([`factor`]), the leaving row read from the set of bound-violating
//!   basic positions, and a one-pass Harris ratio test with a Bland
//!   rule after degenerate runs. Variable bounds (`l ≤ x ≤ u`,
//!   including the `{0,1}` boxes of the relaxed binaries) are handled
//!   natively by the pivoting rules rather than as extra rows, which
//!   keeps the mapping LPs at a few thousand rows instead of tens of
//!   thousands. Every solve starts from a dual feasible basis: the
//!   all-slack one, which [`SparseLp::from_model`] guarantees by
//!   refusing a negative cost on a column with no finite upper bound
//!   ([`SolveError::NegativeCostUncapped`]; every cost of Linear
//!   Program (1) is ≥ 0), the same with a seed's zero-cost columns made
//!   basic in its equality rows ([`SparseLp::seeded_basis`], where
//!   branch-and-bound roots), or a parent node's optimal one.
//! * [`bb`] — branch-and-bound over the binary variables with best-first
//!   node selection, pseudo-cost branching, **dual-simplex warm starts**
//!   from the parent basis (a branch only tightens one binary's bounds,
//!   which is the dual simplex's home turf), seedable incumbents
//!   (the greedy heuristics of §6.3 make excellent warm starts, and a
//!   root whose objective prices one column starts with that column
//!   bounded below by half the best seed's value, released at its
//!   optimum), an
//!   *integral-completion* callback that turns fractional relaxations into
//!   feasible mappings, the paper's relative-gap early stop, and *lazy
//!   rows* ([`Model::add_lazy_con`]) that stay out of the LP until a
//!   node's optimum breaks one that moving its one zero-cost continuous
//!   column cannot repair; only those rows are added, the rest wait.
//! * [`model`] — the tiny modelling layer shared by all of it, and
//!   [`Model::certify`], which checks an optimal answer and its row
//!   duals against the model's own rows.
//! * [`stop`] — [`Stop`], the deadline-and-cancel value every planner
//!   in the workspace polls, down to this crate's pivot loops.
//!
//! The solver is deliberately general: nothing in this crate knows about
//! streaming or the Cell. Correctness is established against referees
//! that share no pivoting code with the engine: the optimality
//! certificate ([`Model::certify`]: primal and dual feasibility,
//! complementary slackness, a zero duality gap), vertex enumeration for
//! LPs and exhaustive binary search for MIPs (`src/tests.rs`); the
//! formulation-derived instances are refereed by `cellstream-core`'s
//! brute-force mapper and evaluator (`tests/milp_differential.rs` at the
//! workspace root).
//!
//! # Example
//!
//! ```
//! use cellstream_milp::model::{Model, Cmp, VarKind};
//!
//! // maximize x + 2y  s.t. x + y <= 4, x <= 3, y <= 2   (as minimize -x-2y)
//! let mut m = Model::new("demo");
//! let x = m.add_var(0.0, 3.0, -1.0, VarKind::Continuous);
//! let y = m.add_var(0.0, 2.0, -2.0, VarKind::Continuous);
//! m.add_con(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
//! let sol = m.solve_lp(&Default::default()).unwrap();
//! assert!((sol.objective - (-6.0)).abs() < 1e-8); // x=2, y=2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bb;
pub mod factor;
pub mod model;
pub mod revised;
pub mod sparse;
pub mod stop;

pub use bb::{MipOptions, MipResult, MipStatus};
pub use model::{Cmp, LpOptions, LpStatus, Model, SolveError, Uncertified, VarId, VarKind};
pub use revised::{Basis, SparseLp, SparseSolution};
pub use sparse::ColMatrix;
pub use stop::Stop;

#[cfg(test)]
mod kernel_tests;
#[cfg(test)]
mod tests;
