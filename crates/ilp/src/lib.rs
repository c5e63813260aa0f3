//! # gomil-ilp — a small mixed-integer linear programming solver
//!
//! This crate is the optimization substrate of the GOMIL reproduction. The
//! paper solves its formulations with Gurobi; no comparable solver is
//! available as an offline Rust crate, so this crate implements the required
//! subset from scratch:
//!
//! * a [`Model`] builder with continuous/integer/binary variables, linear
//!   constraints and a linear objective;
//! * a sparse revised-simplex engine (CSC constraint storage, product-form
//!   inverse with periodic refactorization): a bounded-variable two-phase
//!   primal plus a dual simplex for warm restarts from a cached basis;
//! * activity-based [presolve](crate::presolve::presolve);
//! * [branch and bound](crate::branch) with warm starts, parent-basis
//!   dual-simplex reoptimization at child nodes, round-and-repair
//!   heuristics, and time/node limits;
//! * the standard [linearizations](crate::Model::and_binary) (binary
//!   products, OR, exact max, big-M indicators) that the paper's prefix IP
//!   relies on;
//! * CPLEX LP-format export for debugging.
//!
//! ## Example
//!
//! ```
//! use gomil_ilp::{Model, Cmp, Sense};
//!
//! # fn main() -> Result<(), gomil_ilp::SolveError> {
//! // Small production-planning MILP.
//! let mut m = Model::new("plan");
//! let x = m.add_integer("x", 0.0, 100.0);
//! let y = m.add_integer("y", 0.0, 100.0);
//! m.add_constraint("machine", 2.0 * x + 1.0 * y, Cmp::Le, 10.0);
//! m.add_constraint("labour", 1.0 * x + 3.0 * y, Cmp::Le, 15.0);
//! m.set_objective(3.0 * x + 4.0 * y, Sense::Maximize);
//! let sol = m.solve()?;
//! assert!(sol.is_optimal());
//! assert_eq!(sol.objective(), 25.0); // x = 3, y = 4
//! # Ok(())
//! # }
//! ```
//!
//! ## Scope and limitations
//!
//! The solver targets the model sizes that appear in this repository (up to
//! a few thousand rows/columns after presolve). The LP engine stores the
//! constraint matrix once in compressed sparse column form and keeps `B⁻¹`
//! as an eta file, so memory scales with the nonzero count rather than
//! rows × columns; there is no LU factorization or Markowitz pivoting, so
//! numerically hostile bases may still force a from-scratch primal solve.
//! Every structural variable must have at least one finite bound for the
//! initial basis construction; unbounded-below-and-above variables are
//! supported only while they stay basic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod certify;
mod expr;
mod heur;
mod linearize;
mod lp_format;
mod model;
pub mod presolve;
mod propagate;
mod search;
pub(crate) mod simplex;
mod solution;

pub use branch::{BranchConfig, CutMode};
pub use certify::{certify, certify_values, Certificate, CertifyError};
pub use expr::{LinExpr, Var};
pub use gomil_budget::{Budget, BudgetChecker, BudgetExceeded};
pub use lp_format::LpParseError;
pub use model::{Cmp, Model, Sense, VarKind};
pub use presolve::{PresolveOpts, Presolved, ReductionStats};
pub use simplex::{Pricing, FEAS_TOL};
pub use solution::{
    IncumbentEvent, IncumbentSource, RootProfile, Solution, SolveError, SolveStatus,
    WarmStartStatus,
};
