//! Mixed-integer linear programming model builder.
//!
//! A [`Model`] collects variables, linear constraints, and a linear
//! objective, then hands off to the [`branch`](crate::branch) module for
//! solving. The builder mirrors the structure of algebraic modelling
//! languages:
//!
//! ```
//! use gomil_ilp::{Model, Cmp, Sense};
//!
//! # fn main() -> Result<(), gomil_ilp::SolveError> {
//! let mut m = Model::new("knapsack");
//! let take_a = m.add_binary("a");
//! let take_b = m.add_binary("b");
//! m.add_constraint("weight", 3.0 * take_a + 4.0 * take_b, Cmp::Le, 5.0);
//! m.set_objective(5.0 * take_a + 6.0 * take_b, Sense::Maximize);
//! let sol = m.solve()?;
//! assert_eq!(sol.objective(), 6.0);
//! # Ok(())
//! # }
//! ```

use crate::branch::{self, BranchConfig};
use crate::certify;
use crate::expr::{LinExpr, Var};
use crate::solution::{Solution, SolveError};
use std::fmt;
use std::time::Instant;

/// The integrality class of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
    /// Integer restricted to `{0, 1}`.
    Binary,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Ge => ">=",
            Cmp::Eq => "=",
        })
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sense {
    /// Minimize the objective (default).
    #[default]
    Minimize,
    /// Maximize the objective.
    Maximize,
}

#[derive(Debug, Clone)]
pub(crate) struct VarData {
    pub name: String,
    pub kind: VarKind,
    pub lb: f64,
    pub ub: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct ConstraintData {
    pub name: String,
    pub expr: LinExpr,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A mixed-integer linear program.
///
/// See the module documentation for a usage example.
#[derive(Debug, Clone)]
pub struct Model {
    name: String,
    pub(crate) vars: Vec<VarData>,
    pub(crate) constraints: Vec<ConstraintData>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: Sense,
}

impl Model {
    /// Creates an empty model with the given name (used in diagnostics and
    /// LP-format export).
    pub fn new(name: impl Into<String>) -> Model {
        Model {
            name: name.into(),
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::new(),
            sense: Sense::Minimize,
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a variable with explicit kind and bounds, returning its handle.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub` or either bound is NaN.
    pub fn add_var(&mut self, name: impl Into<String>, kind: VarKind, lb: f64, ub: f64) -> Var {
        assert!(
            !lb.is_nan() && !ub.is_nan(),
            "variable bounds must not be NaN"
        );
        assert!(lb <= ub, "variable lower bound exceeds upper bound");
        let (lb, ub) = match kind {
            VarKind::Binary => (lb.max(0.0), ub.min(1.0)),
            _ => (lb, ub),
        };
        let v = Var(self.vars.len() as u32);
        self.vars.push(VarData {
            name: name.into(),
            kind,
            lb,
            ub,
        });
        v
    }

    /// Adds a continuous variable in `[lb, ub]`.
    pub fn add_continuous(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> Var {
        self.add_var(name, VarKind::Continuous, lb, ub)
    }

    /// Adds an integer variable in `[lb, ub]`.
    pub fn add_integer(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> Var {
        self.add_var(name, VarKind::Integer, lb, ub)
    }

    /// Adds a `{0,1}` variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> Var {
        self.add_var(name, VarKind::Binary, 0.0, 1.0)
    }

    /// Adds the linear constraint `expr cmp rhs`.
    ///
    /// Any constant inside `expr` is moved to the right-hand side, so
    /// `add_constraint(n, x + 1.0, Le, 3.0)` stores `x ≤ 2`.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: impl Into<LinExpr>,
        cmp: Cmp,
        rhs: f64,
    ) {
        let mut expr = expr.into();
        let rhs = rhs - expr.constant();
        expr.add_constant(-expr.constant());
        self.constraints.push(ConstraintData {
            name: name.into(),
            expr,
            cmp,
            rhs,
        });
    }

    /// Convenience for an equality constraint `lhs = rhs` between two
    /// expressions.
    pub fn add_eq(
        &mut self,
        name: impl Into<String>,
        lhs: impl Into<LinExpr>,
        rhs: impl Into<LinExpr>,
    ) {
        let e = lhs.into() - rhs.into();
        self.add_constraint(name, e, Cmp::Eq, 0.0);
    }

    /// Sets the objective expression and direction.
    pub fn set_objective(&mut self, expr: impl Into<LinExpr>, sense: Sense) {
        self.objective = expr.into();
        self.sense = sense;
    }

    /// The current objective expression.
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// The optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Number of integer (including binary) variables.
    pub fn num_integer_vars(&self) -> usize {
        self.vars
            .iter()
            .filter(|v| v.kind != VarKind::Continuous)
            .count()
    }

    /// Name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn var_name(&self, var: Var) -> &str {
        &self.vars[var.index()].name
    }

    /// Kind of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn var_kind(&self, var: Var) -> VarKind {
        self.vars[var.index()].kind
    }

    /// `(lower, upper)` bounds of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn var_bounds(&self, var: Var) -> (f64, f64) {
        let d = &self.vars[var.index()];
        (d.lb, d.ub)
    }

    /// Tightens the bounds of an existing variable.
    ///
    /// # Panics
    ///
    /// Panics if the new bounds are inconsistent (`lb > ub`).
    pub fn set_var_bounds(&mut self, var: Var, lb: f64, ub: f64) {
        assert!(lb <= ub, "variable lower bound exceeds upper bound");
        let d = &mut self.vars[var.index()];
        d.lb = lb;
        d.ub = ub;
    }

    /// Checks whether `values` (indexed by variable index) satisfies all
    /// bounds, integrality requirements, and constraints within `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (i, v) in self.vars.iter().enumerate() {
            let x = values[i];
            if x < v.lb - tol || x > v.ub + tol {
                return false;
            }
            if v.kind != VarKind::Continuous && (x - x.round()).abs() > tol {
                return false;
            }
        }
        self.constraints.iter().all(|c| {
            let lhs = c.expr.eval(values);
            match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }

    /// Solves the model with default configuration.
    ///
    /// The returned solution has passed the independent post-solve check in
    /// [`certify`](crate::certify()); see [`Model::solve_with`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`] or [`SolveError::Unbounded`] for
    /// models without an optimum, [`SolveError::Limit`] when a resource
    /// limit stops the search before any feasible point is found, and
    /// [`SolveError::Certify`] if the solver's answer fails the post-solve
    /// check (a solver bug).
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(&BranchConfig::default())
    }

    /// Solves with an explicit branch-and-bound configuration (time limits,
    /// wall-clock budget, warm starts, workers).
    ///
    /// This is the resilient entry point on top of the raw
    /// [`branch::solve`](crate::branch::solve) engine. It adds two layers:
    ///
    /// * **Numerical retry** — when the engine reports
    ///   [`SolveError::Numerical`] and the config does not already
    ///   [`force_bland`](BranchConfig::force_bland), the solve is repeated
    ///   once with Bland's anti-cycling pivot rule and relaxed tolerances
    ///   before the error is propagated.
    /// * **Certification** — every solution is re-checked against the
    ///   original model by [`certify::certify`] and carries the resulting
    ///   [`Certificate`](crate::certify::Certificate); a check failure
    ///   surfaces as [`SolveError::Certify`] instead of a wrong answer.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_with(&self, config: &BranchConfig) -> Result<Solution, SolveError> {
        let start = Instant::now();
        let mut sol = match branch::solve(self, config) {
            Ok(sol) => sol,
            Err(SolveError::Numerical(first)) if !config.force_bland => {
                // Maximum-robustness retry: Bland's rule, Dantzig pricing,
                // relaxed tolerances, no basis reuse, no cuts and no
                // presolve reductions — none of the performance machinery
                // may re-trigger the failure being retried.
                let retry = BranchConfig {
                    force_bland: true,
                    tol_scale: 10.0,
                    reuse_basis: false,
                    pricing: crate::simplex::Pricing::Dantzig,
                    cuts: branch::CutMode::Off,
                    probing: false,
                    scaling: false,
                    reduce: false,
                    ..config.clone()
                };
                branch::solve(self, &retry).map_err(|e| match e {
                    SolveError::Numerical(second) => SolveError::Numerical(format!(
                        "{first}; retry with Bland's rule also failed: {second}"
                    )),
                    other => other,
                })?
            }
            Err(e) => return Err(e),
        };
        sol.wall_time = start.elapsed();
        match certify::certify(self, &sol) {
            Ok(cert) => {
                sol.certificate = Some(cert);
                Ok(sol)
            }
            Err(e) => Err(SolveError::Certify(e)),
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "model {}: {} vars ({} integer), {} constraints",
            self.name,
            self.num_vars(),
            self.num_integer_vars(),
            self.num_constraints()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_constant_folds_into_rhs() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        m.add_constraint("c", x + 1.0, Cmp::Le, 3.0);
        assert_eq!(m.constraints[0].rhs, 2.0);
        assert_eq!(m.constraints[0].expr.constant(), 0.0);
    }

    #[test]
    fn binary_bounds_are_clamped() {
        let mut m = Model::new("t");
        let b = m.add_var("b", VarKind::Binary, -5.0, 5.0);
        assert_eq!(m.var_bounds(b), (0.0, 1.0));
    }

    #[test]
    fn feasibility_check_covers_integrality() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", LinExpr::from(x), Cmp::Le, 5.0);
        assert!(m.is_feasible(&[3.0], 1e-6));
        assert!(!m.is_feasible(&[3.5], 1e-6));
        assert!(!m.is_feasible(&[6.0], 1e-6));
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper")]
    fn inverted_bounds_panic() {
        let mut m = Model::new("t");
        m.add_continuous("x", 1.0, 0.0);
    }

    #[test]
    fn add_eq_produces_equality() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_eq("e", x + 2.0, y * 1.0);
        assert_eq!(m.constraints[0].cmp, Cmp::Eq);
        assert_eq!(m.constraints[0].rhs, -2.0);
        assert!(m.is_feasible(&[1.0, 3.0], 1e-9));
        assert!(!m.is_feasible(&[1.0, 4.0], 1e-9));
    }
}
