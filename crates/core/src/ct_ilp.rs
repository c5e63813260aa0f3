//! Compressor-tree ILP (paper Section III-A, Eqs. 2–9).
//!
//! Unknowns: `f(i,j)` and `h(i,j)` — the number of 3:2 and 2:2 compressors
//! applied at column `j` of the matrix entering stage `i`. Derived: the
//! intermediate BCVs `V_i[j]` via the conservation law Eq. (7). Objective:
//! `α·F + β·H` (Eq. 2). The leftmost column never hosts a compressor
//! (Eq. 4) so the BCV keeps its length and its top column never exceeds 2.
//!
//! A useful structural identity (used for warm starts and tests): every
//! 3:2 compressor removes exactly one bit from the matrix total and a 2:2
//! preserves it, so `F = total(V₀) − total(V_s)` for *any* feasible
//! schedule — the objective really trades half-adder count against how many
//! total bits remain in `V_s`.

use crate::config::GomilConfig;
use gomil_arith::{dadda_schedule, required_stages, Bcv, CompressionSchedule, StageCounts};
use gomil_ilp::{BranchConfig, Cmp, LinExpr, Model, Sense, SolveError, Var};

/// Handles to the CT ILP's variables, for embedding into the global model.
#[derive(Debug, Clone)]
pub struct CtIlp {
    /// The model containing Eqs. (2)–(9).
    pub model: Model,
    /// `f[i][j]`: 3:2 compressor count at stage `i`, column `j`.
    pub f: Vec<Vec<Var>>,
    /// `h[i][j]`: 2:2 compressor count at stage `i`, column `j`.
    pub h: Vec<Vec<Var>>,
    /// `v[i][j]`: BCV after stage `i` (`v[0]` is the constant `V₀`, not a
    /// variable row — see `vs`).
    pub vs: Vec<Vec<Var>>,
    /// The CT objective `α·F + β·H`.
    pub objective: LinExpr,
    /// Initial BCV.
    pub v0: Bcv,
    /// Stage count `s`.
    pub stages: usize,
}

impl CtIlp {
    /// Builds the CT ILP for an initial BCV with the minimum stage count
    /// (the paper fixes `s` to the Wallace stage count).
    ///
    /// # Panics
    ///
    /// Panics if `v0` is empty.
    pub fn build(v0: &Bcv, cfg: &GomilConfig) -> CtIlp {
        // The Wallace stage count, bumped when the no-leftmost-compressor
        // rule (Eq. 4) makes that count infeasible for irregular profiles.
        Self::build_with_stages(v0, required_stages(v0), cfg)
    }

    /// Builds the CT ILP with an explicit stage count.
    ///
    /// # Panics
    ///
    /// Panics if `v0` is empty or `stages == 0` while `v0` is not already
    /// reduced.
    pub fn build_with_stages(v0: &Bcv, stages: usize, cfg: &GomilConfig) -> CtIlp {
        let n = v0.len();
        assert!(n > 0, "initial BCV must be non-empty");
        assert!(
            stages > 0 || v0.is_reduced(),
            "an unreduced BCV needs at least one stage"
        );
        let mut model = Model::new(format!("ct_ilp_n{n}_s{stages}"));

        // Upper bound on any column's bit count: every bit of the matrix.
        let vmax = v0.total_bits() as f64;

        let mut f = Vec::with_capacity(stages);
        let mut h = Vec::with_capacity(stages);
        let mut vs = Vec::with_capacity(stages);
        for i in 1..=stages {
            let fi: Vec<Var> = (0..n)
                .map(|j| model.add_integer(format!("f_{i}_{j}"), 0.0, vmax / 3.0))
                .collect();
            let hi: Vec<Var> = (0..n)
                .map(|j| model.add_integer(format!("h_{i}_{j}"), 0.0, vmax / 2.0))
                .collect();
            let vi: Vec<Var> = (0..n)
                .map(|j| model.add_integer(format!("v_{i}_{j}"), 0.0, vmax))
                .collect();
            f.push(fi);
            h.push(hi);
            vs.push(vi);
        }

        // Eq. (4): no compressor at the leftmost column, any stage.
        for i in 0..stages {
            model.set_var_bounds(f[i][n - 1], 0.0, 0.0);
            model.set_var_bounds(h[i][n - 1], 0.0, 0.0);
        }

        // Eqs. (6)–(8): per-stage input capacity and conservation.
        for i in 0..stages {
            for j in 0..n {
                // Prior BCV entry: constant for stage 1, variable after.
                let prev: LinExpr = if i == 0 {
                    LinExpr::constant_expr(v0[j] as f64)
                } else {
                    vs[i - 1][j].into()
                };
                // Eq. (6): 3f + 2h ≤ V_{i−1}[j].
                model.add_constraint(
                    format!("cap_{i}_{j}"),
                    3.0 * f[i][j] + 2.0 * h[i][j] - prev.clone(),
                    Cmp::Le,
                    0.0,
                );
                // Eq. (7)/(8): V_i[j] = V_{i−1}[j] − (2f+h) + (f₋₁+h₋₁).
                let mut rhs = prev - 2.0 * f[i][j] - 1.0 * h[i][j];
                if j > 0 {
                    rhs += LinExpr::from(f[i][j - 1]) + h[i][j - 1];
                }
                model.add_eq(format!("cons_{i}_{j}"), LinExpr::from(vs[i][j]), rhs);
            }
        }

        // Eq. (9): final heights in 0..=2 (≥ 0 already via bounds).
        for &v in &vs[stages - 1] {
            model.set_var_bounds(v, 0.0, 2.0);
        }

        // Eq. (2)/(3): objective α·F + β·H.
        let mut objective = LinExpr::new();
        for i in 0..stages {
            for j in 0..n {
                objective += cfg.alpha * f[i][j] + cfg.beta * h[i][j];
            }
        }
        model.set_objective(objective.clone(), Sense::Minimize);

        CtIlp {
            model,
            f,
            h,
            vs,
            objective,
            v0: v0.clone(),
            stages,
        }
    }

    /// A warm-start assignment derived from a known-feasible schedule
    /// (values indexed like this model's variables).
    ///
    /// Returns `None` if the schedule's shape doesn't fit this model (e.g.
    /// it uses the leftmost column or a different stage count).
    pub fn warm_start(&self, schedule: &CompressionSchedule) -> Option<Vec<f64>> {
        if schedule.num_stages() != self.stages || schedule.uses_leftmost_column(&self.v0) {
            return None;
        }
        let bcvs = schedule.apply(&self.v0).ok()?;
        let n = self.v0.len();
        let mut values = vec![0.0; self.model.num_vars()];
        for i in 0..self.stages {
            let st = &schedule.stages[i];
            for j in 0..n {
                values[self.f[i][j].index()] = st.full.get(j).copied().unwrap_or(0) as f64;
                values[self.h[i][j].index()] = st.half.get(j).copied().unwrap_or(0) as f64;
                let vij = if j < bcvs[i].len() { bcvs[i][j] } else { 0 };
                values[self.vs[i][j].index()] = vij as f64;
            }
        }
        Some(values)
    }

    /// Solves the CT ILP (warm-started from Dadda) under
    /// `cfg.solver_budget` and extracts the schedule.
    ///
    /// # Errors
    ///
    /// Propagates solver errors; `Infeasible` cannot occur for valid BCVs
    /// because Dadda is always a witness.
    pub fn solve(&self, cfg: &GomilConfig) -> Result<CtSolution, SolveError> {
        // Prefer a Dadda warm start; fall back to the steered generator
        // when Dadda's shape doesn't fit this model (leftmost-column use
        // or a bumped stage count on irregular profiles).
        let dadda = dadda_schedule(&self.v0);
        let initial = self.warm_start(&dadda).or_else(|| {
            let all2 = vec![2u32; self.v0.len()];
            gomil_arith::schedule_toward_target(&self.v0, self.stages, &all2)
                .and_then(|(sched, _)| self.warm_start(&sched))
        });
        let branch = BranchConfig {
            initial,
            ..cfg.branch_config()
        };
        let sol = self.model.solve_with(&branch)?;
        let schedule = self.extract_schedule(sol.values());
        Ok(CtSolution {
            objective: sol.objective(),
            proven_optimal: sol.is_optimal(),
            schedule,
        })
    }

    /// Reads a solved assignment back into a [`CompressionSchedule`].
    pub fn extract_schedule(&self, values: &[f64]) -> CompressionSchedule {
        let n = self.v0.len();
        let mut sched = CompressionSchedule::new();
        for i in 0..self.stages {
            let mut st = StageCounts::new(n);
            for j in 0..n {
                st.full[j] = values[self.f[i][j].index()].round() as u32;
                st.half[j] = values[self.h[i][j].index()].round() as u32;
            }
            sched.stages.push(st);
        }
        sched
    }
}

/// Result of a CT ILP solve.
#[derive(Debug, Clone)]
pub struct CtSolution {
    /// Achieved `α·F + β·H`.
    pub objective: f64,
    /// Whether branch and bound proved optimality within the budget.
    pub proven_optimal: bool,
    /// The extracted (validated-by-construction) schedule.
    pub schedule: CompressionSchedule,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomil_arith::wallace_schedule;

    fn cfg() -> GomilConfig {
        GomilConfig::fast()
    }

    #[test]
    fn four_bit_ct_is_solved_optimally() {
        let v0 = Bcv::and_ppg(4);
        let ilp = CtIlp::build(&v0, &cfg());
        let sol = ilp.solve(&cfg()).unwrap();
        assert!(sol.proven_optimal);
        // Schedule must be valid and fully reduce the matrix.
        let fin = sol.schedule.final_bcv(&v0).unwrap();
        assert!(fin.is_reduced(), "final {fin}");
        // F is forced by total bits: F = 16 − ΣV_s.
        assert_eq!(sol.schedule.num_full(), v0.total_bits() - fin.total_bits());
        // Optimal cost can't exceed Dadda's.
        let dadda = dadda_schedule(&v0);
        assert!(sol.objective <= dadda.cost(3.0, 2.0) + 1e-6);
    }

    #[test]
    fn six_bit_ct_beats_or_matches_both_heuristics() {
        let v0 = Bcv::and_ppg(6);
        let ilp = CtIlp::build(&v0, &cfg());
        let sol = ilp.solve(&cfg()).unwrap();
        let dadda = dadda_schedule(&v0).cost(3.0, 2.0);
        let wallace = wallace_schedule(&v0).cost(3.0, 2.0);
        assert!(
            sol.objective <= dadda + 1e-6,
            "ilp {} dadda {dadda}",
            sol.objective
        );
        assert!(sol.objective <= wallace + 1e-6);
        let fin = sol.schedule.final_bcv(&v0).unwrap();
        assert!(fin.is_reduced());
        // Eq. 4: BCV length must not grow.
        assert_eq!(fin.len(), v0.len());
    }

    #[test]
    fn warm_start_round_trips_dadda() {
        let v0 = Bcv::and_ppg(8);
        let ilp = CtIlp::build(&v0, &cfg());
        let dadda = dadda_schedule(&v0);
        if let Some(ws) = ilp.warm_start(&dadda) {
            assert!(ilp.model.is_feasible(&ws, 1e-6));
        } else {
            // Dadda used the leftmost column; acceptable, but for AND PPGs
            // it should not.
            panic!("dadda warm start should fit the AND-PPG model");
        }
    }

    #[test]
    fn booth_bcv_is_supported() {
        // Booth-like irregular BCV with a leading 1 (no leading zero).
        let v0 = Bcv::new(vec![2, 1, 3, 2, 4, 3, 4, 2, 3, 1, 1, 1]);
        let ilp = CtIlp::build(&v0, &cfg());
        let sol = ilp.solve(&cfg()).unwrap();
        let fin = sol.schedule.final_bcv(&v0).unwrap();
        assert!(fin.is_reduced());
    }

    #[test]
    fn extract_matches_objective() {
        let v0 = Bcv::and_ppg(4);
        let ilp = CtIlp::build(&v0, &cfg());
        let sol = ilp.solve(&cfg()).unwrap();
        assert!((sol.schedule.cost(3.0, 2.0) - sol.objective).abs() < 1e-6);
    }
}
