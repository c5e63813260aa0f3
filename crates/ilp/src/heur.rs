//! Primal heuristics for branch and bound.

use crate::simplex::{solve_lp_from, LpError, LpOutcome, LpProblem, LpWork, SimplexOpts, FEAS_TOL};

/// Round-and-repair heuristic.
///
/// Rounds every integer column of `x` to the nearest integer (within the
/// node bounds `lb`/`ub`), fixes those columns, and re-solves the LP over
/// the remaining continuous columns so that derived variables (e.g. big-M
/// linearization outputs) become consistent again. Returns the repaired
/// structural assignment if the fixed LP is feasible, and the repair LP's
/// work either way. A budget failure inside the repair LP simply drops the
/// heuristic result; the caller's main loop notices the exhausted budget
/// on its next check.
pub(crate) fn round_and_repair(
    lp: &LpProblem,
    lb: &[f64],
    ub: &[f64],
    col_is_int: &[bool],
    x: &[f64],
    opts: &SimplexOpts,
) -> (Option<Vec<f64>>, LpWork) {
    let mut flb = lb.to_vec();
    let mut fub = ub.to_vec();
    let mut any_frac = false;
    for c in 0..lp.num_structural {
        if col_is_int[c] {
            let v = x[c].round().clamp(lb[c], ub[c]);
            if (v - x[c]).abs() > FEAS_TOL {
                any_frac = true;
            }
            flb[c] = v;
            fub[c] = v;
        }
    }
    if !any_frac {
        return (Some(x[..lp.num_structural].to_vec()), LpWork::default());
    }
    match solve_lp_from(lp, &flb, &fub, opts) {
        Ok(res) => match res.outcome {
            LpOutcome::Optimal { x, .. } => (Some(x), res.work),
            _ => (None, res.work),
        },
        Err(LpError::Budget { work, .. }) => (None, work),
        Err(LpError::Numerical(_)) => (None, LpWork::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repair(lp: &LpProblem, col_is_int: &[bool], x: &[f64]) -> (Option<Vec<f64>>, LpWork) {
        round_and_repair(
            lp,
            &lp.lb,
            &lp.ub,
            col_is_int,
            x,
            &SimplexOpts::with_max_iters(10_000),
        )
    }

    #[test]
    fn repair_recomputes_continuous_vars() {
        // Columns: b (int), y (cont), slack. Constraint: y - 2b + s = 0 with
        // s ∈ [0,0], i.e. y = 2b. Fractional b = 0.6 rounds to 1, repair
        // must set y = 2.
        let lp = LpProblem::new(
            2,
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0],
            vec![1.0, 10.0, 0.0],
            vec![vec![(0, -2.0), (1, 1.0), (2, 1.0)]],
            vec![0.0],
        );
        let (out, work) = repair(&lp, &[true, false], &[0.6, 1.2]);
        let out = out.unwrap();
        assert_eq!(out[0], 1.0);
        assert!((out[1] - 2.0).abs() < 1e-6);
        // The repair LP pivots y into the basis; its work is reported.
        assert!(work.iterations > 0, "repair LP work lost: {work:?}");
        assert!(work.refactors > 0, "repair LP work lost: {work:?}");
    }

    #[test]
    fn infeasible_rounding_returns_none() {
        // b rounds to 1 but constraint forces b <= 0.4: fixed LP infeasible.
        let lp = LpProblem::new(
            1,
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![1.0, f64::INFINITY],
            vec![vec![(0, 1.0), (1, 1.0)]],
            vec![0.4],
        );
        assert!(repair(&lp, &[true], &[0.6]).0.is_none());
    }
}
