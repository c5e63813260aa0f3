//! Bound-tightening presolve.
//!
//! Before branch and bound, the solver propagates constraint activity
//! bounds to tighten variable bounds, rounds integer bounds inward, and
//! detects trivially infeasible or redundant rows. On the GOMIL models this
//! fixes a large fraction of variables outright (e.g. compressor counts in
//! columns whose bit count is too small for any compressor), which directly
//! shrinks the standardized LP: fixed columns are compressed out before the
//! sparse column store is built, so they cost nothing in pricing or FTRAN.
//!
//! Two MIP-grade reductions run on top of the activity fixpoint:
//!
//! * **Binary probing** tentatively fixes a 0/1 variable to each of its two
//!   values and propagates. If one branch is infeasible the variable is
//!   fixed to the other value; if both survive, bounds implied by *both*
//!   branches become global bounds. Probing is capped by a work budget so
//!   it stays cheap on wide models.
//! * **Coefficient strengthening** tightens the coefficient of an integer
//!   variable on a `≤` row when the row cannot be binding unless the
//!   variable sits at its upper bound. The strengthened row is valid for
//!   every integer point of the original model and implies the original
//!   row within the variable bounds, so certification against the original
//!   model is unaffected while the LP relaxation gets strictly tighter.

use crate::expr::{LinExpr, Var};
use crate::model::{Cmp, Model, VarKind};
use crate::simplex::{Basis, ColStatus, LpProblem, FEAS_TOL};
use gomil_budget::Budget;
use std::collections::VecDeque;

/// Maximum number of binary variables probed per presolve call.
const PROBE_MAX_VARS: usize = 256;
/// Total row-term visits allowed across all probes (keeps probing bounded
/// on wide models where a single propagation can cascade).
const PROBE_WORK_CAP: u64 = 5_000_000;

/// Switches for the optional presolve reductions. The defaults enable
/// everything; the branch-and-bound numerical retry and A/B benchmarks
/// turn individual reductions off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PresolveOpts {
    /// Probe binary variables (tentative fix + propagate) to harvest
    /// fixings and implied bounds.
    pub probing: bool,
    /// Strengthen integer coefficients on `≤` rows.
    pub strengthen: bool,
}

impl Default for PresolveOpts {
    fn default() -> Self {
        PresolveOpts {
            probing: true,
            strengthen: true,
        }
    }
}

/// Result of presolving a model.
#[derive(Debug, Clone)]
pub struct Presolved {
    /// Tightened lower bounds, indexed by variable index.
    pub lb: Vec<f64>,
    /// Tightened upper bounds, indexed by variable index.
    pub ub: Vec<f64>,
    /// Rows proven redundant under the tightened bounds (always satisfied).
    pub redundant: Vec<bool>,
    /// Whether the model was proven infeasible.
    pub infeasible: bool,
    /// Number of variables fixed (`lb == ub`) after tightening.
    pub fixed: usize,
    /// Rows whose coefficients were strengthened; the replacement is a `≤`
    /// row that is valid for every integer point and implies the original
    /// row within the variable bounds. Sorted by row index.
    pub strengthened: Vec<StrengthenedRow>,
}

/// One coefficient-strengthened row: `(row index, replacement terms,
/// replacement rhs)`.
pub type StrengthenedRow = (usize, Vec<(Var, f64)>, f64);

/// Runs activity-based bound tightening to a fixpoint (bounded passes).
pub fn presolve(model: &Model) -> Presolved {
    presolve_with_budget(model, &Budget::unlimited())
}

/// Like [`presolve`], but stops tightening early (keeping whatever bounds
/// it has derived so far, which are always valid) once `budget` expires.
pub fn presolve_with_budget(model: &Model, budget: &Budget) -> Presolved {
    presolve_with_opts(model, budget, &PresolveOpts::default())
}

/// What happened when one row was propagated against the current bounds.
enum RowProp {
    /// The row's minimum activity exceeds its rhs: no assignment exists.
    Infeasible,
    /// The row's maximum activity is within its rhs: always satisfied.
    Redundant,
    /// Normal propagation; the flag says whether any bound moved.
    Done(bool),
}

/// Propagates a single `sign·expr ≤ sign·rhs` form, tightening `lb`/`ub`
/// in place. `on_change(i, old_lb, old_ub)` fires before each mutation so
/// probing can record an undo trail.
#[allow(clippy::too_many_arguments)]
fn tighten_form(
    model: &Model,
    expr: &LinExpr,
    sign: f64,
    rhs: f64,
    is_eq: bool,
    lb: &mut [f64],
    ub: &mut [f64],
    mut on_change: impl FnMut(usize, f64, f64),
) -> RowProp {
    let rhs = sign * rhs;
    let mut min_act = 0.0f64;
    let mut max_act = 0.0f64;
    for (v, coef) in expr.iter() {
        let a = sign * coef;
        let (l, u) = (lb[v.index()], ub[v.index()]);
        if a > 0.0 {
            min_act += a * l;
            max_act += a * u;
        } else {
            min_act += a * u;
            max_act += a * l;
        }
    }
    if min_act > rhs + FEAS_TOL {
        return RowProp::Infeasible;
    }
    if !is_eq && max_act <= rhs + FEAS_TOL && max_act.is_finite() {
        return RowProp::Redundant;
    }
    if !min_act.is_finite() {
        return RowProp::Done(false); // cannot propagate through infinite activity
    }
    let mut changed = false;
    // Tighten each variable: a·x ≤ rhs − (min_act − its own minimal
    // contribution).
    for (v, coef) in expr.iter() {
        let a = sign * coef;
        let i = v.index();
        let (l, u) = (lb[i], ub[i]);
        let own_min = if a > 0.0 { a * l } else { a * u };
        let slack = rhs - (min_act - own_min);
        let is_int = model.vars[i].kind != VarKind::Continuous;
        if a > 0.0 {
            let mut new_ub = slack / a;
            if is_int {
                new_ub = (new_ub + FEAS_TOL).floor();
            }
            if new_ub < u - 1e-9 {
                on_change(i, lb[i], ub[i]);
                ub[i] = new_ub;
                changed = true;
            }
        } else {
            let mut new_lb = slack / a;
            if is_int {
                new_lb = (new_lb - FEAS_TOL).ceil();
            }
            if new_lb > l + 1e-9 {
                on_change(i, lb[i], ub[i]);
                lb[i] = new_lb;
                changed = true;
            }
        }
        if lb[i] > ub[i] + FEAS_TOL {
            return RowProp::Infeasible;
        }
    }
    RowProp::Done(changed)
}

/// The `(sign, is_eq)` forms a row decomposes into for propagation.
fn forms_of(cmp: Cmp) -> &'static [(f64, bool)] {
    match cmp {
        Cmp::Le => &[(1.0, false)],
        Cmp::Ge => &[(-1.0, false)],
        Cmp::Eq => &[(1.0, true), (-1.0, true)],
    }
}

/// Runs the activity fixpoint over all rows. Returns `true` if the model
/// was proven infeasible.
fn fixpoint(
    model: &Model,
    lb: &mut [f64],
    ub: &mut [f64],
    redundant: &mut [bool],
    budget: &Budget,
    passes: usize,
) -> bool {
    for _pass in 0..passes {
        if budget.exhausted() {
            break;
        }
        let mut changed = false;
        for (ci, c) in model.constraints.iter().enumerate() {
            if redundant[ci] {
                continue;
            }
            for &(sign, is_eq) in forms_of(c.cmp) {
                match tighten_form(model, &c.expr, sign, c.rhs, is_eq, lb, ub, |_, _, _| {}) {
                    RowProp::Infeasible => return true,
                    RowProp::Redundant => {
                        redundant[ci] = true;
                        break;
                    }
                    RowProp::Done(c) => changed |= c,
                }
            }
        }
        if !changed {
            break;
        }
    }
    false
}

/// Tentatively fixes variable `probe` to `val`, propagates through the
/// rows touching each changed variable, and returns the bounds implied for
/// every variable the propagation moved (`None` when the branch is
/// infeasible). Bounds are restored before returning either way.
#[allow(clippy::too_many_arguments)]
fn probe_one(
    model: &Model,
    lb: &mut [f64],
    ub: &mut [f64],
    redundant: &[bool],
    rows_of: &[Vec<u32>],
    probe: usize,
    val: f64,
    work: &mut u64,
) -> Option<Vec<(usize, f64, f64)>> {
    let mut trail: Vec<(usize, f64, f64)> = vec![(probe, lb[probe], ub[probe])];
    lb[probe] = val;
    ub[probe] = val;

    let mut queue: VecDeque<u32> = rows_of[probe].iter().copied().collect();
    let mut in_queue = vec![false; model.num_constraints()];
    for &r in &queue {
        in_queue[r as usize] = true;
    }
    let mut infeasible = false;
    while let Some(ci) = queue.pop_front() {
        in_queue[ci as usize] = false;
        if *work > PROBE_WORK_CAP {
            break; // partial propagation still yields valid implications
        }
        let c = &model.constraints[ci as usize];
        let mut touched: Vec<usize> = Vec::new();
        for &(sign, is_eq) in forms_of(c.cmp) {
            *work += c.expr.iter().count() as u64;
            match tighten_form(model, &c.expr, sign, c.rhs, is_eq, lb, ub, |i, l, u| {
                trail.push((i, l, u));
                touched.push(i);
            }) {
                RowProp::Infeasible => infeasible = true,
                RowProp::Redundant => break,
                RowProp::Done(_) => {}
            }
            if infeasible {
                break;
            }
        }
        if infeasible {
            break;
        }
        for i in touched {
            for &r in &rows_of[i] {
                if !in_queue[r as usize] && !redundant[r as usize] && r != ci {
                    in_queue[r as usize] = true;
                    queue.push_back(r);
                }
            }
        }
    }

    let result = if infeasible {
        None
    } else {
        // First-occurrence dedup of the trail gives the changed set; the
        // current bounds hold this branch's implications.
        let mut emitted: Vec<usize> = Vec::with_capacity(trail.len());
        let mut out: Vec<(usize, f64, f64)> = Vec::with_capacity(trail.len());
        for &(i, _, _) in &trail {
            if !emitted.contains(&i) {
                emitted.push(i);
                out.push((i, lb[i], ub[i]));
            }
        }
        Some(out)
    };

    for &(i, l, u) in trail.iter().rev() {
        lb[i] = l;
        ub[i] = u;
    }
    result
}

/// Probes free binaries; fixes variables whose branches collapse and
/// harvests bounds implied by both branches. Returns `true` if the model
/// was proven infeasible (both branches of some binary die).
fn probe_binaries(
    model: &Model,
    lb: &mut [f64],
    ub: &mut [f64],
    redundant: &[bool],
    budget: &Budget,
    changed: &mut bool,
) -> bool {
    let n = model.num_vars();
    let mut rows_of: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (ci, c) in model.constraints.iter().enumerate() {
        if redundant[ci] {
            continue;
        }
        for (v, _) in c.expr.iter() {
            rows_of[v.index()].push(ci as u32);
        }
    }
    let candidates: Vec<usize> = (0..n)
        .filter(|&i| model.vars[i].kind != VarKind::Continuous && lb[i] == 0.0 && ub[i] == 1.0)
        .take(PROBE_MAX_VARS)
        .collect();

    let mut work = 0u64;
    for &i in &candidates {
        if work > PROBE_WORK_CAP || budget.exhausted() {
            break;
        }
        if lb[i] != 0.0 || ub[i] != 1.0 {
            continue; // fixed by an earlier probe
        }
        let down = probe_one(model, lb, ub, redundant, &rows_of, i, 0.0, &mut work);
        let up = probe_one(model, lb, ub, redundant, &rows_of, i, 1.0, &mut work);
        match (down, up) {
            (None, None) => return true,
            (None, Some(_)) => {
                lb[i] = 1.0;
                *changed = true;
            }
            (Some(_), None) => {
                ub[i] = 0.0;
                *changed = true;
            }
            (Some(d0), Some(d1)) => {
                // A bound holds globally only if *both* branches imply it;
                // variables untouched by a branch keep their global bound
                // there, so only the intersection of the changed sets can
                // tighten.
                for &(j, l0, u0) in &d0 {
                    let Some(&(_, l1, u1)) = d1.iter().find(|&&(k, _, _)| k == j) else {
                        continue;
                    };
                    let nl = l0.min(l1);
                    let nu = u0.max(u1);
                    if nl > lb[j] + 1e-9 {
                        lb[j] = nl;
                        *changed = true;
                    }
                    if nu < ub[j] - 1e-9 {
                        ub[j] = nu;
                        *changed = true;
                    }
                    if lb[j] > ub[j] + FEAS_TOL {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Strengthens integer coefficients on non-redundant `≤` rows.
///
/// For a row `Σ aⱼxⱼ ≤ b` with integer `x_k`, `a_k > 0`, finite `u_k` and
/// finite maximum activity `M` of the other terms, let
/// `d = min(b − M − a_k·(u_k − 1), a_k)`. When `d > 0` the row can only be
/// binding if `x_k = u_k`, and `(a_k − d)·x_k + Σ_{j≠k} aⱼxⱼ ≤ b − d·u_k`
/// is valid for every integer point and implies the original row whenever
/// `x_k ≤ u_k`.
fn strengthen_le_rows(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    redundant: &[bool],
) -> Vec<StrengthenedRow> {
    let mut out = Vec::new();
    for (ci, c) in model.constraints.iter().enumerate() {
        if c.cmp != Cmp::Le || redundant[ci] {
            continue;
        }
        let mut terms: Vec<(Var, f64)> = c.expr.iter().collect();
        let mut rhs = c.rhs;
        let mut any = false;
        for k in 0..terms.len() {
            let (vk, ak) = terms[k];
            let i = vk.index();
            if ak <= 0.0
                || model.vars[i].kind == VarKind::Continuous
                || !ub[i].is_finite()
                || ub[i] - lb[i] <= FEAS_TOL
            {
                continue;
            }
            let mut max_others = 0.0f64;
            for (j, &(vj, aj)) in terms.iter().enumerate() {
                if j == k {
                    continue;
                }
                let (l, u) = (lb[vj.index()], ub[vj.index()]);
                max_others += if aj > 0.0 { aj * u } else { aj * l };
            }
            if !max_others.is_finite() {
                continue;
            }
            let d = (rhs - max_others - ak * (ub[i] - 1.0)).min(ak);
            if d > FEAS_TOL {
                terms[k].1 = ak - d;
                rhs -= d * ub[i];
                any = true;
            }
        }
        if any {
            terms.retain(|&(_, a)| a != 0.0);
            out.push((ci, terms, rhs));
        }
    }
    out
}

/// Full presolve with explicit reduction switches: the activity fixpoint,
/// then (optionally) binary probing with a re-run of the fixpoint when it
/// tightened anything, then (optionally) coefficient strengthening.
pub fn presolve_with_opts(model: &Model, budget: &Budget, opts: &PresolveOpts) -> Presolved {
    let n = model.num_vars();
    let mut lb: Vec<f64> = (0..n).map(|i| model.vars[i].lb).collect();
    let mut ub: Vec<f64> = (0..n).map(|i| model.vars[i].ub).collect();

    // Integer bounds start rounded inward.
    for (i, v) in model.vars.iter().enumerate() {
        if v.kind != VarKind::Continuous {
            lb[i] = (lb[i] - FEAS_TOL).ceil();
            ub[i] = (ub[i] + FEAS_TOL).floor();
        }
    }

    let mut redundant = vec![false; model.num_constraints()];
    let mut infeasible = fixpoint(model, &mut lb, &mut ub, &mut redundant, budget, 20);

    if !infeasible && opts.probing && !budget.exhausted() {
        let mut changed = false;
        infeasible = probe_binaries(model, &mut lb, &mut ub, &redundant, budget, &mut changed);
        if !infeasible && changed {
            infeasible = fixpoint(model, &mut lb, &mut ub, &mut redundant, budget, 20);
        }
    }

    let strengthened = if !infeasible && opts.strengthen {
        strengthen_le_rows(model, &lb, &ub, &redundant)
    } else {
        Vec::new()
    };

    let fixed = (0..n)
        .filter(|&i| (ub[i] - lb[i]).abs() <= FEAS_TOL && lb[i].is_finite())
        .count();
    Presolved {
        lb,
        ub,
        redundant,
        infeasible,
        fixed,
        strengthened,
    }
}

// ===================== LP reduction presolve =====================
//
// A second presolve layer that operates on the *standardized LP* (not the
// model): it shrinks the problem the simplex actually factorizes, then
// reconstructs the full-space primal solution AND basis afterwards so
// `certify`, warm restarts (`resolve_lp`) and cut separation keep working
// against the original rows. Every reduction is an exact reformulation of
// the LP relaxation — the reduced optimum equals the original optimum
// (after adding `obj_offset`), never a tighter relaxation.

/// How many reduce passes to run: substitution creates new singleton and
/// empty rows, which a later pass harvests; four passes catch everything
/// the GOMIL models produce without risking pathological looping.
const REDUCE_PASSES: usize = 4;

/// Bound-equality slop when deciding whether a reduced nonbasic column
/// sits at a *node* bound (no basis fixup needed) or at a bound the
/// reduction synthesized (promotion into the generating row required).
const REDUCE_BOUND_TOL: f64 = 1e-9;

/// Counters from one `reduce_lp` call, broken down by rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Total rows removed from the LP.
    pub rows_dropped: u64,
    /// Total structural columns removed from the LP.
    pub cols_dropped: u64,
    /// Rows with no live structural entry (feasibility-checked, dropped).
    pub empty_rows: u64,
    /// Rows always satisfiable within their slack bounds.
    pub redundant_rows: u64,
    /// Rows with one live structural entry, folded into column bounds.
    pub singleton_rows: u64,
    /// Rows dropped because an identical-pattern row dominates them.
    pub duplicate_rows: u64,
    /// Columns fixed by the node bounds, substituted into the rhs.
    pub fixed_cols: u64,
    /// Columns no live row touches, pinned to their cheapest bound.
    pub empty_cols: u64,
}

/// Outcome of [`reduce_lp`].
pub(crate) enum LpReduction {
    /// The reduced problem plus everything postsolve needs.
    Reduced(Box<ReducedLp>),
    /// Reduction proved the node infeasible outright (an empty row with an
    /// unsatisfiable rhs, a singleton row whose implied interval misses
    /// the column box, or duplicate rows with disjoint intervals).
    Infeasible,
}

/// A reduced LP plus the postsolve recipe back to the original space.
pub(crate) struct ReducedLp {
    /// The reduced problem; `slack_col(r') = num_structural' + r'` holds.
    pub lp: LpProblem,
    /// Column bounds for the reduced problem (tightened structural bounds
    /// from singleton-row folding, original slack bounds).
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    /// `c·v` contribution of the substituted-out columns; add to the
    /// reduced objective to recover the original objective.
    pub obj_offset: f64,
    pub stats: ReductionStats,
    orig_ns: usize,
    orig_rows: usize,
    /// Original structural column → reduced structural column.
    col_map: Vec<Option<u32>>,
    /// Original row → reduced row.
    row_map: Vec<Option<u32>>,
    /// Value of each dropped structural column (where `col_map` is None).
    dropped_val: Vec<f64>,
    /// Nonbasic side for each dropped structural column.
    dropped_status: Vec<ColStatus>,
    /// For a column whose reduced *lower* bound was synthesized by a
    /// singleton row: the generating row and the slack side that row's
    /// slack pins to when the column sits at that bound.
    red_lb_src: Vec<Option<(u32, ColStatus)>>,
    /// Same for synthesized upper bounds.
    red_ub_src: Vec<Option<(u32, ColStatus)>>,
}

impl ReducedLp {
    /// True when reduction removed nothing; callers should solve the
    /// original problem directly and skip the postsolve copy.
    pub(crate) fn is_noop(&self) -> bool {
        self.stats.rows_dropped == 0 && self.stats.cols_dropped == 0
    }

    /// Maps a reduced optimal solution (and basis) back to the original
    /// space. `node_lb`/`node_ub` are the bounds `reduce_lp` was called
    /// with. Returns the full structural solution and, when the reduced
    /// basis could be lifted, a full-space [`Basis`] that `resolve_lp`
    /// accepts: dropped rows get their slack basic, and columns pinned to
    /// a *synthesized* bound are promoted basic into the singleton row
    /// that generated the bound (block-triangular, hence nonsingular).
    pub(crate) fn postsolve(
        &self,
        node_lb: &[f64],
        node_ub: &[f64],
        x_red: &[f64],
        basis_red: Option<&Basis>,
    ) -> (Vec<f64>, Option<Basis>) {
        let ns = self.orig_ns;
        let m = self.orig_rows;
        let ns_red = self.lp.num_structural;

        let mut x = vec![0.0; ns];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = match self.col_map[j] {
                Some(j2) => x_red[j2 as usize],
                None => self.dropped_val[j],
            };
        }

        let Some(rb) = basis_red else {
            return (x, None);
        };
        if rb.cols.len() != self.lp.rows.len() || rb.status.len() != self.lp.num_cols {
            return (x, None);
        }

        // Inverse maps: reduced index → original index.
        let mut inv_col = vec![0u32; ns_red];
        for (j, cm) in self.col_map.iter().enumerate() {
            if let Some(j2) = cm {
                inv_col[*j2 as usize] = j as u32;
            }
        }
        let mut inv_row = vec![0u32; self.lp.rows.len()];
        for (r, rm) in self.row_map.iter().enumerate() {
            if let Some(r2) = rm {
                inv_row[*r2 as usize] = r as u32;
            }
        }

        let mut status = vec![ColStatus::AtLower; ns + m];
        let mut cols = vec![u32::MAX; m];

        for (j, st) in status.iter_mut().take(ns).enumerate() {
            *st = match self.col_map[j] {
                Some(j2) => rb.status[j2 as usize],
                None => self.dropped_status[j],
            };
        }
        for r in 0..m {
            match self.row_map[r] {
                Some(r2) => {
                    status[ns + r] = rb.status[ns_red + r2 as usize];
                    let bc = rb.cols[r2 as usize] as usize;
                    cols[r] = if bc < ns_red {
                        inv_col[bc]
                    } else {
                        ns as u32 + inv_row[bc - ns_red]
                    };
                }
                None => {
                    // Dropped row: its slack absorbs the residual, which the
                    // reduction rules guarantee lies within the slack bounds.
                    status[ns + r] = ColStatus::Basic;
                    cols[r] = (ns + r) as u32;
                }
            }
        }

        // Promotion fixups: a nonbasic column resting on a bound that the
        // reduction synthesized has no full-space bound to rest on, so it
        // goes basic in the singleton row that produced the bound (whose
        // slack then pins to the opposite, finite side). The dropped row
        // has no other basis column with an entry in it, so the lifted
        // basis matrix stays block triangular and nonsingular.
        for j in 0..ns {
            if status[j] == ColStatus::Basic {
                continue;
            }
            let v = x[j];
            let (src, at_node_bound) = match status[j] {
                ColStatus::AtLower => (
                    self.red_lb_src[j],
                    (v - node_lb[j]).abs() <= REDUCE_BOUND_TOL,
                ),
                ColStatus::AtUpper => (
                    self.red_ub_src[j],
                    (v - node_ub[j]).abs() <= REDUCE_BOUND_TOL,
                ),
                ColStatus::Basic => unreachable!(),
            };
            if at_node_bound {
                continue;
            }
            let Some((r, slack_side)) = src else {
                return (x, None); // synthesized bound with no recorded source
            };
            let r = r as usize;
            if self.row_map[r].is_some() || cols[r] != (ns + r) as u32 {
                return (x, None); // source row unexpectedly live or taken
            }
            let sidx = ns + r;
            let side_finite = match slack_side {
                ColStatus::AtLower => node_lb[sidx].is_finite(),
                ColStatus::AtUpper => node_ub[sidx].is_finite(),
                ColStatus::Basic => false,
            };
            if !side_finite {
                return (x, None);
            }
            cols[r] = j as u32;
            status[j] = ColStatus::Basic;
            status[sidx] = slack_side;
        }

        // `resolve_lp` rejects AtUpper on an unbounded column outright;
        // catch that here so the caller falls back cleanly.
        for (j, st) in status.iter().enumerate() {
            if *st == ColStatus::AtUpper && !node_ub[j].is_finite() {
                return (x, None);
            }
        }
        (x, Some(Basis { cols, status }))
    }
}

/// Runs empty/redundant/singleton/duplicate row elimination and
/// fixed/empty column substitution on the standardized LP `p` under node
/// bounds `lb`/`ub` (full space, structural then slacks). The returned
/// [`ReducedLp`] preserves the one-slack-per-row invariant, so
/// `solve_lp_from` accepts it unchanged.
pub(crate) fn reduce_lp(p: &LpProblem, lb: &[f64], ub: &[f64]) -> LpReduction {
    let ns = p.num_structural;
    let m = p.rows.len();
    debug_assert_eq!(p.num_cols, ns + m);
    debug_assert_eq!(lb.len(), p.num_cols);
    debug_assert_eq!(ub.len(), p.num_cols);

    let mut wlb = lb[..ns].to_vec();
    let mut wub = ub[..ns].to_vec();
    let mut work_rhs = p.rhs.clone();
    let mut row_alive = vec![true; m];
    let mut col_alive = vec![true; ns];
    let mut dropped_val = vec![0.0; ns];
    let mut dropped_status = vec![ColStatus::AtLower; ns];
    let mut red_lb_src: Vec<Option<(u32, ColStatus)>> = vec![None; ns];
    let mut red_ub_src: Vec<Option<(u32, ColStatus)>> = vec![None; ns];
    let mut obj_offset = 0.0f64;
    let mut stats = ReductionStats::default();

    // The activity interval a row's structural part must land in:
    // Σ a·x = rhs − s with s ∈ [slo, shi] ⇒ Σ a·x ∈ [rhs − shi, rhs − slo].
    let act_interval = |rhs: f64, slo: f64, shi: f64| (rhs - shi, rhs - slo);

    for _pass in 0..REDUCE_PASSES {
        let mut changed = false;

        // --- Row rules: empty, redundant, singleton.
        for r in 0..m {
            if !row_alive[r] {
                continue;
            }
            let slack = (ns + r) as u32;
            let (alo, ahi) = act_interval(work_rhs[r], lb[ns + r], ub[ns + r]);
            let mut cnt = 0usize;
            let mut single = (0u32, 0.0f64);
            let mut min_act = 0.0f64;
            let mut max_act = 0.0f64;
            for &(c, a) in &p.rows[r] {
                if c == slack || a == 0.0 || !col_alive[c as usize] {
                    continue;
                }
                let j = c as usize;
                cnt += 1;
                single = (c, a);
                if a > 0.0 {
                    min_act += a * wlb[j];
                    max_act += a * wub[j];
                } else {
                    min_act += a * wub[j];
                    max_act += a * wlb[j];
                }
            }
            if cnt == 0 {
                if alo > FEAS_TOL || ahi < -FEAS_TOL {
                    return LpReduction::Infeasible;
                }
                row_alive[r] = false;
                stats.empty_rows += 1;
                stats.rows_dropped += 1;
                changed = true;
                continue;
            }
            if min_act >= alo - FEAS_TOL && max_act <= ahi + FEAS_TOL {
                row_alive[r] = false;
                stats.redundant_rows += 1;
                stats.rows_dropped += 1;
                changed = true;
                continue;
            }
            if cnt == 1 {
                let (c, a) = single;
                let j = c as usize;
                // Fold the row into bounds on x_j. When x_j rests on the
                // implied lower bound the slack sits at the bound that
                // produced it (shi for a > 0, slo for a < 0) — recorded so
                // postsolve can rebuild the basis.
                let (ilo, ihi, lo_side, hi_side) = if a > 0.0 {
                    (alo / a, ahi / a, ColStatus::AtUpper, ColStatus::AtLower)
                } else {
                    (ahi / a, alo / a, ColStatus::AtLower, ColStatus::AtUpper)
                };
                if ilo > wub[j] + FEAS_TOL || ihi < wlb[j] - FEAS_TOL {
                    return LpReduction::Infeasible;
                }
                if ilo > wlb[j] + REDUCE_BOUND_TOL {
                    wlb[j] = ilo.min(wub[j]);
                    red_lb_src[j] = Some((r as u32, lo_side));
                }
                if ihi < wub[j] - REDUCE_BOUND_TOL {
                    wub[j] = ihi.max(wlb[j]);
                    red_ub_src[j] = Some((r as u32, hi_side));
                }
                row_alive[r] = false;
                stats.singleton_rows += 1;
                stats.rows_dropped += 1;
                changed = true;
            }
        }

        // --- Duplicate rows: identical live structural patterns. Only the
        // dominated row (whose activity interval contains the other's) may
        // drop — its slack stays free to absorb the residual. Partially
        // overlapping intervals (a ≤/≥ pair forming a range) keep both.
        {
            let mut sigs: Vec<(Vec<(u32, f64)>, usize)> = Vec::new();
            for r in (0..m).filter(|&r| row_alive[r]) {
                let slack = (ns + r) as u32;
                let mut sig: Vec<(u32, f64)> = p.rows[r]
                    .iter()
                    .copied()
                    .filter(|&(c, a)| c != slack && a != 0.0 && col_alive[c as usize])
                    .collect();
                sig.sort_unstable_by_key(|&(c, _)| c);
                sigs.push((sig, r));
            }
            sigs.sort_unstable_by(|a, b| {
                a.0.len().cmp(&b.0.len()).then_with(|| {
                    for (&(c1, v1), &(c2, v2)) in a.0.iter().zip(b.0.iter()) {
                        let o = c1.cmp(&c2).then(v1.total_cmp(&v2));
                        if o != std::cmp::Ordering::Equal {
                            return o;
                        }
                    }
                    std::cmp::Ordering::Equal
                })
            });
            let mut g = 0;
            while g < sigs.len() {
                let mut h = g + 1;
                while h < sigs.len() && sigs[h].0 == sigs[g].0 {
                    h += 1;
                }
                if h - g > 1 {
                    // Pairwise dominance within the equal-pattern group.
                    let mut kept: Vec<usize> = Vec::new();
                    for &(_, r) in &sigs[g..h] {
                        let (alo, ahi) = act_interval(work_rhs[r], lb[ns + r], ub[ns + r]);
                        let mut keep = true;
                        for &kr in &kept {
                            let (klo, khi) = act_interval(work_rhs[kr], lb[ns + kr], ub[ns + kr]);
                            if alo > khi + FEAS_TOL || ahi < klo - FEAS_TOL {
                                return LpReduction::Infeasible;
                            }
                            if klo >= alo - FEAS_TOL && khi <= ahi + FEAS_TOL {
                                // Kept row implies this one: drop it.
                                keep = false;
                                break;
                            }
                        }
                        if keep {
                            kept.push(r);
                        } else {
                            row_alive[r] = false;
                            stats.duplicate_rows += 1;
                            stats.rows_dropped += 1;
                            changed = true;
                        }
                    }
                }
                g = h;
            }
        }

        // --- Column rules: node-fixed substitution, empty-column pinning.
        // Columns whose bounds the *reduction* collapsed stay live — their
        // values must remain explicit for basis promotion to work.
        let mut occ = vec![0u32; ns];
        for r in (0..m).filter(|&r| row_alive[r]) {
            let slack = (ns + r) as u32;
            for &(c, a) in &p.rows[r] {
                if c != slack && a != 0.0 && col_alive[c as usize] {
                    occ[c as usize] += 1;
                }
            }
        }
        let mut newly_fixed = vec![false; ns];
        let mut any_fixed = false;
        for j in 0..ns {
            if !col_alive[j] {
                continue;
            }
            if lb[j].is_finite() && ub[j] - lb[j] <= 0.0 {
                col_alive[j] = false;
                dropped_val[j] = lb[j];
                dropped_status[j] = ColStatus::AtLower;
                obj_offset += p.costs[j] * lb[j];
                newly_fixed[j] = true;
                any_fixed = true;
                stats.fixed_cols += 1;
                stats.cols_dropped += 1;
                changed = true;
            } else if occ[j] == 0 {
                // No live row constrains x_j: pin to the cheapest bound.
                // Skip (leave live) when that bound is infinite — the
                // simplex detects genuine unboundedness itself, and an
                // eager claim here could mask infeasibility elsewhere.
                let c = p.costs[j];
                let (v, st) = if c > 0.0 || (c == 0.0 && wlb[j].is_finite()) {
                    (wlb[j], ColStatus::AtLower)
                } else {
                    (wub[j], ColStatus::AtUpper)
                };
                if v.is_finite() {
                    col_alive[j] = false;
                    dropped_val[j] = v;
                    dropped_status[j] = st;
                    obj_offset += c * v;
                    newly_fixed[j] = true;
                    any_fixed = true;
                    stats.empty_cols += 1;
                    stats.cols_dropped += 1;
                    changed = true;
                }
            }
        }
        if any_fixed {
            // One sweep folds every just-dropped column into the rhs.
            for r in 0..m {
                if !row_alive[r] {
                    continue;
                }
                let slack = (ns + r) as u32;
                for &(c, a) in &p.rows[r] {
                    if c != slack && newly_fixed[c as usize] {
                        work_rhs[r] -= a * dropped_val[c as usize];
                    }
                }
            }
        }

        if !changed {
            break;
        }
    }

    // --- Assemble the reduced problem with compacted numbering.
    let mut col_map: Vec<Option<u32>> = vec![None; ns];
    let mut ns_red = 0usize;
    for (j, cm) in col_map.iter_mut().enumerate() {
        if col_alive[j] {
            *cm = Some(ns_red as u32);
            ns_red += 1;
        }
    }
    let mut row_map: Vec<Option<u32>> = vec![None; m];
    let mut m_red = 0usize;
    for (r, rm) in row_map.iter_mut().enumerate() {
        if row_alive[r] {
            *rm = Some(m_red as u32);
            m_red += 1;
        }
    }

    let num_cols_red = ns_red + m_red;
    let mut costs = Vec::with_capacity(num_cols_red);
    let mut rlb = Vec::with_capacity(num_cols_red);
    let mut rub = Vec::with_capacity(num_cols_red);
    for j in 0..ns {
        if col_alive[j] {
            costs.push(p.costs[j]);
            rlb.push(wlb[j]);
            rub.push(wub[j]);
        }
    }
    costs.resize(num_cols_red, 0.0);
    let mut rows = Vec::with_capacity(m_red);
    let mut rhs = Vec::with_capacity(m_red);
    for r in 0..m {
        if !row_alive[r] {
            continue;
        }
        let slack = (ns + r) as u32;
        let mut row: Vec<(u32, f64)> = p.rows[r]
            .iter()
            .filter(|&&(c, a)| c != slack && a != 0.0 && col_alive[c as usize])
            .map(|&(c, a)| (col_map[c as usize].unwrap(), a))
            .collect();
        row.push(((ns_red + rows.len()) as u32, 1.0));
        rows.push(row);
        rhs.push(work_rhs[r]);
        rlb.push(lb[ns + r]);
        rub.push(ub[ns + r]);
    }

    let lp = LpProblem::new(ns_red, costs, rlb.clone(), rub.clone(), rows, rhs);

    LpReduction::Reduced(Box::new(ReducedLp {
        lp,
        lb: rlb,
        ub: rub,
        obj_offset,
        stats,
        orig_ns: ns,
        orig_rows: m,
        col_map,
        row_map,
        dropped_val,
        dropped_status,
        red_lb_src,
        red_ub_src,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify_lp_rows;
    use crate::expr::LinExpr;
    use crate::model::{Cmp, Model};
    use crate::simplex::{resolve_lp, solve_lp_from, LpOutcome, SimplexOpts};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A random standardized LP salted with exactly the structures
    /// `reduce_lp` targets: empty rows, singleton rows, duplicated
    /// structural patterns, fixed columns, and columns no row touches.
    fn random_standardized_lp(seed: u64) -> LpProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let ns = rng.gen_range(3..9);
        let m = rng.gen_range(1..7);
        let num_cols = ns + m;
        let mut costs = vec![0.0; num_cols];
        let mut lb = vec![0.0; num_cols];
        let mut ub = vec![f64::INFINITY; num_cols];
        for j in 0..ns {
            costs[j] = rng.gen_range(-5..6) as f64;
            match rng.gen_range(0..10) {
                0 => {
                    let v = rng.gen_range(0..4) as f64;
                    lb[j] = v;
                    ub[j] = v;
                }
                1 => {
                    lb[j] = f64::NEG_INFINITY;
                    ub[j] = rng.gen_range(0..8) as f64;
                }
                _ => {
                    ub[j] = rng.gen_range(1..9) as f64;
                }
            }
        }
        let mut rows: Vec<Vec<(u32, f64)>> = Vec::new();
        let mut rhs: Vec<f64> = Vec::new();
        for r in 0..m {
            let slack = ns + r;
            match rng.gen_range(0..3) {
                0 => {} // ≤ row: slack [0, ∞), the default
                1 => {
                    // ≥ row: slack (-∞, 0].
                    lb[slack] = f64::NEG_INFINITY;
                    ub[slack] = 0.0;
                }
                _ => {
                    // = row: slack [0, 0].
                    ub[slack] = 0.0;
                }
            }
            let mut row: Vec<(u32, f64)> = Vec::new();
            let kind = rng.gen_range(0..10);
            if kind == 0 {
                // Empty row.
            } else if kind <= 2 {
                let j = rng.gen_range(0..ns) as u32;
                let a =
                    rng.gen_range(1..4) as f64 * if rng.gen_range(0..2) == 0 { 1.0 } else { -1.0 };
                row.push((j, a));
            } else if kind == 3 && r > 0 {
                // Duplicate the previous row's structural pattern.
                row = rows[r - 1]
                    .iter()
                    .filter(|&&(c, _)| (c as usize) < ns)
                    .cloned()
                    .collect();
            } else {
                let k = rng.gen_range(1..ns.min(4));
                let mut picked = vec![false; ns];
                for _ in 0..k {
                    let j = rng.gen_range(0..ns);
                    if !picked[j] {
                        picked[j] = true;
                        let a = rng.gen_range(1..5) as f64
                            * if rng.gen_range(0..2) == 0 { 1.0 } else { -1.0 };
                        row.push((j as u32, a));
                    }
                }
                row.sort_by_key(|&(c, _)| c);
            }
            row.push((slack as u32, 1.0));
            rows.push(row);
            rhs.push(rng.gen_range(-6..10) as f64);
        }
        LpProblem::new(ns, costs, lb, ub, rows, rhs)
    }

    /// The reduction must be outcome- and objective-preserving, its
    /// postsolved solutions must certify against the *original* rows,
    /// and a warm restart of the original problem from the postsolved
    /// basis must reproduce the from-scratch objective.
    #[test]
    fn reduce_solve_postsolve_round_trips_on_random_lps() {
        let opts = SimplexOpts::default();
        let mut reduced_cases = 0u32;
        let mut bases_lifted = 0u32;
        for seed in 0..400u64 {
            let p = random_standardized_lp(0xD1CE ^ (seed << 4));
            let lb = p.lb.clone();
            let ub = p.ub.clone();
            let direct = solve_lp_from(&p, &lb, &ub, &opts).expect("direct solve");
            let red = match reduce_lp(&p, &lb, &ub) {
                LpReduction::Infeasible => {
                    assert!(
                        matches!(direct.outcome, LpOutcome::Infeasible),
                        "seed {seed}: reduction claims infeasible, direct solve disagrees"
                    );
                    continue;
                }
                LpReduction::Reduced(r) => r,
            };
            if !red.is_noop() {
                reduced_cases += 1;
            }
            let res = solve_lp_from(&red.lp, &red.lb, &red.ub, &opts).expect("reduced solve");
            match (&direct.outcome, &res.outcome) {
                (LpOutcome::Optimal { obj, .. }, LpOutcome::Optimal { x: xr, obj: or }) => {
                    let lifted_obj = or + red.obj_offset;
                    assert!(
                        (lifted_obj - obj).abs() <= 1e-6 * obj.abs().max(1.0),
                        "seed {seed}: reduced objective {lifted_obj} vs direct {obj}"
                    );
                    let (x, basis) = red.postsolve(&lb, &ub, xr, res.basis.as_ref());
                    certify_lp_rows(&p, &lb, &ub, &x, 1e-6)
                        .unwrap_or_else(|e| panic!("seed {seed}: postsolve fails certify: {e}"));
                    if let Some(basis) = basis {
                        bases_lifted += 1;
                        let warm = resolve_lp(&p, &lb, &ub, &basis, &opts)
                            .expect("warm restart from postsolved basis");
                        if let Ok(warm) = warm {
                            match warm.outcome {
                                LpOutcome::Optimal { obj: wo, .. } => assert!(
                                    (wo - obj).abs() <= 1e-6 * obj.abs().max(1.0),
                                    "seed {seed}: warm objective {wo} vs direct {obj}"
                                ),
                                ref other => panic!("seed {seed}: warm restart gave {other:?}"),
                            }
                        }
                    }
                }
                (LpOutcome::Infeasible, LpOutcome::Infeasible)
                | (LpOutcome::Unbounded, LpOutcome::Unbounded) => {}
                (a, b) => panic!("seed {seed}: direct {a:?} vs reduced {b:?}"),
            }
        }
        // The generator must actually exercise the machinery: most salted
        // instances reduce, and postsolved bases come back regularly
        // (many instances reduce to zero rows, where there is no basis
        // to lift — the ones that keep rows are the interesting cases).
        assert!(
            reduced_cases >= 100,
            "only {reduced_cases} instances reduced"
        );
        assert!(bases_lifted >= 25, "only {bases_lifted} bases postsolved");
    }

    #[test]
    fn reduce_drops_empty_and_singleton_rows() {
        // Row 0 is empty (0 ≤ 5 slack-feasible), row 1 pins x0 ≤ 3.
        let ns = 2;
        let p = LpProblem::new(
            ns,
            vec![-1.0, -1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![10.0, 10.0, f64::INFINITY, f64::INFINITY],
            vec![vec![(2, 1.0)], vec![(0, 1.0), (3, 1.0)]],
            vec![5.0, 3.0],
        );
        let red = match reduce_lp(&p, &p.lb.clone(), &p.ub.clone()) {
            LpReduction::Reduced(r) => r,
            LpReduction::Infeasible => panic!("feasible instance"),
        };
        assert_eq!(red.stats.empty_rows, 1);
        assert_eq!(red.stats.singleton_rows, 1);
        assert_eq!(red.lp.rows.len(), 0);
        // With both rows gone the now-unreferenced columns pin to their
        // cheapest bounds (cost -1 → upper): x0 at the folded bound 3,
        // x1 at its own bound 10.
        assert_eq!(red.stats.cols_dropped, 2);
        let (x, _) = red.postsolve(&p.lb, &p.ub, &[], None);
        assert_eq!(x, vec![3.0, 10.0]);
    }

    #[test]
    fn reduce_detects_conflicting_duplicate_rows() {
        // x0 + x1 = 5 and x0 + x1 = 7 cannot both hold.
        let ns = 2;
        let p = LpProblem::new(
            ns,
            vec![1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![10.0, 10.0, 0.0, 0.0],
            vec![
                vec![(0, 1.0), (1, 1.0), (2, 1.0)],
                vec![(0, 1.0), (1, 1.0), (3, 1.0)],
            ],
            vec![5.0, 7.0],
        );
        assert!(matches!(
            reduce_lp(&p, &p.lb.clone(), &p.ub.clone()),
            LpReduction::Infeasible
        ));
    }

    #[test]
    fn reduce_substitutes_fixed_columns_into_offset() {
        // x0 fixed at 2 with cost 3 → offset 6, and its row contribution
        // moves into the rhs.
        let ns = 2;
        let p = LpProblem::new(
            ns,
            vec![3.0, 1.0, 0.0],
            vec![2.0, 0.0, 0.0],
            vec![2.0, 10.0, f64::INFINITY],
            vec![vec![(0, 1.0), (1, 1.0), (2, 1.0)]],
            vec![8.0],
        );
        let red = match reduce_lp(&p, &p.lb.clone(), &p.ub.clone()) {
            LpReduction::Reduced(r) => r,
            LpReduction::Infeasible => panic!("feasible instance"),
        };
        assert_eq!(red.stats.fixed_cols, 1);
        assert_eq!(red.obj_offset, 6.0);
        // The substitution leaves `x1 + s = 6`, a singleton row that
        // folds away in turn; x1 then pins to its cheap bound 0.
        assert_eq!(red.stats.singleton_rows, 1);
        assert_eq!(red.lp.rows.len(), 0);
        let (x, _) = red.postsolve(&p.lb, &p.ub, &[], None);
        assert_eq!(x, vec![2.0, 0.0]);
    }

    #[test]
    fn tightens_upper_bound_from_le_row() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 100.0);
        let y = m.add_continuous("y", 2.0, 100.0);
        m.add_constraint("c", x + y, Cmp::Le, 10.0);
        let p = presolve(&m);
        assert!(!p.infeasible);
        assert_eq!(p.ub[x.index()], 8.0);
        assert_eq!(p.ub[y.index()], 10.0);
    }

    #[test]
    fn rounds_integer_bounds_inward() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Le, 7.0);
        let p = presolve(&m);
        assert_eq!(p.ub[x.index()], 3.0);
    }

    #[test]
    fn detects_infeasible_activity() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("c", LinExpr::from(x), Cmp::Ge, 2.0);
        let p = presolve(&m);
        assert!(p.infeasible);
    }

    #[test]
    fn fixes_binary_through_chained_rows() {
        // b1 >= 1 forces b1 = 1; b1 + b2 <= 1 then forces b2 = 0.
        let mut m = Model::new("t");
        let b1 = m.add_binary("b1");
        let b2 = m.add_binary("b2");
        m.add_constraint("f", LinExpr::from(b1), Cmp::Ge, 1.0);
        m.add_constraint("x", b1 + b2, Cmp::Le, 1.0);
        let p = presolve(&m);
        assert_eq!((p.lb[b1.index()], p.ub[b1.index()]), (1.0, 1.0));
        assert_eq!((p.lb[b2.index()], p.ub[b2.index()]), (0.0, 0.0));
        assert_eq!(p.fixed, 2);
    }

    #[test]
    fn marks_redundant_rows() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("c", LinExpr::from(x), Cmp::Le, 5.0);
        let p = presolve(&m);
        assert!(p.redundant[0]);
    }

    #[test]
    fn equality_propagates_both_directions() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 100.0);
        let y = m.add_continuous("y", 0.0, 3.0);
        m.add_constraint("c", x + y, Cmp::Eq, 5.0);
        let p = presolve(&m);
        // x = 5 − y ∈ [2, 5].
        assert_eq!(p.lb[x.index()], 2.0);
        assert_eq!(p.ub[x.index()], 5.0);
    }

    #[test]
    fn probing_fixes_binary_whose_branch_is_infeasible() {
        // With b = 0 the equality x + 2b = 2 forces x = 2 > ub(x) = 1, so
        // probing must fix b = 1 (plain activity propagation cannot: both
        // branch values keep the activity range overlapping the rhs).
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        let b = m.add_binary("b");
        m.add_constraint("c", x + 2.0 * b, Cmp::Eq, 2.0);
        let p = presolve(&m);
        assert!(!p.infeasible);
        assert_eq!((p.lb[b.index()], p.ub[b.index()]), (1.0, 1.0));
    }

    #[test]
    fn probing_detects_infeasibility_when_both_branches_die() {
        // b = 0 forces x = 3 (impossible, ub = 1); b = 1 forces x = -1
        // (impossible, lb = 0).
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        let b = m.add_binary("b");
        m.add_constraint("c", x + 4.0 * b, Cmp::Eq, 3.0);
        let p = presolve(&m);
        assert!(p.infeasible);
    }

    #[test]
    fn probing_harvests_bounds_implied_by_both_branches() {
        // y − b ≥ 2 and y + b ≥ 3: branch b=0 gives y ≥ 3, branch b=1
        // gives y ≥ 3, so y ≥ 3 globally even though each row alone only
        // proves y ≥ 2.
        let mut m = Model::new("t");
        let y = m.add_continuous("y", 0.0, 10.0);
        let b = m.add_binary("b");
        m.add_constraint("c1", y - b, Cmp::Ge, 2.0);
        m.add_constraint("c2", y + b, Cmp::Ge, 3.0);
        let p = presolve(&m);
        assert!(!p.infeasible);
        assert!(p.lb[y.index()] >= 3.0 - 1e-9, "lb = {}", p.lb[y.index()]);
        let off = presolve_with_opts(
            &m,
            &Budget::unlimited(),
            &PresolveOpts {
                probing: false,
                strengthen: false,
            },
        );
        assert!(off.lb[y.index()] < 3.0, "control: probing did the work");
    }

    #[test]
    fn dead_budget_keeps_original_bounds_and_stays_valid() {
        // With an exhausted budget neither the fixpoint loop nor probing
        // runs; the result must still be valid (no false infeasibility,
        // no bogus tightening beyond integer rounding).
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Le, 7.0);
        let b = Budget::with_limit(std::time::Duration::ZERO);
        let p = presolve_with_budget(&m, &b);
        assert!(!p.infeasible);
        assert_eq!(p.ub[x.index()], 10.0, "no passes ran under a dead budget");
    }

    #[test]
    fn dead_budget_never_claims_infeasibility() {
        // This model IS infeasible, but only probing can prove it (see
        // `probing_detects_infeasibility_when_both_branches_die`). With a
        // dead budget no pass runs, so presolve must stay conservative and
        // leave detection to the solver — a false `infeasible` under
        // budget pressure would wrongly prune a live subtree.
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        let b = m.add_binary("b");
        m.add_constraint("c", x + 4.0 * b, Cmp::Eq, 3.0);
        let dead = Budget::with_limit(std::time::Duration::ZERO);
        let p = presolve_with_budget(&m, &dead);
        assert!(!p.infeasible, "dead budget must not guess infeasibility");
        let live = presolve(&m);
        assert!(live.infeasible, "control: a live budget does prove it");
    }

    #[test]
    fn dead_budget_marks_no_rows_redundant() {
        // Redundancy marks let the solver drop rows, so they are only safe
        // when the activity pass actually ran.
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("c", LinExpr::from(x), Cmp::Le, 5.0);
        let dead = Budget::with_limit(std::time::Duration::ZERO);
        let p = presolve_with_budget(&m, &dead);
        assert!(!p.redundant[0]);
        assert!(presolve(&m).redundant[0], "control: live budget marks it");
    }

    #[test]
    fn binding_rows_are_never_marked_redundant() {
        // x + y <= 10 with x, y in [0, 8]: max activity 16 > 10, so the
        // row constrains the feasible set and must survive presolve.
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 8.0);
        let y = m.add_continuous("y", 0.0, 8.0);
        m.add_constraint("c", x + y, Cmp::Le, 10.0);
        let p = presolve(&m);
        assert!(!p.infeasible);
        assert!(!p.redundant[0]);
    }

    #[test]
    fn strengthens_integer_coefficient_on_le_row() {
        // 3x + y <= 10 with x int in [0,3], y in [0,2]: max_others = 2, so
        // d = 10 - 2 - 3·2 = 2 > 0 ⇒ x's coefficient tightens to 1 and the
        // rhs to 10 - 2·3 = 4 (row becomes x + y <= 4).
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 3.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        m.add_constraint("c", 3.0 * x + y, Cmp::Le, 10.0);
        let p = presolve(&m);
        assert_eq!(p.strengthened.len(), 1);
        let (row, terms, rhs) = &p.strengthened[0];
        assert_eq!(*row, 0);
        assert_eq!(*rhs, 4.0);
        let ax = terms.iter().find(|(v, _)| *v == x).unwrap().1;
        let ay = terms.iter().find(|(v, _)| *v == y).unwrap().1;
        assert_eq!((ax, ay), (1.0, 1.0));
        // The strengthened row keeps exactly the original integer points.
        for xi in 0..=3i32 {
            for yi in [0.0, 1.0, 2.0] {
                let orig = 3.0 * f64::from(xi) + yi <= 10.0 + 1e-9;
                let tight = f64::from(xi) + yi <= 4.0 + 1e-9;
                assert_eq!(orig, tight, "x={xi} y={yi}");
            }
        }
    }

    #[test]
    fn strengthening_leaves_tight_rows_alone() {
        // x + y <= 2 with both in [0,2]: d = 2 - 2 - 1·(2-1) = -1 ⇒ no-op.
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 2.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        m.add_constraint("c", x + y, Cmp::Le, 2.0);
        let p = presolve(&m);
        assert!(p.strengthened.is_empty());
    }
}
