//! Branch-and-bound driver for mixed-integer models.
//!
//! Strategy:
//!
//! * presolve (bound tightening) once up front;
//! * standardize to a slack-equality LP form, *compressing
//!   out* variables fixed by presolve so the dense tableau stays small;
//! * best-bound node selection with a deeper-first tie break, branching
//!   deltas stored in a parent-pointer chain;
//! * branching on the most fractional integer variable;
//! * incumbents from (a) a caller-supplied warm start, (b) LP solutions that
//!   happen to be integral, and (c) a round-and-repair heuristic that fixes
//!   the integers to rounded values and re-solves the LP for the continuous
//!   variables.
//!
//! The search honours wall-clock and node limits and reports the best proven
//! bound, mirroring how the paper runs Gurobi under a runtime cap.
//!
//! This module prepares the search (presolve, standardization, the root LP
//! and its cut loop, warm-start validation) and assembles the result; the
//! node loop itself is the worker pool in `search.rs`. The calling thread
//! is worker 0 and [`BranchConfig::jobs`] − 1 scoped threads join it, so
//! `jobs = 1` (the default) spawns no thread and searches deterministically.
//!
//! Node bounds are NaN-checked on admission (`checked_bound`): the node
//! comparator uses [`f64::total_cmp`], which is a total order even over NaN,
//! but a NaN bound would still make best-first selection meaningless, so it
//! is reported as a numerical failure instead of being enqueued.

use crate::certify::certify_values;
use crate::expr::Var;
use crate::model::{Cmp, Model, Sense, VarKind};
use crate::presolve::{
    presolve_with_opts, reduce_lp, LpReduction, PresolveOpts, ReductionStats, StrengthenedRow,
};
use crate::simplex::{
    cover_cuts, gomory_cuts, resolve_lp, solve_lp_from, with_cut_rows, Basis, LpError, LpOutcome,
    LpProblem, LpResult, LpWork, Pricing, SimplexOpts, FEAS_TOL,
};
use crate::solution::{
    IncumbentEvent, IncumbentSource, RootProfile, Solution, SolveError, SolveStatus,
    WarmStartStatus,
};
use gomil_budget::Budget;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where cutting planes are separated during the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CutMode {
    /// No cut separation; the relaxation is tightened only by branching.
    Off,
    /// Separate Gomory mixed-integer and knapsack-cover cuts at the root
    /// node (bounded rounds), so the relaxation prunes instead of
    /// branching. Cuts are derived under the root's globally valid bounds
    /// and therefore hold tree-wide.
    #[default]
    Root,
}

impl CutMode {
    /// Parses a CLI-style name (`"off"` / `"root"`).
    pub fn from_name(name: &str) -> Option<CutMode> {
        match name {
            "off" => Some(CutMode::Off),
            "root" => Some(CutMode::Root),
            _ => None,
        }
    }

    /// The CLI-style name of this mode.
    pub fn name(self) -> &'static str {
        match self {
            CutMode::Off => "off",
            CutMode::Root => "root",
        }
    }
}

/// Configuration for [`Model::solve_with`].
#[derive(Debug, Clone)]
pub struct BranchConfig {
    /// Wall-clock limit for the whole search. Combined with
    /// [`budget`](Self::budget): whichever deadline is earlier wins.
    pub time_limit: Option<Duration>,
    /// Maximum number of branch-and-bound nodes.
    pub node_limit: u64,
    /// Stop when `(incumbent − bound)/max(1,|incumbent|)` falls below this.
    pub gap_tol: f64,
    /// Optional warm-start assignment (full values, indexed by variable
    /// index). Validated up front; the outcome (including the violated
    /// constraint on rejection) is reported in
    /// [`Solution::warm_start`](crate::Solution::warm_start).
    pub initial: Option<Vec<f64>>,
    /// Incumbent hand-off: additional candidate assignments beyond
    /// [`initial`](Self::initial) — e.g. a neighboring solve's incumbent
    /// adapted to this model. Each candidate is validated by the same
    /// independent certifier as the warm start; feasible candidates
    /// compete on objective, so a bad hand-off can never worsen the
    /// result, only fail to help.
    pub extra_starts: Vec<Vec<f64>>,
    /// Simplex iteration budget per LP solve.
    pub max_lp_iters: u64,
    /// Run the round-and-repair heuristic every this many nodes (0 = off).
    pub heuristic_period: u64,
    /// Shared wall-clock budget / cancellation token. Checked between nodes
    /// and inside the simplex pivot loop, so one pipeline-level budget
    /// bounds the whole search. Defaults to unlimited.
    pub budget: Budget,
    /// Use Bland's anti-cycling rule from the first pivot of every LP.
    /// Slow but cycle-proof; set by the numerical-retry path.
    pub force_bland: bool,
    /// Multiplier on the simplex optimality tolerance (values > 1 relax
    /// it). Set to 10 by the numerical-retry path.
    pub tol_scale: f64,
    /// When `true`, [`Model::solve_with`](crate::Model::solve_with) retries
    /// a [`SolveError::Numerical`] failure once with `force_bland` and a
    /// relaxed `tol_scale` before giving up.
    pub numerical_retry: bool,
    /// Workers exploring the branch-and-bound tree: the calling thread plus
    /// `jobs − 1` scoped threads (`0` counts as `1`). With one worker the
    /// search is deterministic and spawns no thread. More workers prove the
    /// same optima but may return a *different* optimal assignment when
    /// several exist, and node/iteration counts become timing-dependent.
    pub jobs: usize,
    /// Carry the parent's optimal simplex basis into each child node and
    /// reoptimize with the dual simplex instead of solving from scratch
    /// (the sparse-LP warm-restart path). Stale or dual-infeasible bases
    /// fall back to the two-phase primal automatically, so this is purely
    /// a performance knob; the numerical-retry path disables it for
    /// maximum-robustness re-solves.
    pub reuse_basis: bool,
    /// Simplex pricing rule. Devex (the default) spends a little more per
    /// pivot to pick much better pivots; Dantzig remains available for A/B
    /// comparisons and is forced by the numerical-retry path.
    pub pricing: Pricing,
    /// Cutting-plane separation mode (see [`CutMode`]). The numerical-retry
    /// path forces [`CutMode::Off`].
    pub cuts: CutMode,
    /// Run the MIP presolve reductions (binary probing + coefficient
    /// strengthening) on top of the activity-bound fixpoint. Off on the
    /// numerical-retry path.
    pub probing: bool,
    /// Geometric-mean row equilibration of the standardized LP (exact
    /// power-of-two factors, no unscaling needed). Off on the
    /// numerical-retry path so retries see the untouched coefficients.
    pub scaling: bool,
    /// LP reduction presolve (empty/singleton/redundant/duplicate row and
    /// fixed/empty column elimination with full basis postsolve) before
    /// every from-scratch LP solve. Off on the numerical-retry path.
    pub reduce: bool,
}

impl Default for BranchConfig {
    fn default() -> BranchConfig {
        BranchConfig {
            time_limit: Some(Duration::from_secs(60)),
            node_limit: 200_000,
            gap_tol: 1e-6,
            initial: None,
            extra_starts: Vec::new(),
            max_lp_iters: 2_000_000,
            heuristic_period: 20,
            budget: Budget::unlimited(),
            force_bland: false,
            tol_scale: 1.0,
            numerical_retry: true,
            jobs: 1,
            reuse_basis: true,
            pricing: Pricing::default(),
            cuts: CutMode::default(),
            probing: true,
            scaling: true,
            reduce: true,
        }
    }
}

impl BranchConfig {
    /// A config with the given time limit and otherwise default settings.
    pub fn with_time_limit(limit: Duration) -> BranchConfig {
        BranchConfig {
            time_limit: Some(limit),
            ..BranchConfig::default()
        }
    }

    /// The effective budget for one solve: the configured budget narrowed
    /// by [`time_limit`](Self::time_limit), sharing its cancel flag.
    pub(crate) fn effective_budget(&self) -> Budget {
        match self.time_limit {
            Some(tl) => self.budget.child_with_limit(tl),
            None => self.budget.clone(),
        }
    }
}

/// Mapping from model variables to compressed LP columns.
pub(crate) struct Standardized {
    pub(crate) lp: LpProblem,
    /// Fixed value per model variable (meaningful when `col_of_var` is None).
    pub(crate) fixed_val: Vec<f64>,
    /// Model variable index per LP structural column.
    pub(crate) var_of_col: Vec<u32>,
    /// Model objective constant (plus contribution of fixed variables).
    pub(crate) obj_offset: f64,
    /// Whether each surviving column is integer-constrained.
    pub(crate) col_is_int: Vec<bool>,
}

/// Builds the slack-augmented LP, dropping presolve-fixed columns and
/// redundant rows. `strengthened` (sorted by row index, from
/// [`Presolved::strengthened`](crate::presolve::Presolved::strengthened))
/// substitutes coefficient-strengthened replacements for the rows it names.
fn standardize(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    redundant: &[bool],
    minimize_costs: &[f64],
    strengthened: &[StrengthenedRow],
) -> Standardized {
    let n = model.num_vars();
    let mut col_of_var: Vec<Option<u32>> = vec![None; n]; // local compression map
    let mut fixed_val = vec![0.0; n];
    let mut var_of_col = Vec::new();
    let mut obj_offset = model.objective.constant();
    let mut costs = Vec::new();
    let mut clb = Vec::new();
    let mut cub = Vec::new();
    let mut col_is_int = Vec::new();

    for i in 0..n {
        if (ub[i] - lb[i]).abs() <= FEAS_TOL && lb[i].is_finite() {
            fixed_val[i] = lb[i];
            obj_offset += minimize_costs[i] * lb[i];
        } else {
            col_of_var[i] = Some(var_of_col.len() as u32);
            var_of_col.push(i as u32);
            costs.push(minimize_costs[i]);
            clb.push(lb[i]);
            cub.push(ub[i]);
            col_is_int.push(model.vars[i].kind != VarKind::Continuous);
        }
    }
    let ns = var_of_col.len();

    let mut rows = Vec::new();
    let mut rhs = Vec::new();
    let mut si = 0usize;
    for (ci, c) in model.constraints.iter().enumerate() {
        let strong = if si < strengthened.len() && strengthened[si].0 == ci {
            si += 1;
            Some(&strengthened[si - 1])
        } else {
            None
        };
        if redundant[ci] {
            continue;
        }
        let mut row: Vec<(u32, f64)> = Vec::with_capacity(c.expr.len() + 1);
        let mut b = match strong {
            Some((_, _, srhs)) => *srhs,
            None => c.rhs,
        };
        let add = |row: &mut Vec<(u32, f64)>, b: &mut f64, v: Var, coef: f64| match col_of_var
            [v.index()]
        {
            Some(col) => row.push((col, coef)),
            None => *b -= coef * fixed_val[v.index()],
        };
        match strong {
            Some((_, terms, _)) => {
                for &(v, coef) in terms {
                    add(&mut row, &mut b, v, coef);
                }
            }
            None => {
                for (v, coef) in c.expr.iter() {
                    add(&mut row, &mut b, v, coef);
                }
            }
        }
        if row.is_empty() {
            continue; // fully fixed row; presolve guarantees it is satisfied
        }
        let slack_col = (ns + rows.len()) as u32;
        row.push((slack_col, 1.0));
        match c.cmp {
            Cmp::Le => {
                clb.push(0.0);
                cub.push(f64::INFINITY);
            }
            Cmp::Ge => {
                clb.push(f64::NEG_INFINITY);
                cub.push(0.0);
            }
            Cmp::Eq => {
                clb.push(0.0);
                cub.push(0.0);
            }
        }
        costs.push(0.0);
        rows.push(row);
        rhs.push(b);
    }

    Standardized {
        lp: LpProblem::new(ns, costs, clb, cub, rows, rhs),
        fixed_val,
        var_of_col,
        obj_offset,
        col_is_int,
    }
}

/// A branch decision: tighten one column's bound.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundDelta {
    pub(crate) col: u32,
    /// True: set lower bound; false: set upper bound.
    pub(crate) is_lower: bool,
    pub(crate) value: f64,
}

impl BoundDelta {
    /// Tightens `lb`/`ub` by this delta (never loosens).
    pub(crate) fn tighten(&self, lb: &mut [f64], ub: &mut [f64]) {
        let c = self.col as usize;
        if self.is_lower {
            if self.value > lb[c] {
                lb[c] = self.value;
            }
        } else if self.value < ub[c] {
            ub[c] = self.value;
        }
    }
}

/// Rejects a NaN node bound before it can reach the open-node heap.
///
/// The node comparator is [`f64::total_cmp`], so a NaN no longer
/// *corrupts* heap order — but a node whose LP relaxation evaluated to NaN
/// has no meaningful place in a best-first search either, so the solve is
/// aborted as a numerical failure (which the
/// [`numerical_retry`](BranchConfig::numerical_retry) path then retries
/// with Bland's rule).
pub(crate) fn checked_bound(bound: f64) -> Result<f64, SolveError> {
    if bound.is_nan() {
        return Err(SolveError::Numerical(
            "LP relaxation produced a NaN node bound; refusing to enqueue it".into(),
        ));
    }
    Ok(bound)
}

/// Expands a compressed LP solution back to full model-variable space.
pub(crate) fn expand(std: &Standardized, x: &[f64]) -> Vec<f64> {
    let mut out = std.fixed_val.clone();
    for (col, &v) in x.iter().enumerate() {
        out[std.var_of_col[col] as usize] = v;
    }
    out
}

/// Pseudocost tables: average objective degradation per unit of fractional
/// distance, per column and branching direction.
pub(crate) struct PcTables {
    up: Vec<(f64, u32)>,
    down: Vec<(f64, u32)>,
}

impl PcTables {
    pub(crate) fn new(num_structural: usize) -> PcTables {
        PcTables {
            up: vec![(0.0, 0); num_structural],
            down: vec![(0.0, 0); num_structural],
        }
    }

    /// Records the observed degradation of one branching: child LP bound
    /// `lp_obj` against its parent's `parent_obj` over distance `dist`.
    pub(crate) fn observe(
        &mut self,
        col: usize,
        up: bool,
        parent_obj: f64,
        dist: f64,
        lp_obj: f64,
    ) {
        let gain = ((lp_obj - parent_obj) / dist.max(1e-6)).max(0.0);
        let slot = if up {
            &mut self.up[col]
        } else {
            &mut self.down[col]
        };
        slot.0 += gain;
        slot.1 += 1;
    }

    /// Branching column for the fractional LP point `x`: pseudocost product
    /// score, falling back to the global average while a column is
    /// unobserved. `None` means `x` is integral.
    pub(crate) fn pick_branch(&self, x: &[f64], col_is_int: &[bool]) -> Option<(usize, f64)> {
        let avg = |table: &[(f64, u32)]| -> f64 {
            let (s, n) = table
                .iter()
                .fold((0.0, 0u32), |(s, n), &(ts, tn)| (s + ts, n + tn));
            if n > 0 {
                s / n as f64
            } else {
                1.0
            }
        };
        let global_up = avg(&self.up);
        let global_down = avg(&self.down);
        let mut frac_col: Option<(usize, f64)> = None;
        let mut best_score = -1.0f64;
        for (c, &xi) in x.iter().enumerate() {
            if col_is_int[c] {
                let f = (xi - xi.round()).abs();
                if f > FEAS_TOL {
                    let d_up = xi.ceil() - xi;
                    let d_down = xi - xi.floor();
                    let e_up = if self.up[c].1 > 0 {
                        self.up[c].0 / self.up[c].1 as f64
                    } else {
                        global_up
                    };
                    let e_down = if self.down[c].1 > 0 {
                        self.down[c].0 / self.down[c].1 as f64
                    } else {
                        global_down
                    };
                    let score = (e_up * d_up).max(1e-8) * (e_down * d_down).max(1e-8);
                    if score > best_score {
                        best_score = score;
                        frac_col = Some((c, f));
                    }
                }
            }
        }
        frac_col
    }
}

/// An incumbent in minimize space: full model values, minimize-space
/// objective, and provenance.
pub(crate) type Incumbent = (Vec<f64>, f64, IncumbentSource);

/// Everything the search needs, immutable for the whole solve.
pub(crate) struct SearchCtx<'a> {
    pub(crate) model: &'a Model,
    pub(crate) config: &'a BranchConfig,
    pub(crate) maximize: bool,
    pub(crate) budget: Budget,
    pub(crate) lp_opts: SimplexOpts,
    /// Per-variable objective costs in minimize space.
    pub(crate) costs: Vec<f64>,
    pub(crate) std: Standardized,
    /// Added to raw LP objectives to express them in (minimize-space)
    /// model objective terms.
    pub(crate) obj_offset: f64,
    pub(crate) start: Instant,
    /// Optimal basis of the (cut-augmented) root LP, solved once during
    /// [`prepare`]; the search seeds its root node with it so the first
    /// node is a near-free dual warm restart instead of a from-scratch
    /// solve.
    pub(crate) root_basis: Option<Arc<Basis>>,
    /// Per-phase breakdown of the work done in [`prepare`].
    pub(crate) root_profile: RootProfile,
    /// LP work of the root stage, interrupted solves included (the search
    /// adds its node-loop work on top in [`finish`]).
    pub(crate) root_work: LpWork,
}

impl SearchCtx<'_> {
    /// Minimize-space objective of a full model assignment.
    pub(crate) fn eval_obj(&self, vals: &[f64]) -> f64 {
        vals.iter()
            .enumerate()
            .map(|(i, v)| self.costs[i] * v)
            .sum::<f64>()
            + if self.maximize {
                -self.model.objective.constant()
            } else {
                self.model.objective.constant()
            }
    }
}

/// Search telemetry counters. Each worker keeps its own; the search sums
/// them when the workers join.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SearchCounters {
    /// Nodes popped and processed (LP relaxation attempted).
    pub(crate) explored: u64,
    /// Nodes discarded without children (bound cutoff, empty box,
    /// propagation/LP infeasibility, non-root unboundedness).
    pub(crate) pruned: u64,
    /// Nodes split into two children.
    pub(crate) branched: u64,
    /// Nodes that arrived with a cached parent basis and tried the dual
    /// warm restart.
    pub(crate) warm_attempts: u64,
    /// Warm-restart attempts that reoptimized without falling back to the
    /// from-scratch primal.
    pub(crate) warm_hits: u64,
    /// LP work across all node solves, interrupted ones included.
    pub(crate) lp: LpWork,
}

impl SearchCounters {
    pub(crate) fn absorb(&mut self, o: &SearchCounters) {
        self.explored += o.explored;
        self.pruned += o.pruned;
        self.branched += o.branched;
        self.warm_attempts += o.warm_attempts;
        self.warm_hits += o.warm_hits;
        self.lp.absorb(&o.lp);
    }
}

/// What the search hands back for final assembly.
pub(crate) struct SearchOutcome {
    pub(crate) incumbent: Option<Incumbent>,
    /// Minimize-space timeline; flipped to caller space by [`finish`].
    pub(crate) timeline: Vec<IncumbentEvent>,
    pub(crate) counters: SearchCounters,
    pub(crate) limit_hit: Option<String>,
    pub(crate) best_open_bound: f64,
    pub(crate) saw_unbounded_root: bool,
}

/// The model/config digest the search starts from.
pub(crate) struct Prepared<'a> {
    pub(crate) ctx: SearchCtx<'a>,
    /// Validated warm starts, `initial` first: the search offers them as
    /// incumbents in this order.
    pub(crate) starts: Vec<Vec<f64>>,
    pub(crate) warm_start: WarmStartStatus,
}

/// Presolves, standardizes and validates warm starts — everything up to
/// (but not including) the node loop.
pub(crate) fn prepare<'a>(
    model: &'a Model,
    config: &'a BranchConfig,
) -> Result<Prepared<'a>, SolveError> {
    let start = Instant::now();
    let maximize = model.sense == Sense::Maximize;
    let budget = config.effective_budget();
    let lp_opts = SimplexOpts {
        max_iters: config.max_lp_iters,
        force_bland: config.force_bland,
        tol_scale: config.tol_scale,
        budget: budget.clone(),
        pricing: config.pricing,
    };

    // Internal costs are always "minimize".
    let mut costs = vec![0.0; model.num_vars()];
    for (v, c) in model.objective.iter() {
        costs[v.index()] = if maximize { -c } else { c };
    }

    let mut profile = RootProfile::default();
    let t_pre = Instant::now();
    let popts = PresolveOpts {
        probing: config.probing,
        strengthen: config.probing,
    };
    let pre = presolve_with_opts(model, &budget, &popts);
    if pre.infeasible {
        return Err(SolveError::Infeasible);
    }
    let mut std = standardize(
        model,
        &pre.lb,
        &pre.ub,
        &pre.redundant,
        &costs,
        &pre.strengthened,
    );
    if config.scaling {
        let ss = std.lp.equilibrate();
        profile.scale_rows = ss.rows_scaled;
        profile.scale_range_before = ss.range_before;
        profile.scale_range_after = ss.range_after;
    }
    profile.presolve_us = t_pre.elapsed().as_micros() as u64;
    // `std.obj_offset` holds the raw model constant plus fixed-variable cost
    // contributions (the latter already in minimize space). In maximize mode
    // the constant must enter minimize space negated.
    let signed_const = if maximize {
        -model.objective.constant()
    } else {
        model.objective.constant()
    };
    let obj_offset = std.obj_offset - model.objective.constant() + signed_const;

    // Solve the root LP once, run the cut loop on it, and hand the final
    // basis to the search so its root node is a near-free warm restart.
    let mut root_work = LpWork::default();
    let root_basis = root_stage(
        &mut std,
        &lp_opts,
        config.cuts,
        config.reduce,
        &mut profile,
        &mut root_work,
    )?;

    let ctx = SearchCtx {
        model,
        config,
        maximize,
        budget,
        lp_opts,
        costs,
        std,
        obj_offset,
        start,
        root_basis,
        root_profile: profile,
        root_work,
    };

    // Validate any warm start up front; the outcome (with the exact
    // violation on rejection) is surfaced on the returned Solution instead
    // of being dropped silently.
    let mut starts = Vec::new();
    let mut warm_start = WarmStartStatus::NotProvided;
    if let Some(init) = &config.initial {
        match certify_values(model, init, FEAS_TOL * 10.0) {
            Ok(_) => {
                warm_start = WarmStartStatus::Accepted;
                starts.push(init.clone());
            }
            Err(why) => warm_start = WarmStartStatus::Rejected(why),
        }
    }

    // Handed-off incumbents: validated exactly like the warm start. The
    // search keeps whichever candidate has the best objective. An
    // infeasible hand-off is simply ignored (the donor solved a
    // *neighboring* model, so mismatches are expected).
    for cand in &config.extra_starts {
        if certify_values(model, cand, FEAS_TOL * 10.0).is_ok() {
            if warm_start == WarmStartStatus::NotProvided {
                warm_start = WarmStartStatus::Accepted;
            }
            starts.push(cand.clone());
        }
    }

    Ok(Prepared {
        ctx,
        starts,
        warm_start,
    })
}

/// `solve_lp_from` behind the LP reduction presolve: shrink the problem
/// (empty/redundant/singleton/duplicate rows, fixed/empty columns), solve
/// the reduction, then lift the solution *and basis* back to the full
/// space so certification, warm restarts and cut separation all keep
/// operating on the original rows. With `reduce` off — or when reduction
/// removes nothing — this is exactly `solve_lp_from`. `stats_out`, when
/// given, receives the reduction counters of this call.
pub(crate) fn solve_lp_reduced(
    p: &LpProblem,
    lb: &[f64],
    ub: &[f64],
    opts: &SimplexOpts,
    reduce: bool,
    stats_out: Option<&mut ReductionStats>,
) -> Result<LpResult, LpError> {
    if !reduce {
        return solve_lp_from(p, lb, ub, opts);
    }
    let red = match reduce_lp(p, lb, ub) {
        LpReduction::Infeasible => {
            return Ok(LpResult {
                outcome: LpOutcome::Infeasible,
                work: LpWork::default(),
                first_factor_us: 0,
                basis: None,
            })
        }
        LpReduction::Reduced(r) => r,
    };
    if let Some(s) = stats_out {
        *s = red.stats;
    }
    if red.is_noop() {
        return solve_lp_from(p, lb, ub, opts);
    }
    let mut res = solve_lp_from(&red.lp, &red.lb, &red.ub, opts)?;
    res.outcome = match res.outcome {
        LpOutcome::Optimal { x, obj } => {
            let (xf, bf) = red.postsolve(lb, ub, &x, res.basis.as_ref());
            res.basis = bf;
            LpOutcome::Optimal {
                x: xf,
                obj: obj + red.obj_offset,
            }
        }
        other => {
            // Infeasible/unbounded transfer verbatim (the reduction is an
            // exact reformulation), but a reduced-space basis is useless.
            res.basis = None;
            other
        }
    };
    Ok(res)
}

/// Bounded number of root cut-separation rounds.
const MAX_CUT_ROUNDS: usize = 8;
/// Cuts of each family separated per round.
const MAX_CUTS_PER_ROUND: usize = 16;

/// Solves the root LP and, when enabled, runs the root cut loop: separate
/// Gomory + cover cuts from the optimal basis, append them (each with its
/// own slack column), and reoptimize with the dual simplex from the
/// extended basis. Mutates `std.lp` — the search then explores the
/// cut-augmented LP — and returns the final root basis. Every LP solve's
/// work, interrupted ones included, is added to `work`.
///
/// Root conditions the search already handles (budget exhausted,
/// infeasible or unbounded relaxation) return `Ok(None)` so the node loop
/// rediscovers them through its normal reporting paths; only numerical
/// breakdown is an error here.
fn root_stage(
    std: &mut Standardized,
    lp_opts: &SimplexOpts,
    cuts: CutMode,
    reduce: bool,
    profile: &mut RootProfile,
    work: &mut LpWork,
) -> Result<Option<Arc<Basis>>, SolveError> {
    let t0 = Instant::now();
    let result = root_stage_inner(std, lp_opts, cuts, reduce, profile, work);
    profile.root_lp_us = (t0.elapsed().as_micros() as u64).saturating_sub(profile.cut_us);
    profile.root_lp_iters = work.iterations;
    result
}

fn root_stage_inner(
    std: &mut Standardized,
    lp_opts: &SimplexOpts,
    cuts: CutMode,
    reduce: bool,
    profile: &mut RootProfile,
    work: &mut LpWork,
) -> Result<Option<Arc<Basis>>, SolveError> {
    let mut red_stats = ReductionStats::default();
    let res = match solve_lp_reduced(
        &std.lp,
        &std.lp.lb,
        &std.lp.ub,
        lp_opts,
        reduce,
        Some(&mut red_stats),
    ) {
        Ok(r) => r,
        Err(LpError::Budget { work: spent, .. }) => {
            work.absorb(&spent);
            return Ok(None);
        }
        Err(LpError::Numerical(msg)) => return Err(SolveError::Numerical(msg)),
    };
    profile.reduce_rows = red_stats.rows_dropped;
    profile.reduce_cols = red_stats.cols_dropped;
    profile.first_factor_us = res.first_factor_us;
    work.absorb(&res.work);
    let (mut x, mut obj) = match res.outcome {
        LpOutcome::Optimal { x, obj } => (x, obj),
        // Infeasible / unbounded root: let the search rediscover it.
        _ => return Ok(None),
    };
    let mut basis = match res.basis {
        Some(b) => b,
        None => return Ok(None),
    };

    if cuts != CutMode::Root {
        return Ok(Some(Arc::new(basis)));
    }

    let mut stall = 0u32;
    for _round in 0..MAX_CUT_ROUNDS {
        if lp_opts.budget.exhausted() {
            break;
        }
        // Nothing to cut once the relaxation is integral.
        let fractional = x
            .iter()
            .zip(std.col_is_int.iter())
            .any(|(xi, &int)| int && (xi - xi.round()).abs() > FEAS_TOL);
        if !fractional {
            break;
        }
        let t_cut = Instant::now();
        let mut new_cuts = gomory_cuts(
            &std.lp,
            &std.lp.lb,
            &std.lp.ub,
            &basis,
            &std.col_is_int,
            MAX_CUTS_PER_ROUND,
        );
        new_cuts.extend(cover_cuts(
            &std.lp,
            &std.lp.lb,
            &std.lp.ub,
            &x,
            &std.col_is_int,
            MAX_CUTS_PER_ROUND,
        ));
        profile.cut_us += t_cut.elapsed().as_micros() as u64;
        if new_cuts.is_empty() {
            break;
        }
        let first_new_col = std.lp.num_cols;
        std.lp = with_cut_rows(&std.lp, &new_cuts);
        basis = basis.extended_with_cut_slacks(first_new_col, new_cuts.len());
        profile.cut_rounds += 1;
        profile.cuts_added += new_cuts.len() as u64;

        // Reoptimize from the extended basis (dual simplex), falling back
        // to a from-scratch solve when the restart goes stale.
        let resolved = match resolve_lp(&std.lp, &std.lp.lb, &std.lp.ub, &basis, lp_opts) {
            Ok(Some(r)) => Ok(r),
            Ok(None) => solve_lp_reduced(&std.lp, &std.lp.lb, &std.lp.ub, lp_opts, reduce, None),
            Err(e) => Err(e),
        };
        let resolved = match resolved {
            Ok(r) => r,
            Err(LpError::Budget { work: spent, .. }) => {
                work.absorb(&spent);
                break;
            }
            Err(LpError::Numerical(msg)) => return Err(SolveError::Numerical(msg)),
        };
        work.absorb(&resolved.work);
        let (nx, nobj) = match resolved.outcome {
            LpOutcome::Optimal { x, obj } => (x, obj),
            // Cuts hold for every integer point, so a cut-infeasible
            // relaxation means the integer problem is infeasible; hand the
            // augmented LP back basis-less and let the search report it.
            LpOutcome::Infeasible | LpOutcome::Unbounded => return Ok(None),
        };
        let Some(nb) = resolved.basis else { break };
        // Minimize space: cuts can only raise the root bound. Stop after
        // two rounds without measurable progress.
        if nobj <= obj + 1e-7 * obj.abs().max(1.0) {
            stall += 1;
        } else {
            stall = 0;
        }
        x = nx;
        obj = nobj;
        basis = nb;
        if stall >= 2 {
            break;
        }
    }
    Ok(Some(Arc::new(basis)))
}

/// Assembles the final [`Solution`] (or error) from a finished search.
pub(crate) fn finish(
    ctx: &SearchCtx<'_>,
    warm_start: WarmStartStatus,
    out: SearchOutcome,
) -> Result<Solution, SolveError> {
    if out.saw_unbounded_root {
        return Err(SolveError::Unbounded);
    }
    let Some((values, obj, source)) = out.incumbent else {
        return Err(match out.limit_hit {
            None => SolveError::Infeasible,
            Some(l) => SolveError::Limit(l),
        });
    };
    let (status, bound) = match out.limit_hit {
        None => (SolveStatus::Optimal, obj),
        Some(_) => (SolveStatus::Feasible, out.best_open_bound.min(obj)),
    };
    let flip = |v: f64| if ctx.maximize { -v } else { v };
    let timeline: Vec<IncumbentEvent> = out
        .timeline
        .into_iter()
        .map(|e| IncumbentEvent {
            objective: flip(e.objective),
            ..e
        })
        .collect();
    // Root-stage LP work happened before the search took over, so the
    // node-loop counters do not include it.
    let mut lp = ctx.root_work;
    lp.absorb(&out.counters.lp);
    Ok(Solution {
        values,
        objective: flip(obj),
        best_bound: flip(bound),
        status,
        nodes: out.counters.explored,
        nodes_pruned: out.counters.pruned,
        nodes_branched: out.counters.branched,
        lp_iterations: lp.iterations,
        lp_warm_attempts: out.counters.warm_attempts,
        lp_warm_hits: out.counters.warm_hits,
        lp_refactors: lp.refactors,
        lp_ftran: lp.kernel.ftran,
        lp_ftran_hyper: lp.kernel.ftran_hyper,
        lp_btran: lp.kernel.btran,
        lp_btran_hyper: lp.kernel.btran_hyper,
        wall_time: ctx.start.elapsed(),
        incumbent_source: source,
        warm_start,
        certificate: None,
        timeline,
        jobs: ctx.config.jobs.max(1),
        root_profile: ctx.root_profile,
    })
}

/// Solves `model` by branch and bound.
///
/// # Errors
///
/// * [`SolveError::Infeasible`] / [`SolveError::Unbounded`] for models with
///   no optimum.
/// * [`SolveError::Limit`] when a limit fires before any feasible point.
/// * [`SolveError::Numerical`] on simplex breakdown.
pub fn solve(model: &Model, config: &BranchConfig) -> Result<Solution, SolveError> {
    let Prepared {
        ctx,
        starts,
        warm_start,
    } = prepare(model, config)?;
    let out = crate::search::search(&ctx, starts)?;
    finish(&ctx, warm_start, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn pure_lp_passes_through() {
        let mut m = Model::new("lp");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constraint("c1", x + y, Cmp::Le, 4.0);
        m.set_objective(3.0 * x + 2.0 * y, Sense::Maximize);
        let s = m.solve().unwrap();
        assert!(s.is_optimal());
        assert!((s.objective() - 12.0).abs() < 1e-6);
    }

    #[test]
    fn knapsack_small() {
        // Classic 0/1 knapsack: weights 2,3,4,5 values 3,4,5,6 cap 5 -> best 7 (items 1+2).
        let mut m = Model::new("knap");
        let items: Vec<_> = (0..4).map(|i| m.add_binary(format!("x{i}"))).collect();
        let w = [2.0, 3.0, 4.0, 5.0];
        let v = [3.0, 4.0, 5.0, 6.0];
        let weight: crate::LinExpr = items.iter().zip(w.iter()).map(|(&x, &wi)| wi * x).sum();
        let value: crate::LinExpr = items.iter().zip(v.iter()).map(|(&x, &vi)| vi * x).sum();
        m.add_constraint("cap", weight, Cmp::Le, 5.0);
        m.set_objective(value, Sense::Maximize);
        let s = m.solve().unwrap();
        assert!(s.is_optimal());
        assert!((s.objective() - 7.0).abs() < 1e-6);
        assert_eq!(s.int_value(items[0]), 1);
        assert_eq!(s.int_value(items[1]), 1);
    }

    #[test]
    fn integer_rounding_gap() {
        // min x s.t. 2x >= 5, x integer -> x = 3 (LP gives 2.5).
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Ge, 5.0);
        m.set_objective(crate::LinExpr::from(x), Sense::Minimize);
        let s = m.solve().unwrap();
        assert_eq!(s.int_value(x), 3);
        assert!(s.is_optimal());
    }

    #[test]
    fn infeasible_integer_model() {
        // 0 <= x <= 1 integer, 2x = 1 -> infeasible.
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 1.0);
        m.add_constraint("c", 2.0 * x, Cmp::Eq, 1.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn warm_start_is_used() {
        let mut m = Model::new("t");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint("c", x + y, Cmp::Le, 1.0);
        m.set_objective(x + y, Sense::Maximize);
        let cfg = BranchConfig {
            initial: Some(vec![1.0, 0.0]),
            ..BranchConfig::default()
        };
        let s = m.solve_with(&cfg).unwrap();
        assert!((s.objective() - 1.0).abs() < 1e-6);
        assert_eq!(*s.warm_start(), WarmStartStatus::Accepted);
    }

    #[test]
    fn infeasible_warm_start_is_rejected_with_reason() {
        let mut m = Model::new("t");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint("cap", x + y, Cmp::Le, 1.0);
        m.set_objective(x + y, Sense::Maximize);
        let cfg = BranchConfig {
            initial: Some(vec![1.0, 1.0]), // violates "cap"
            ..BranchConfig::default()
        };
        let s = m.solve_with(&cfg).unwrap();
        assert!((s.objective() - 1.0).abs() < 1e-6);
        match s.warm_start() {
            WarmStartStatus::Rejected(crate::CertifyError::ConstraintViolation {
                constraint,
                ..
            }) => assert_eq!(constraint, "cap"),
            other => panic!("expected rejection naming the constraint, got {other:?}"),
        }
    }

    #[test]
    fn handed_off_incumbents_compete_on_objective() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Ge, 5.0);
        m.set_objective(crate::LinExpr::from(x), Sense::Minimize);
        // No `initial`; two hand-offs — one infeasible (ignored), one
        // feasible. Under a dead budget the best feasible hand-off is
        // exactly what comes back.
        let cfg = BranchConfig {
            budget: Budget::with_limit(Duration::ZERO),
            time_limit: None,
            extra_starts: vec![vec![1.0], vec![4.0]], // 1.0 violates "c"
            ..BranchConfig::default()
        };
        let s = m.solve_with(&cfg).unwrap();
        assert_eq!(s.status(), SolveStatus::Feasible);
        assert_eq!(s.int_value(x), 4);
        assert_eq!(*s.warm_start(), WarmStartStatus::Accepted);
        assert_eq!(s.incumbent_source(), IncumbentSource::WarmStart);
    }

    #[test]
    fn exhausted_budget_returns_warm_start_incumbent() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Ge, 5.0);
        m.set_objective(crate::LinExpr::from(x), Sense::Minimize);
        let cfg = BranchConfig {
            budget: Budget::with_limit(Duration::ZERO),
            time_limit: None,
            initial: Some(vec![4.0]),
            ..BranchConfig::default()
        };
        let s = m.solve_with(&cfg).unwrap();
        assert_eq!(s.status(), SolveStatus::Feasible);
        assert_eq!(s.int_value(x), 4);
        assert_eq!(s.incumbent_source(), IncumbentSource::WarmStart);
        assert!(s.certificate().is_some());
    }

    #[test]
    fn exhausted_budget_without_incumbent_is_a_limit_error() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Ge, 5.0);
        m.set_objective(crate::LinExpr::from(x), Sense::Minimize);
        let cfg = BranchConfig {
            budget: Budget::with_limit(Duration::ZERO),
            time_limit: None,
            ..BranchConfig::default()
        };
        assert!(matches!(
            m.solve_with(&cfg).unwrap_err(),
            SolveError::Limit(_)
        ));
    }

    #[test]
    fn cancellation_stops_the_search() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", 2.0 * x, Cmp::Ge, 5.0);
        m.set_objective(crate::LinExpr::from(x), Sense::Minimize);
        let budget = Budget::unlimited();
        budget.cancel();
        let cfg = BranchConfig {
            budget,
            time_limit: None,
            ..BranchConfig::default()
        };
        match m.solve_with(&cfg).unwrap_err() {
            SolveError::Limit(msg) => assert!(msg.contains("cancelled"), "{msg}"),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn objective_constant_is_reported() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 5.0);
        m.set_objective(x + 10.0, Sense::Minimize);
        let s = m.solve().unwrap();
        assert!((s.objective() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn maximize_with_constant() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 5.0);
        m.set_objective(x + 10.0, Sense::Maximize);
        let s = m.solve().unwrap();
        assert!((s.objective() - 15.0).abs() < 1e-6, "got {}", s.objective());
    }

    #[test]
    fn equality_constrained_integers() {
        // x + y = 7, x - y = 1, integers: x=4, y=3.
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        let y = m.add_integer("y", 0.0, 10.0);
        m.add_constraint("s", x + y, Cmp::Eq, 7.0);
        m.add_constraint("d", x - y, Cmp::Eq, 1.0);
        m.set_objective(crate::LinExpr::new(), Sense::Minimize);
        let s = m.solve().unwrap();
        assert_eq!(s.int_value(x), 4);
        assert_eq!(s.int_value(y), 3);
    }

    #[test]
    fn nan_bound_is_rejected_not_enqueued() {
        // Regression for the NaN-unsafe heap ordering: a NaN node bound is
        // refused at admission (numerical failure) instead of entering the
        // heap where it used to compare "equal" to everything.
        assert!(matches!(
            checked_bound(f64::NAN),
            Err(SolveError::Numerical(_))
        ));
        assert_eq!(checked_bound(2.5).unwrap(), 2.5);
        // Infinities are lawful bounds (root sentinel / empty relaxations).
        assert!(checked_bound(f64::NEG_INFINITY).is_ok());
        assert!(checked_bound(f64::INFINITY).is_ok());
    }

    #[test]
    fn nan_objective_is_a_numerical_error() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 5.0);
        m.set_objective(f64::NAN * x, Sense::Minimize);
        assert!(matches!(m.solve().unwrap_err(), SolveError::Numerical(_)));
    }

    #[test]
    fn telemetry_counters_are_reported() {
        // The knapsack forces real branching, so explored/branched/pruned
        // and the incumbent timeline must all be non-trivial.
        let mut m = Model::new("knap");
        let items: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        let w = [2.0, 3.0, 4.0, 5.0, 7.0, 8.0];
        let v = [3.0, 4.0, 5.0, 6.0, 9.0, 10.0];
        let weight: crate::LinExpr = items.iter().zip(w.iter()).map(|(&x, &wi)| wi * x).sum();
        let value: crate::LinExpr = items.iter().zip(v.iter()).map(|(&x, &vi)| vi * x).sum();
        m.add_constraint("cap", weight, Cmp::Le, 11.0);
        m.set_objective(value, Sense::Maximize);
        // Root cuts can make this knapsack integral at the root; disable
        // them (and probing) so the search genuinely branches.
        let cfg = BranchConfig {
            cuts: CutMode::Off,
            probing: false,
            ..BranchConfig::default()
        };
        let s = m.solve_with(&cfg).unwrap();
        assert!(s.is_optimal());
        assert!(s.nodes() >= 1);
        assert!(s.nodes_branched() >= 1, "expected at least one branching");
        assert!(!s.incumbent_timeline().is_empty());
        // The timeline must strictly improve toward the final objective.
        let objs: Vec<f64> = s.incumbent_timeline().iter().map(|e| e.objective).collect();
        for pair in objs.windows(2) {
            assert!(
                pair[1] > pair[0],
                "maximize timeline not improving: {objs:?}"
            );
        }
        assert_eq!(*objs.last().unwrap(), s.objective());
        assert_eq!(s.jobs(), 1);
    }

    #[test]
    fn all_pricing_and_cut_configs_agree() {
        // The same knapsack solved under every pricing × cuts × probing
        // combination must prove the same optimum.
        let build = || {
            let mut m = Model::new("knap");
            let items: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
            let w = [2.0, 3.0, 4.0, 5.0, 7.0, 8.0];
            let v = [3.0, 4.0, 5.0, 6.0, 9.0, 10.0];
            let weight: crate::LinExpr = items.iter().zip(w.iter()).map(|(&x, &wi)| wi * x).sum();
            let value: crate::LinExpr = items.iter().zip(v.iter()).map(|(&x, &vi)| vi * x).sum();
            m.add_constraint("cap", weight, Cmp::Le, 11.0);
            m.set_objective(value, Sense::Maximize);
            m
        };
        for pricing in [Pricing::Dantzig, Pricing::Devex] {
            for cuts in [CutMode::Off, CutMode::Root] {
                for probing in [false, true] {
                    let cfg = BranchConfig {
                        pricing,
                        cuts,
                        probing,
                        ..BranchConfig::default()
                    };
                    let s = build().solve_with(&cfg).unwrap();
                    assert!(s.is_optimal(), "{pricing:?}/{cuts:?}/probing={probing}");
                    assert!(
                        (s.objective() - 14.0).abs() < 1e-6,
                        "{pricing:?}/{cuts:?}/probing={probing}: {}",
                        s.objective()
                    );
                }
            }
        }
    }

    #[test]
    fn root_profile_reports_root_lp_work() {
        let mut m = Model::new("knap");
        let items: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        let w = [2.0, 3.0, 4.0, 5.0, 7.0, 8.0];
        let v = [3.0, 4.0, 5.0, 6.0, 9.0, 10.0];
        let weight: crate::LinExpr = items.iter().zip(w.iter()).map(|(&x, &wi)| wi * x).sum();
        let value: crate::LinExpr = items.iter().zip(v.iter()).map(|(&x, &vi)| vi * x).sum();
        m.add_constraint("cap", weight, Cmp::Le, 11.0);
        m.set_objective(value, Sense::Maximize);
        let s = m.solve().unwrap();
        let p = s.root_profile();
        assert!(p.root_lp_iters > 0, "root LP must do work: {p:?}");
        assert!(
            s.lp_iterations() >= p.root_lp_iters,
            "totals include the root stage: {} < {}",
            s.lp_iterations(),
            p.root_lp_iters
        );
        // Cut telemetry is consistent: rounds imply cuts and vice versa.
        assert_eq!(p.cut_rounds == 0, p.cuts_added == 0, "{p:?}");
    }

    /// A 0/1 knapsack with `n` items whose root LP is fractional, plus an
    /// all-zero (feasible) warm start.
    fn knapsack_with_warm_start(n: usize) -> (Model, Vec<f64>) {
        let mut m = Model::new("knap");
        let items: Vec<_> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();
        let weight: crate::LinExpr = items
            .iter()
            .enumerate()
            .map(|(i, &x)| (3 + (i * 7) % 11) as f64 * x)
            .sum();
        let value: crate::LinExpr = items
            .iter()
            .enumerate()
            .map(|(i, &x)| (5 + (i * 13) % 17) as f64 * x)
            .sum();
        m.add_constraint("cap", weight, Cmp::Le, (4 * n) as f64);
        m.set_objective(value, Sense::Maximize);
        (m, vec![0.0; n])
    }

    #[test]
    fn root_stage_refactorizations_are_counted() {
        // With node_limit 0 the search explores nothing, so every counter
        // reports root-stage work alone: the root LP factorizes its basis
        // at least once, and that must show up in the totals.
        let (m, warm) = knapsack_with_warm_start(40);
        let cfg = BranchConfig {
            node_limit: 0,
            initial: Some(warm),
            ..BranchConfig::default()
        };
        let s = m.solve_with(&cfg).unwrap();
        assert_eq!(s.status(), SolveStatus::Feasible);
        assert_eq!(s.nodes(), 0);
        assert!(s.root_profile().root_lp_iters > 0, "the root LP pivoted");
        assert_eq!(s.lp_iterations(), s.root_profile().root_lp_iters);
        assert!(s.lp_refactors() >= 1, "root refactorizations are lost");
        assert!(s.lp_ftran() > 0 && s.lp_btran() > 0);
    }

    #[test]
    fn interrupted_root_lp_keeps_its_work_counters() {
        // A sparse random LP that needs a few hundred pivots, two budget
        // checks' worth. A first run measures how long presolve and the
        // root LP take here; later runs get a deadline a fraction of the
        // way into the root LP, so the budget interrupts it mid-solve.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = 300;
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = Model::new("sparse");
        let xs: Vec<_> = (0..n)
            .map(|j| m.add_continuous(format!("x{j}"), 0.0, 10.0))
            .collect();
        for r in 0..n {
            let mut row = crate::LinExpr::new();
            let mut mid = 0.0;
            for _ in 0..6 {
                let a = rng.gen_range(1i64..=9) as f64;
                row += a * xs[rng.gen_range(0..n)];
                mid += 5.0 * a;
            }
            m.add_constraint(format!("r{r}"), row, Cmp::Le, mid);
        }
        let obj: crate::LinExpr = xs.iter().map(|&x| rng.gen_range(1i64..=9) as f64 * x).sum();
        m.set_objective(obj, Sense::Maximize);
        let base = BranchConfig {
            node_limit: 0,
            initial: Some(vec![0.0; n]),
            time_limit: None,
            ..BranchConfig::default()
        };
        let full = m.solve_with(&base).unwrap().root_profile();
        assert!(full.root_lp_iters > 512, "too few pivots: {full:?}");
        // The earliest deadline that lands after the first pivot and
        // before the last budget check.
        let s = [16, 8, 4, 2]
            .into_iter()
            .map(|f| {
                let limit = Duration::from_micros(full.presolve_us + full.root_lp_us / f);
                let cfg = BranchConfig {
                    time_limit: Some(limit),
                    ..base.clone()
                };
                m.solve_with(&cfg).unwrap()
            })
            .find(|s| s.root_profile().root_lp_iters < full.root_lp_iters && s.lp_iterations() > 0)
            .expect("some deadline interrupts the root LP after it pivoted");
        assert!(s.lp_refactors() > 0, "refactorizations lost: {s}");
        assert!(s.lp_ftran() > 0 && s.lp_btran() > 0, "kernel calls lost");
    }

    /// Brute-force cross-check on random small ILPs.
    #[test]
    fn random_ilps_match_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..40 {
            let nv = 4;
            let mut m = Model::new("r");
            let vars: Vec<_> = (0..nv)
                .map(|i| m.add_integer(format!("x{i}"), 0.0, 3.0))
                .collect();
            let mut cons = Vec::new();
            for ci in 0..3 {
                let a: Vec<f64> = (0..nv).map(|_| rng.gen_range(-2i64..=3) as f64).collect();
                let b = rng.gen_range(0i64..=10) as f64;
                let expr: crate::LinExpr = vars.iter().zip(a.iter()).map(|(&v, &c)| c * v).sum();
                m.add_constraint(format!("c{ci}"), expr, Cmp::Le, b);
                cons.push((a, b));
            }
            let c: Vec<f64> = (0..nv).map(|_| rng.gen_range(-3i64..=3) as f64).collect();
            let obj: crate::LinExpr = vars.iter().zip(c.iter()).map(|(&v, &co)| co * v).sum();
            m.set_objective(obj, Sense::Minimize);

            // Brute force over 4^4 = 256 points.
            let mut best = f64::INFINITY;
            for code in 0..256 {
                let xs: Vec<f64> = (0..nv).map(|i| ((code >> (2 * i)) & 3) as f64).collect();
                if cons.iter().all(|(a, b)| {
                    a.iter().zip(&xs).map(|(ai, xi)| ai * xi).sum::<f64>() <= *b + 1e-9
                }) {
                    best = best.min(c.iter().zip(&xs).map(|(ci, xi)| ci * xi).sum());
                }
            }
            match m.solve() {
                Ok(s) => {
                    assert!(s.is_optimal(), "trial {trial} not optimal");
                    assert!(
                        (s.objective() - best).abs() < 1e-5,
                        "trial {trial}: solver {} vs brute {best}",
                        s.objective()
                    );
                }
                Err(SolveError::Infeasible) => {
                    assert!(
                        best.is_infinite(),
                        "trial {trial}: solver infeasible, brute {best}"
                    );
                }
                Err(e) => panic!("trial {trial}: {e}"),
            }
        }
    }
}
