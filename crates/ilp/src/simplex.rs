//! Sparse revised simplex with bounded variables, product-form inverse,
//! and dual-simplex warm restarts.
//!
//! This is the LP engine underneath the branch-and-bound solver in
//! [`branch`](crate::branch). Two entry points:
//!
//! * [`solve_lp`] / [`solve_lp_from`] — the classic two-phase **primal**
//!   simplex generalized to variables with lower *and* upper bounds
//!   (bounded-variable pivoting keeps the binaries and small integers of
//!   the GOMIL formulations out of the constraint matrix entirely).
//! * [`resolve_lp`] — a bounded-variable **dual** simplex that restarts
//!   from a cached [`Basis`]. Branch-and-bound children differ from their
//!   parent by tightened column bounds only, so the parent's optimal basis
//!   stays dual feasible and typically reoptimizes in a handful of pivots
//!   instead of a full from-scratch solve.
//!
//! Unlike the previous dense-tableau engine, the constraint matrix is
//! stored once in compressed sparse column form ([`ColMajor`], built by
//! [`LpProblem::new`]) and never materialized as `rows × cols` floats.
//! `B⁻¹` is kept as an eta file (product form of the inverse): every pivot
//! appends one eta vector, and the file is rebuilt from the current basis
//! columns every [`REFACTOR_PERIOD`] pivots to bound both memory and
//! numerical drift. Memory is O(nnz + m·REFACTOR_PERIOD) instead of
//! O(rows·cols).
//!
//! Algorithm outline (primal):
//!
//! 1. Convert `A·x {≤,≥,=} b` to equalities with one slack per row
//!    (`s ∈ [0,∞)`, `(−∞,0]`, or `[0,0]` respectively).
//! 2. Put all structural variables at a finite bound, slacks basic. Rows
//!    whose slack value violates the slack bounds get an artificial column;
//!    phase 1 minimizes the sum of artificials.
//! 3. Artificials still basic (at zero) after phase 1 are pivoted out
//!    with degenerate pivots, so the final basis can seed warm restarts.
//!    Phase 2 minimizes the true cost with artificials pinned to zero.
//! 4. Entering-variable choice is Dantzig pricing (one BTRAN plus one pass
//!    over the sparse columns per iteration) with an automatic switch to
//!    Bland's rule after a run of degenerate pivots (anti-cycling). The
//!    ratio test breaks ties toward the largest pivot element for stability.
//!
//! Dual restart outline ([`resolve_lp`]): re-invert the cached basis under
//! the *new* bounds, verify the reduced costs are still dual feasible, then
//! drive out primal bound violations with dual ratio-test pivots. Any
//! staleness — singular basis, dual infeasibility, iteration trouble —
//! makes `resolve_lp` report a miss (with the work it spent) so the caller
//! falls back to the two-phase primal (whose Bland retry path is
//! unchanged).

use gomil_budget::{Budget, BudgetExceeded};
use std::time::Instant;

/// Feasibility / integrality tolerance used throughout the solver.
pub const FEAS_TOL: f64 = 1e-6;
/// Reduced-cost optimality tolerance.
pub const OPT_TOL: f64 = 1e-7;
/// Smallest acceptable pivot magnitude.
const PIVOT_TOL: f64 = 1e-8;
/// Pivot magnitude below which a re-inversion declares the basis singular.
const SINGULAR_TOL: f64 = 1e-10;
/// Consecutive degenerate pivots before switching to Bland's rule.
const STALL_LIMIT: u32 = 60;
/// Work units (pivots × rows) between wall-clock budget checks. A budget
/// check costs a clock read, so it is amortized over a batch of pivots —
/// but the batch must shrink as rows grow, or a wide model's expensive
/// iterations overshoot the deadline by minutes (256 pivots at ~1 s each
/// on the prefix m=64 LP blew a 120 s budget out to 257 s).
const BUDGET_CHECK_WORK: u64 = 1 << 20;
/// Eta vectors accumulated since the last re-inversion (i.e. pivots
/// performed on top of the factorized basis) before the file is rebuilt
/// from scratch.
const REFACTOR_PERIOD: usize = 64;

/// Devex weights are clamped here; runaway reference weights degrade the
/// rule toward Dantzig instead of overflowing.
const DEVEX_MAX: f64 = 1e12;

/// Pricing rule for the entering choice (primal) and the leaving-row
/// choice (dual).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pricing {
    /// Classic most-negative-reduced-cost / worst-violation pricing: the
    /// cheapest rule per iteration, kept for A/B comparison and for the
    /// numerical-retry rung (together with Bland's rule).
    Dantzig,
    /// Devex: approximate steepest edge over a reference framework
    /// (Forrest–Goldfarb). Weights reset to the current frame at every
    /// re-inversion. Costs one extra BTRAN plus a column pass per primal
    /// pivot (and almost nothing in the dual), and typically saves far
    /// more pivots than it spends on the wide GOMIL root LPs.
    #[default]
    Devex,
}

impl Pricing {
    /// Parses the CLI spelling (`dantzig` / `devex`).
    pub fn from_name(name: &str) -> Option<Pricing> {
        match name {
            "dantzig" => Some(Pricing::Dantzig),
            "devex" => Some(Pricing::Devex),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Pricing::Dantzig => "dantzig",
            Pricing::Devex => "devex",
        }
    }
}

/// Knobs for one LP solve.
#[derive(Debug, Clone)]
pub(crate) struct SimplexOpts {
    /// Total simplex iterations allowed across both phases.
    pub max_iters: u64,
    /// Use Bland's rule from the first pivot instead of only after a
    /// degenerate stall. Slower but cycle-proof; used by the numerical
    /// retry path.
    pub force_bland: bool,
    /// Multiplier on the reduced-cost optimality tolerance. Values > 1
    /// terminate earlier on numerically marginal problems.
    pub tol_scale: f64,
    /// Entering/leaving pricing rule (Bland's rule overrides it).
    pub pricing: Pricing,
    /// Wall-clock budget checked every few pivots (amortized by
    /// [`BUDGET_CHECK_WORK`] over the row count).
    pub budget: Budget,
}

impl Default for SimplexOpts {
    fn default() -> SimplexOpts {
        SimplexOpts {
            max_iters: u64::MAX,
            force_bland: false,
            tol_scale: 1.0,
            pricing: Pricing::default(),
            budget: Budget::unlimited(),
        }
    }
}

impl SimplexOpts {
    /// Options with only an iteration cap set.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn with_max_iters(max_iters: u64) -> SimplexOpts {
        SimplexOpts {
            max_iters,
            ..SimplexOpts::default()
        }
    }
}

/// Why an LP solve could not run to completion. Unlike
/// [`SolveError`](crate::SolveError) this keeps budget exhaustion separate
/// from genuine numerical trouble, so branch and bound can stop gracefully
/// with its incumbent on the former and propagate the latter.
#[derive(Debug, Clone)]
pub(crate) enum LpError {
    /// The shared wall-clock budget ran out mid-solve. `work` carries the
    /// pivots, re-inversions and kernel calls already spent, so callers can
    /// account for partial work instead of losing it from the telemetry.
    Budget {
        /// Which budget fired.
        reason: BudgetExceeded,
        /// Work performed before the budget fired.
        work: LpWork,
    },
    /// Simplex breakdown (iteration cap, non-finite data).
    Numerical(String),
}

/// Compressed sparse column view of the full constraint matrix (structural
/// and slack columns alike). Built once per [`LpProblem`]; every pricing
/// pass and FTRAN scatters against these columns instead of a dense
/// tableau.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColMajor {
    /// `col_ptr[j]..col_ptr[j+1]` indexes the entries of column `j`.
    col_ptr: Vec<u32>,
    /// Row index per entry.
    row_idx: Vec<u32>,
    /// Coefficient per entry.
    val: Vec<f64>,
}

impl ColMajor {
    /// Transposes sparse rows into CSC. Row entries are `(column, coeff)`.
    fn build(num_cols: usize, rows: &[Vec<(u32, f64)>]) -> ColMajor {
        let mut counts = vec![0u32; num_cols + 1];
        for row in rows {
            for &(c, _) in row {
                counts[c as usize + 1] += 1;
            }
        }
        for j in 0..num_cols {
            counts[j + 1] += counts[j];
        }
        let nnz = counts[num_cols] as usize;
        let mut row_idx = vec![0u32; nnz];
        let mut val = vec![0.0f64; nnz];
        let mut next = counts.clone();
        for (r, row) in rows.iter().enumerate() {
            for &(c, a) in row {
                let slot = next[c as usize] as usize;
                row_idx[slot] = r as u32;
                val[slot] = a;
                next[c as usize] += 1;
            }
        }
        ColMajor {
            col_ptr: counts,
            row_idx,
            val,
        }
    }

    /// Iterates the `(row, coefficient)` entries of column `j`.
    #[inline]
    fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j] as usize;
        let hi = self.col_ptr[j + 1] as usize;
        self.row_idx[lo..hi]
            .iter()
            .zip(&self.val[lo..hi])
            .map(|(&r, &v)| (r as usize, v))
    }

    /// Number of stored entries in column `j`.
    #[inline]
    fn col_nnz(&self, j: usize) -> usize {
        (self.col_ptr[j + 1] - self.col_ptr[j]) as usize
    }

    /// Total stored entries.
    fn nnz(&self) -> usize {
        self.row_idx.len()
    }
}

/// Telemetry from [`LpProblem::equilibrate`]: how many rows were rescaled
/// and the coefficient range (max |a| / min |a| over structural entries)
/// before and after. A shrinking range is the whole point — it is what
/// keeps pivot magnitudes away from `PIVOT_TOL` on badly-ranged models.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ScaleStats {
    /// Rows whose scale factor came out different from 1.0.
    pub rows_scaled: u64,
    /// Row-geomean spread before scaling (1.0 for an empty matrix); see
    /// [`LpProblem::row_geomean_spread`].
    pub range_before: f64,
    /// Row-geomean spread after scaling (≤ 2 up to the power-of-two
    /// rounding whenever scaling actually ran).
    pub range_after: f64,
}

/// Row-geomean spread below which [`LpProblem::equilibrate`] leaves the
/// matrix alone: after a real equilibration the spread is ≤ 2, so a matrix
/// already within 4× is as good as scaled.
const SCALE_SKIP_SPREAD: f64 = 4.0;

/// A standardized LP: minimize `costs·x` subject to sparse equality rows
/// (after slack augmentation) and column bounds.
#[derive(Debug, Clone)]
pub(crate) struct LpProblem {
    /// Number of structural columns (the caller's variables).
    pub num_structural: usize,
    /// Total columns including slacks (structural first, then slacks).
    pub num_cols: usize,
    /// Phase-2 cost per column (slack costs are zero).
    pub costs: Vec<f64>,
    /// Lower bound per column (may be `-INFINITY`).
    pub lb: Vec<f64>,
    /// Upper bound per column (may be `INFINITY`).
    pub ub: Vec<f64>,
    /// Sparse rows: `(column, coefficient)`; each row implicitly `= rhs`
    /// and already includes its slack column. Kept for bound propagation;
    /// the simplex engine works from [`cols`](Self::cols).
    pub rows: Vec<Vec<(u32, f64)>>,
    /// Right-hand sides.
    pub rhs: Vec<f64>,
    /// The same matrix in compressed sparse column form.
    pub cols: ColMajor,
    /// `Some` once [`equilibrate`](Self::equilibrate) has run, carrying its
    /// telemetry. Scaling is a pure reformulation over the same structural
    /// columns (see `equilibrate`), so no unscaling is needed anywhere.
    pub scaling: Option<ScaleStats>,
}

impl LpProblem {
    /// Assembles a problem and builds its CSC column store. `costs`, `lb`
    /// and `ub` must all have length `num_cols`; every `rows` entry must
    /// reference a column below `num_cols`.
    pub fn new(
        num_structural: usize,
        costs: Vec<f64>,
        lb: Vec<f64>,
        ub: Vec<f64>,
        rows: Vec<Vec<(u32, f64)>>,
        rhs: Vec<f64>,
    ) -> LpProblem {
        let num_cols = costs.len();
        debug_assert_eq!(lb.len(), num_cols);
        debug_assert_eq!(ub.len(), num_cols);
        debug_assert_eq!(rows.len(), rhs.len());
        let cols = ColMajor::build(num_cols, &rows);
        LpProblem {
            num_structural,
            num_cols,
            costs,
            lb,
            ub,
            rows,
            rhs,
            cols,
            scaling: None,
        }
    }

    /// Number of nonzeros in the constraint matrix.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn nnz(&self) -> usize {
        self.cols.nnz()
    }

    /// Spread of the per-row geometric coefficient means: `max/min` over
    /// rows of `geomean(|a|)` across structural entries (1.0 when no row
    /// has any). This is the quantity row equilibration controls — the
    /// within-row relative range is scale-invariant, so a global
    /// coefficient range would misreport a pure row scaling.
    fn row_geomean_spread(&self) -> f64 {
        let mut gmin = f64::INFINITY;
        let mut gmax = 0.0f64;
        for (r, row) in self.rows.iter().enumerate() {
            let slack = (self.num_structural + r) as u32;
            let mut log_sum = 0.0f64;
            let mut cnt = 0u32;
            for &(c, a) in row {
                if c != slack && a != 0.0 {
                    log_sum += a.abs().log2();
                    cnt += 1;
                }
            }
            if cnt > 0 {
                let g = (log_sum / cnt as f64).exp2();
                gmin = gmin.min(g);
                gmax = gmax.max(g);
            }
        }
        if gmax > 0.0 {
            gmax / gmin
        } else {
            1.0
        }
    }

    /// Geometric-mean row equilibration with power-of-two factors.
    ///
    /// Each row `r` is multiplied by `ρ = 2^(-round(log2 geomean(|a|)))`
    /// over its structural entries; the slack coefficient is left at 1.0,
    /// which amounts to the substitution `s' = ρ·s`. Every slack bound set
    /// produced by `standardize` — `[0, ∞)`, `(-∞, 0]`, `[0, 0]` — is
    /// invariant under positive scaling, so the scaled problem has exactly
    /// the same feasible structural points and objective as the original:
    /// nothing downstream (extraction, certify, cuts) needs to unscale.
    /// Power-of-two factors make the rescaling FP-exact, and a second call
    /// is a near-no-op (the post-scale geomean sits in `[2^-½, 2^½]`).
    ///
    /// A matrix whose row-geomean spread is already ≤ [`SCALE_SKIP_SPREAD`]
    /// is left untouched: scaling cannot meaningfully improve it, and the
    /// perturbed pivot magnitudes would only shift tolerance behavior for
    /// nothing (measured as a ~2× node-throughput loss on the
    /// small-integer-coefficient CT models).
    pub fn equilibrate(&mut self) -> ScaleStats {
        let before = self.row_geomean_spread();
        let mut stats = ScaleStats {
            rows_scaled: 0,
            range_before: before,
            range_after: before,
        };
        if before <= SCALE_SKIP_SPREAD {
            self.scaling = Some(stats);
            return stats;
        }

        for (r, row) in self.rows.iter_mut().enumerate() {
            let slack = (self.num_structural + r) as u32;
            let mut log_sum = 0.0f64;
            let mut cnt = 0u32;
            for &(c, a) in row.iter() {
                if c != slack && a != 0.0 {
                    log_sum += a.abs().log2();
                    cnt += 1;
                }
            }
            if cnt == 0 {
                continue;
            }
            let shift = -(log_sum / cnt as f64).round();
            if shift == 0.0 {
                continue;
            }
            let rho = shift.exp2();
            for (c, a) in row.iter_mut() {
                if *c != slack {
                    *a *= rho;
                }
            }
            self.rhs[r] *= rho;
            stats.rows_scaled += 1;
        }

        if stats.rows_scaled > 0 {
            self.cols = ColMajor::build(self.num_cols, &self.rows);
        }
        stats.range_after = self.row_geomean_spread();
        self.scaling = Some(stats);
        stats
    }
}

/// Outcome of an LP solve.
#[derive(Debug, Clone)]
pub(crate) enum LpOutcome {
    /// Proven optimal basic solution.
    Optimal {
        /// Values for the structural columns only.
        x: Vec<f64>,
        /// Optimal objective value.
        obj: f64,
    },
    /// No feasible point exists.
    Infeasible,
    /// Cost decreases without bound.
    Unbounded,
}

/// The work counters of LP solves: reported by a finished solve and
/// carried by a budget interruption alike, and summed by the callers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LpWork {
    /// Simplex iterations across all phases.
    pub(crate) iterations: u64,
    /// Basis re-inversions (eta-file rebuilds).
    pub(crate) refactors: u64,
    /// Hypersparsity counters for the FTRAN/BTRAN kernels.
    pub(crate) kernel: KernelStats,
}

impl LpWork {
    pub(crate) fn absorb(&mut self, o: &LpWork) {
        self.iterations += o.iterations;
        self.refactors += o.refactors;
        self.kernel.absorb(&o.kernel);
    }
}

/// A finished LP solve: the outcome plus the work done and, for optimal
/// outcomes without artificials left in the basis, a reusable [`Basis`].
#[derive(Debug, Clone)]
pub(crate) struct LpResult {
    pub outcome: LpOutcome,
    /// Work done across all phases of this solve.
    pub work: LpWork,
    /// Microseconds spent in the first basis factorization of this solve
    /// (0 when the trivial no-constraint path skipped factorization).
    pub first_factor_us: u64,
    /// The final basis when it is warm-restartable (optimal, and no
    /// artificial column basic); `None` otherwise.
    pub basis: Option<Basis>,
}

/// A warm restart's result ([`resolve_lp`]): the reoptimized LP, or, when
/// the cached basis was stale, the work spent finding that out.
pub(crate) type Restart = Result<LpResult, LpWork>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColStatus {
    Basic,
    AtLower,
    AtUpper,
}

/// A snapshot of an optimal simplex basis, detached from any particular
/// bound vector: which column is basic in each row plus the bound side of
/// every nonbasic column. Tightening bounds keeps such a basis *dual*
/// feasible, which is exactly what [`resolve_lp`] exploits across
/// branch-and-bound nodes.
#[derive(Debug, Clone)]
pub(crate) struct Basis {
    /// Basic column per row (`len == rows`), artificials excluded.
    pub(crate) cols: Vec<u32>,
    /// Status per problem column (`len == num_cols`).
    pub(crate) status: Vec<ColStatus>,
}

impl Basis {
    /// Deliberately corrupts the basis for fallback testing: duplicates the
    /// first basic column into every slot, which fails re-validation (and
    /// would be singular even if it did not).
    #[cfg(test)]
    pub(crate) fn poison(&mut self) {
        if let Some(&first) = self.cols.first() {
            for c in self.cols.iter_mut() {
                *c = first;
            }
        }
    }
}

/// One product-form eta: applying the pivot `B⁻¹ ← E⁻¹·B⁻¹` where the
/// pivot column `w = B⁻¹·a_q` entered at `row`.
struct Eta {
    row: u32,
    /// `w[row]`, the pivot element.
    pivot: f64,
    /// Off-pivot nonzeros of `w`. The pivot-row entry lives in `pivot`
    /// only, so the FTRAN/BTRAN inner loops need no `i != row` branch.
    nz: Vec<(u32, f64)>,
}

/// Pattern size past which the hypersparse kernels stop maintaining the
/// index list and fall back to dense bookkeeping, as a fraction of the row
/// count. HiGHS uses the same ~10% heuristic: past that density the
/// pattern upkeep costs more than the dense scan it avoids.
const HYPER_DENSITY: f64 = 0.1;

#[inline]
fn hyper_cut(m: usize) -> usize {
    ((m as f64 * HYPER_DENSITY) as usize).max(16)
}

/// Per-solve kernel telemetry: total FTRAN/BTRAN applications through the
/// sparse-capable entry points, and how many stayed on the hypersparse
/// path (pattern below the density cutover for the whole application).
/// Dense utility solves (`compute_basics`, `recompute_reduced`) are not
/// counted — the counters measure the per-pivot kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct KernelStats {
    pub(crate) ftran: u64,
    pub(crate) ftran_hyper: u64,
    pub(crate) btran: u64,
    pub(crate) btran_hyper: u64,
}

impl KernelStats {
    pub(crate) fn absorb(&mut self, o: &KernelStats) {
        self.ftran += o.ftran;
        self.ftran_hyper += o.ftran_hyper;
        self.btran += o.btran;
        self.btran_hyper += o.btran_hyper;
    }
}

/// Sparse working vector for the hypersparse kernels: dense value storage
/// plus the list of positions that may hold a nonzero (`in_pat` keeps the
/// list duplicate-free, so consumers may apply non-idempotent updates per
/// pattern entry). Once the pattern outgrows [`hyper_cut`] the kernels set
/// `dense` and stop maintaining the list; values stay exact either way —
/// the flag only switches bookkeeping, and consumers then scan the full
/// length via [`pattern`](WorkVec::pattern).
struct WorkVec {
    vals: Vec<f64>,
    idx: Vec<u32>,
    in_pat: Vec<bool>,
    dense: bool,
}

impl WorkVec {
    fn new(m: usize) -> WorkVec {
        WorkVec {
            vals: vec![0.0; m],
            idx: Vec::new(),
            in_pat: vec![false; m],
            dense: false,
        }
    }

    /// Resets to the zero vector, clearing only the recorded pattern when
    /// it is still sparse.
    fn clear(&mut self) {
        if self.dense {
            self.vals.fill(0.0);
            self.in_pat.fill(false);
        } else {
            for &i in &self.idx {
                self.vals[i as usize] = 0.0;
                self.in_pat[i as usize] = false;
            }
        }
        self.idx.clear();
        self.dense = false;
    }

    /// Adds `v` at position `i`, recording the position in the pattern.
    #[inline]
    fn add(&mut self, i: usize, v: f64) {
        if !self.dense && !self.in_pat[i] {
            self.in_pat[i] = true;
            self.idx.push(i as u32);
        }
        self.vals[i] += v;
    }

    /// Iterates the positions that may hold a nonzero (all of them once
    /// dense). Positions may carry an exact zero after cancellation;
    /// consumers check the value.
    #[inline]
    fn pattern(&self) -> impl Iterator<Item = usize> + '_ {
        let dense_range = if self.dense { 0..self.vals.len() } else { 0..0 };
        let sparse: &[u32] = if self.dense { &[] } else { &self.idx };
        dense_range.chain(sparse.iter().map(|&i| i as usize))
    }
}

/// Scatter accumulator for row-sweep pricing (`α = ρᵀ·A` over the rows in
/// ρ's pattern): dense values over the columns plus a duplicate-free list
/// of touched columns.
struct Sweep {
    acc: Vec<f64>,
    idx: Vec<u32>,
    mark: Vec<bool>,
}

impl Sweep {
    fn new(n: usize) -> Sweep {
        Sweep {
            acc: vec![0.0; n],
            idx: Vec::new(),
            mark: vec![false; n],
        }
    }

    fn clear(&mut self) {
        for &c in &self.idx {
            self.acc[c as usize] = 0.0;
            self.mark[c as usize] = false;
        }
        self.idx.clear();
    }

    #[inline]
    fn add(&mut self, c: usize, v: f64) {
        if !self.mark[c] {
            self.mark[c] = true;
            self.idx.push(c as u32);
        }
        self.acc[c] += v;
    }

    /// Resets, then scatters `α = ρᵀ·A` over the `rows` in ρ's pattern.
    /// Artificial columns are not in `rows`; callers read theirs off ρ.
    fn scatter_rows(&mut self, rows: &[Vec<(u32, f64)>], rho: &WorkVec) {
        self.clear();
        for i in rho.pattern() {
            let rv = rho.vals[i];
            if rv != 0.0 {
                for &(c, a) in &rows[i] {
                    self.add(c as usize, a * rv);
                }
            }
        }
    }
}

/// Why a simplex phase stopped before proving optimality.
enum SimplexStop {
    Unbounded,
    IterationLimit,
    Budget(BudgetExceeded),
    /// Basis re-inversion broke down (singular / vanished pivot).
    Singular(String),
}

/// How a dual-simplex run ended.
enum DualEnd {
    /// All basic values are back within their bounds (primal feasible, and
    /// dual feasibility was maintained throughout — i.e. optimal up to a
    /// cleanup pass).
    PrimalFeasible,
    /// Dual unbounded: the LP is primal infeasible.
    Infeasible,
}

/// The revised-simplex working state: problem reference, optional
/// artificial columns, the eta file, and per-column status/value arrays.
struct Core<'a> {
    p: &'a LpProblem,
    m: usize,
    /// Total columns including artificials.
    n: usize,
    /// Row of artificial `k` (column index `p.num_cols + k`).
    art_row: Vec<u32>,
    /// Coefficient (±1) of artificial `k` in its row.
    art_sign: Vec<f64>,
    /// Active-phase costs, length `n`.
    costs: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Basic column per row.
    basis: Vec<u32>,
    status: Vec<ColStatus>,
    /// Current value of every column (authoritative for nonbasic columns;
    /// kept in sync for basic ones).
    val: Vec<f64>,
    etas: Vec<Eta>,
    /// Eta-file length right after the last re-inversion; pivots since then
    /// is `etas.len() - etas_base`, which drives the refactor cadence.
    etas_base: usize,
    /// Work done so far.
    work: LpWork,
    /// Devex reference weights per column (primal pricing).
    devex_w: Vec<f64>,
    /// Devex reference weights per row (dual leaving-row pricing).
    dual_w: Vec<f64>,
    /// Microseconds spent in the first `refactorize` call.
    first_factor_us: u64,
    /// Eta index pivoting on each row among the *factorization* etas
    /// (indices `< etas_base`, each with a distinct pivot row), or
    /// `u32::MAX` when the row has none. Rebuilt by `refactorize`; update
    /// etas appended since then are not mapped — the hypersparse FTRAN
    /// scans them sequentially with an O(1) skip.
    row_eta: Vec<u32>,
    /// Scratch for Gilbert–Peierls firing in `ftran_sparse`: candidate
    /// etas in creation order, plus the dedup marks.
    fire_heap: std::collections::BinaryHeap<std::cmp::Reverse<u32>>,
    fire_queued: Vec<bool>,
}

impl Core<'_> {
    /// Iterates the sparse entries of column `j` (artificials included).
    #[inline]
    fn for_col(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        if j < self.p.num_cols {
            for (r, a) in self.p.cols.col(j) {
                f(r, a);
            }
        } else {
            let k = j - self.p.num_cols;
            f(self.art_row[k] as usize, self.art_sign[k]);
        }
    }

    /// Dot product of column `j` with a dense vector.
    #[inline]
    fn col_dot(&self, j: usize, v: &[f64]) -> f64 {
        if j < self.p.num_cols {
            self.p.cols.col(j).map(|(r, a)| a * v[r]).sum()
        } else {
            let k = j - self.p.num_cols;
            self.art_sign[k] * v[self.art_row[k] as usize]
        }
    }

    #[inline]
    fn col_nnz(&self, j: usize) -> usize {
        if j < self.p.num_cols {
            self.p.cols.col_nnz(j)
        } else {
            1
        }
    }

    /// FTRAN: overwrites `v ← B⁻¹·v` by applying the eta file in creation
    /// order. Dense variant for full-length right-hand sides
    /// (`compute_basics`); the pivot loops use [`ftran_sparse`].
    ///
    /// [`ftran_sparse`]: Core::ftran_sparse
    fn ftran(&self, v: &mut [f64]) {
        for e in &self.etas {
            let r = e.row as usize;
            let t = v[r] / e.pivot;
            if t != 0.0 {
                for &(i, w) in &e.nz {
                    v[i as usize] -= w * t;
                }
            }
            v[r] = t;
        }
    }

    /// BTRAN: overwrites `v ← B⁻ᵀ·v` by applying the transposed etas in
    /// reverse order. Dense variant for full-length vectors (pricing `y`,
    /// `recompute_reduced`); the dual's `ρ = B⁻ᵀ·e_r` uses
    /// [`btran_sparse`](Core::btran_sparse).
    fn btran(&self, v: &mut [f64]) {
        for e in self.etas.iter().rev() {
            let r = e.row as usize;
            let mut s = v[r];
            for &(i, w) in &e.nz {
                s -= w * v[i as usize];
            }
            v[r] = s / e.pivot;
        }
    }

    /// Hypersparse FTRAN: `v ← B⁻¹·v` where `v` carries its own nonzero
    /// pattern.
    ///
    /// Factorization etas (indices `< etas_base`) have distinct pivot
    /// rows, mapped in `row_eta`; a min-heap fires exactly the etas whose
    /// pivot row holds a nonzero, in creation order, so the cost is
    /// proportional to the fill path reached from the rhs pattern rather
    /// than the whole eta file (Gilbert–Peierls, the same scheme
    /// `refactorize` uses internally). This is valid because an eta whose
    /// pivot-row value is exactly zero is a no-op, and fill produced by a
    /// fired eta can only trigger etas created later. Update etas appended
    /// since the last re-inversion (at most [`REFACTOR_PERIOD`], possibly
    /// with repeated pivot rows) are scanned sequentially with an O(1)
    /// zero-pivot-row skip. When the pattern outgrows [`hyper_cut`] the
    /// remaining etas are applied densely — the arithmetic is identical
    /// either way.
    fn ftran_sparse(&mut self, v: &mut WorkVec) {
        self.work.kernel.ftran += 1;
        let cut = hyper_cut(self.m);
        // First factorization eta still to be applied densely after a
        // cutover; etas_base when the hypersparse pass ran to completion.
        let mut resume = 0usize;
        if !v.dense && v.idx.len() <= cut {
            debug_assert!(self.fire_heap.is_empty());
            for &i in &v.idx {
                let e = self.row_eta[i as usize];
                if e != u32::MAX && !self.fire_queued[e as usize] {
                    self.fire_queued[e as usize] = true;
                    self.fire_heap.push(std::cmp::Reverse(e));
                }
            }
            resume = self.etas_base;
            while let Some(std::cmp::Reverse(ei)) = self.fire_heap.pop() {
                self.fire_queued[ei as usize] = false;
                let e = &self.etas[ei as usize];
                let r = e.row as usize;
                let t = v.vals[r] / e.pivot;
                v.vals[r] = t;
                if t != 0.0 {
                    for &(i, w) in &e.nz {
                        let iu = i as usize;
                        if !v.in_pat[iu] {
                            v.in_pat[iu] = true;
                            v.idx.push(i);
                        }
                        v.vals[iu] -= w * t;
                        let re = self.row_eta[iu];
                        if re != u32::MAX && re > ei && !self.fire_queued[re as usize] {
                            self.fire_queued[re as usize] = true;
                            self.fire_heap.push(std::cmp::Reverse(re));
                        }
                    }
                }
                if v.idx.len() > cut {
                    // Pattern went dense mid-firing. Values are exact and
                    // every eta ≤ ei that had to fire has fired (pop order
                    // is increasing), so the rest of the factorization
                    // file applies densely from ei + 1.
                    v.dense = true;
                    resume = ei as usize + 1;
                    while let Some(std::cmp::Reverse(e)) = self.fire_heap.pop() {
                        self.fire_queued[e as usize] = false;
                    }
                    break;
                }
            }
        } else {
            v.dense = true;
        }
        if v.dense {
            for e in &self.etas[resume..self.etas_base] {
                let r = e.row as usize;
                let t = v.vals[r] / e.pivot;
                if t != 0.0 {
                    for &(i, w) in &e.nz {
                        v.vals[i as usize] -= w * t;
                    }
                }
                v.vals[r] = t;
            }
        }
        // Update etas: applied in append order; a zero pivot-row value is
        // a no-op in O(1).
        for e in &self.etas[self.etas_base..] {
            let r = e.row as usize;
            if v.vals[r] == 0.0 {
                continue;
            }
            let t = v.vals[r] / e.pivot;
            v.vals[r] = t;
            if t == 0.0 {
                continue;
            }
            if v.dense {
                for &(i, w) in &e.nz {
                    v.vals[i as usize] -= w * t;
                }
            } else {
                for &(i, w) in &e.nz {
                    let iu = i as usize;
                    if !v.in_pat[iu] {
                        v.in_pat[iu] = true;
                        v.idx.push(i);
                    }
                    v.vals[iu] -= w * t;
                }
                if v.idx.len() > cut {
                    v.dense = true;
                }
            }
        }
        if !v.dense {
            self.work.kernel.ftran_hyper += 1;
        }
    }

    /// BTRAN with pattern tracking: `v ← B⁻ᵀ·v`, recording which positions
    /// become nonzero. Each eta still costs O(|nz|) — the transposed
    /// dependency graph is not materialized — so unlike FTRAN the win is
    /// not in the eta pass but in what the caller does with the resulting
    /// pattern: row-sweep pricing over only the rows with `ρ_r ≠ 0`
    /// instead of a dot product against every column.
    fn btran_sparse(&mut self, v: &mut WorkVec) {
        self.work.kernel.btran += 1;
        let cut = hyper_cut(self.m);
        for e in self.etas.iter().rev() {
            let r = e.row as usize;
            let mut s = v.vals[r];
            for &(i, w) in &e.nz {
                s -= w * v.vals[i as usize];
            }
            let s = s / e.pivot;
            if !v.dense && s != 0.0 && !v.in_pat[r] {
                v.in_pat[r] = true;
                v.idx.push(r as u32);
                if v.idx.len() > cut {
                    v.dense = true;
                }
            }
            v.vals[r] = s;
        }
        if !v.dense {
            self.work.kernel.btran_hyper += 1;
        }
    }

    /// Appends the eta recorded by a pivot on row `r` with FTRAN'd column
    /// `w`. The nonzero list is pre-sized from the touched count and
    /// excludes the pivot-row entry (it lives in `pivot`).
    fn push_eta(&mut self, r: usize, w: &WorkVec) {
        let mut nz: Vec<(u32, f64)> = Vec::with_capacity(if w.dense {
            16
        } else {
            w.idx.len().saturating_sub(1)
        });
        for i in w.pattern() {
            if i != r && w.vals[i] != 0.0 {
                nz.push((i as u32, w.vals[i]));
            }
        }
        self.etas.push(Eta {
            row: r as u32,
            pivot: w.vals[r],
            nz,
        });
    }

    /// Rebuilds the eta file from the current basis columns (product-form
    /// re-inversion, sparsest column first). Fails if the basis is
    /// singular. Row assignments may be permuted; `self.basis` is updated
    /// to match.
    ///
    /// The working column is kept sparse throughout: only touched entries
    /// are scattered, transformed, scanned for a pivot, and reset, and the
    /// eta file is applied in Gilbert–Peierls fashion — a min-heap fires
    /// exactly the etas whose pivot row carries a nonzero, in creation
    /// order. Columns that transform to an exact unit column (the common
    /// slack case) contribute no eta at all. The dense variant was O(m²)
    /// even for a diagonal basis, which at the prefix m=64 LP's 133 k rows
    /// burned ~51 s before the first simplex pivot.
    fn refactorize(&mut self) -> Result<(), String> {
        let t0 = if self.work.refactors == 0 {
            Some(Instant::now())
        } else {
            None
        };
        self.work.refactors += 1;
        self.etas.clear();
        // Devex weights are relative to a reference framework that a
        // re-inversion invalidates (row assignments may permute below):
        // reset both frames to the current point.
        self.devex_w.fill(1.0);
        self.dual_w.fill(1.0);
        let mut order: Vec<u32> = self.basis.clone();
        order.sort_by_key(|&j| self.col_nnz(j as usize));
        let mut taken = vec![false; self.m];
        let mut new_basis = vec![0u32; self.m];
        let mut w = vec![0.0f64; self.m];
        let mut touched: Vec<u32> = Vec::new();
        let mut is_touched = vec![false; self.m];
        // Rebuild the row → eta map (every re-inversion eta has a distinct
        // pivot row); `ftran_sparse` keeps using it after we return.
        self.row_eta.clear();
        self.row_eta.resize(self.m, u32::MAX);
        // Candidate etas to fire for the current column, popped in
        // creation order; `queued` dedupes pushes.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<u32>> =
            std::collections::BinaryHeap::new();
        let mut queued = vec![false; self.m];
        let touch = |r: usize,
                     is_touched: &mut [bool],
                     touched: &mut Vec<u32>,
                     heap: &mut std::collections::BinaryHeap<std::cmp::Reverse<u32>>,
                     queued: &mut [bool],
                     after: u32,
                     row_eta: &[u32]| {
            if !is_touched[r] {
                is_touched[r] = true;
                touched.push(r as u32);
            }
            let e = row_eta[r];
            if e != u32::MAX && e >= after && !queued[e as usize] {
                queued[e as usize] = true;
                heap.push(std::cmp::Reverse(e));
            }
        };
        for &j in &order {
            self.for_col(j as usize, |r, a| {
                w[r] = a;
                touch(
                    r,
                    &mut is_touched,
                    &mut touched,
                    &mut heap,
                    &mut queued,
                    0,
                    &self.row_eta,
                );
            });
            // Fire only the etas reachable from the column's pattern; fill
            // can only trigger etas created later than the one producing it.
            while let Some(std::cmp::Reverse(ei)) = heap.pop() {
                queued[ei as usize] = false;
                let e = &self.etas[ei as usize];
                let r = e.row as usize;
                let t = w[r] / e.pivot;
                w[r] = t;
                if t != 0.0 {
                    // The eta's own nz list is borrowed from self.etas, so
                    // fill bookkeeping is inlined rather than via `touch`.
                    for &(i, ww) in &e.nz {
                        let iu = i as usize;
                        if !is_touched[iu] {
                            is_touched[iu] = true;
                            touched.push(i);
                        }
                        w[iu] -= ww * t;
                        let re = self.row_eta[iu];
                        if re != u32::MAX && re > ei && !queued[re as usize] {
                            queued[re as usize] = true;
                            heap.push(std::cmp::Reverse(re));
                        }
                    }
                }
            }
            let mut r_best: Option<usize> = None;
            let mut a_best = SINGULAR_TOL;
            for &ti in &touched {
                let i = ti as usize;
                if !taken[i] && w[i].abs() > a_best {
                    a_best = w[i].abs();
                    r_best = Some(i);
                }
            }
            let Some(r) = r_best else {
                return Err(format!("singular basis: column {j} has no usable pivot"));
            };
            taken[r] = true;
            new_basis[r] = j;
            // A transformed column that is exactly the unit vector e_r
            // (slack columns, typically) has an identity eta: skip it.
            let unit = w[r] == 1.0
                && touched
                    .iter()
                    .all(|&ti| ti as usize == r || w[ti as usize] == 0.0);
            if !unit {
                let mut nz: Vec<(u32, f64)> = Vec::with_capacity(touched.len().saturating_sub(1));
                for &ti in &touched {
                    let i = ti as usize;
                    if i != r && w[i] != 0.0 {
                        nz.push((ti, w[i]));
                    }
                }
                self.row_eta[r] = self.etas.len() as u32;
                self.etas.push(Eta {
                    row: r as u32,
                    pivot: w[r],
                    nz,
                });
            }
            for &ti in &touched {
                w[ti as usize] = 0.0;
                is_touched[ti as usize] = false;
            }
            touched.clear();
        }
        self.basis = new_basis;
        self.etas_base = self.etas.len();
        if let Some(t0) = t0 {
            self.first_factor_us = t0.elapsed().as_micros() as u64;
        }
        Ok(())
    }

    /// Recomputes every basic value as `x_B = B⁻¹(b − A_N·x_N)`, clearing
    /// accumulated drift. Nonbasic values are authoritative inputs.
    fn compute_basics(&mut self) {
        let mut w = self.p.rhs.clone();
        for j in 0..self.n {
            if self.status[j] != ColStatus::Basic {
                let vj = self.val[j];
                if vj != 0.0 {
                    self.for_col(j, |r, a| w[r] -= a * vj);
                }
            }
        }
        self.ftran(&mut w);
        for (r, &wj) in w.iter().enumerate() {
            self.val[self.basis[r] as usize] = wj;
        }
    }

    /// Re-inverts when the eta file has grown past the refactor threshold,
    /// then refreshes basic values.
    fn maybe_refactor(&mut self) -> Result<(), SimplexStop> {
        if self.etas.len() >= self.etas_base + REFACTOR_PERIOD {
            self.refactorize().map_err(SimplexStop::Singular)?;
            self.compute_basics();
        }
        Ok(())
    }

    /// Iteration-cap and wall-clock checks shared by both pivot loops.
    fn check_limits(&self, opts: &SimplexOpts) -> Result<(), SimplexStop> {
        if self.work.iterations >= opts.max_iters {
            return Err(SimplexStop::IterationLimit);
        }
        // Amortize clock reads over ~BUDGET_CHECK_WORK row-operations: tiny
        // LPs check every few hundred pivots, wide ones every pivot.
        let period = (BUDGET_CHECK_WORK / self.m.max(1) as u64).clamp(1, 256);
        if self.work.iterations.is_multiple_of(period) {
            if let Err(reason) = opts.budget.check() {
                return Err(SimplexStop::Budget(reason));
            }
        }
        Ok(())
    }

    /// Runs primal simplex on the current phase costs until optimal,
    /// unbounded, or stopped by an iteration/budget limit.
    fn primal(&mut self, opts: &SimplexOpts) -> Result<(), SimplexStop> {
        let mut stalled: u32 = 0;
        let opt_tol = OPT_TOL * opts.tol_scale.max(1.0);
        let mut y = vec![0.0f64; self.m];
        let mut w = WorkVec::new(self.m);
        let mut rho = WorkVec::new(self.m);
        let mut sweep = Sweep::new(self.n);
        loop {
            self.check_limits(opts)?;
            let bland = opts.force_bland || stalled >= STALL_LIMIT;
            let devex = !bland && opts.pricing == Pricing::Devex;

            // --- Pricing: y = B⁻ᵀ·c_B, then d_j = c_j − y·a_j on the fly.
            // Dantzig picks the worst reduced cost; devex divides its
            // square by the reference weight (approximate steepest edge).
            for (r, yv) in y.iter_mut().enumerate() {
                *yv = self.costs[self.basis[r] as usize];
            }
            self.btran(&mut y);
            let mut enter: Option<(usize, f64)> = None; // (col, direction)
            let mut best_score = opt_tol;
            let mut best_ratio = 0.0f64;
            for j in 0..self.n {
                match self.status[j] {
                    ColStatus::Basic => continue,
                    _ if self.lb[j] == self.ub[j] => continue, // fixed
                    _ => {}
                }
                let d = self.costs[j] - self.col_dot(j, &y);
                let (dir, score) = match self.status[j] {
                    ColStatus::AtLower => (1.0, -d),
                    ColStatus::AtUpper => (-1.0, d),
                    ColStatus::Basic => unreachable!(),
                };
                if score <= opt_tol {
                    continue;
                }
                if bland {
                    enter = Some((j, dir));
                    break; // lowest eligible index
                }
                if devex {
                    let ratio = score * score / self.devex_w[j];
                    if ratio > best_ratio {
                        best_ratio = ratio;
                        enter = Some((j, dir));
                    }
                } else if score > best_score {
                    best_score = score;
                    enter = Some((j, dir));
                }
            }
            let Some((q, dir)) = enter else {
                return Ok(()); // optimal
            };
            self.work.iterations += 1;

            // --- w = B⁻¹·a_q, the tableau column of q.
            w.clear();
            self.for_col(q, |r, a| w.add(r, a));
            self.ftran_sparse(&mut w);

            // --- Ratio test (bounded variables), over w's pattern only.
            // Entering variable moves by t ≥ 0 in direction `dir`.
            let mut t_max = self.ub[q] - self.lb[q]; // bound-flip distance
            let mut leave: Option<usize> = None; // limiting row
            let mut leave_piv: f64 = 0.0;
            for r in w.pattern() {
                let wr = w.vals[r];
                let alpha = dir * wr;
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                let b = self.basis[r] as usize;
                let xb = self.val[b];
                // x_b changes by −alpha · t.
                let limit = if alpha > 0.0 {
                    if self.lb[b].is_finite() {
                        (xb - self.lb[b]) / alpha
                    } else {
                        continue;
                    }
                } else if self.ub[b].is_finite() {
                    (xb - self.ub[b]) / alpha
                } else {
                    continue;
                };
                let limit = limit.max(0.0);
                // Prefer strictly smaller ratios; break near-ties toward the
                // largest pivot magnitude for numerical stability.
                if limit < t_max - 1e-9 || (limit < t_max + 1e-9 && alpha.abs() > leave_piv.abs()) {
                    t_max = limit.min(t_max);
                    leave = Some(r);
                    leave_piv = wr;
                }
            }

            if t_max.is_infinite() {
                return Err(SimplexStop::Unbounded);
            }
            if t_max <= 1e-10 {
                stalled += 1;
            } else {
                stalled = 0;
            }

            // --- Apply the move.
            if t_max > 0.0 {
                for r in w.pattern() {
                    let a = w.vals[r];
                    if a != 0.0 {
                        let b = self.basis[r] as usize;
                        self.val[b] -= dir * t_max * a;
                    }
                }
                self.val[q] += dir * t_max;
            }
            match leave {
                None => {
                    // Bound flip: q jumps to its opposite bound.
                    self.status[q] = match self.status[q] {
                        ColStatus::AtLower => {
                            self.val[q] = self.ub[q];
                            ColStatus::AtUpper
                        }
                        ColStatus::AtUpper => {
                            self.val[q] = self.lb[q];
                            ColStatus::AtLower
                        }
                        ColStatus::Basic => unreachable!(),
                    };
                }
                Some(r) => {
                    let b = self.basis[r] as usize;
                    if devex {
                        self.update_devex_primal(q, r, &w, &mut rho, &mut sweep);
                    }
                    // Leaving variable lands exactly on the bound it hit.
                    let alpha = dir * w.vals[r];
                    self.status[b] = if alpha > 0.0 {
                        self.val[b] = self.lb[b];
                        ColStatus::AtLower
                    } else {
                        self.val[b] = self.ub[b];
                        ColStatus::AtUpper
                    };
                    self.status[q] = ColStatus::Basic;
                    self.push_eta(r, &w);
                    self.basis[r] = q as u32;
                    self.maybe_refactor()?;
                }
            }
        }
    }

    /// Devex reference-framework update after a primal pivot decision:
    /// column `q` enters on row `r`, `w = B⁻¹·a_q` (the *current* basis —
    /// call before `push_eta`). One BTRAN builds the pivot row
    /// `α_r = eᵣᵀB⁻¹A`; every nonbasic weight takes
    /// `max(w_j, (α_rj/α_rq)²·w_q)` and the leaving column gets
    /// `max(w_q/α_rq², 1)` (Forrest & Goldfarb 1992).
    fn update_devex_primal(
        &mut self,
        q: usize,
        r: usize,
        w: &WorkVec,
        rho: &mut WorkVec,
        sweep: &mut Sweep,
    ) {
        let piv = w.vals[r];
        if piv.abs() <= PIVOT_TOL {
            return;
        }
        let wq = self.devex_w[q].max(1.0);
        rho.clear();
        rho.add(r, 1.0);
        self.btran_sparse(rho);
        let b = self.basis[r] as usize; // leaving column, still basic here
        let bump = |this: &mut Core<'_>, j: usize, a: f64| {
            if a != 0.0 {
                let cand = ((a / piv) * (a / piv) * wq).min(DEVEX_MAX);
                if cand > this.devex_w[j] {
                    this.devex_w[j] = cand;
                }
            }
        };
        if rho.dense {
            for j in 0..self.n {
                if self.status[j] == ColStatus::Basic || j == q || self.lb[j] == self.ub[j] {
                    continue;
                }
                let a = self.col_dot(j, &rho.vals);
                bump(self, j, a);
            }
        } else {
            // Row sweep: scatter ρ_i·row_i for only the rows with ρ ≠ 0,
            // then update the touched nonbasic columns. Artificial columns
            // are not in `p.rows`; their α is read off ρ directly.
            sweep.scatter_rows(&self.p.rows, rho);
            for k in 0..sweep.idx.len() {
                let j = sweep.idx[k] as usize;
                if self.status[j] == ColStatus::Basic || j == q || self.lb[j] == self.ub[j] {
                    continue;
                }
                let a = sweep.acc[j];
                bump(self, j, a);
            }
            for k in 0..self.art_row.len() {
                let j = self.p.num_cols + k;
                if self.status[j] == ColStatus::Basic || j == q || self.lb[j] == self.ub[j] {
                    continue;
                }
                let a = self.art_sign[k] * rho.vals[self.art_row[k] as usize];
                bump(self, j, a);
            }
        }
        self.devex_w[b] = (wq / (piv * piv)).clamp(1.0, DEVEX_MAX);
    }

    /// Recomputes the full reduced-cost vector `d = c − AᵀB⁻ᵀc_B` into `d`
    /// (basic entries forced to exactly zero).
    fn recompute_reduced(&self, d: &mut [f64], y_buf: &mut [f64]) {
        for (r, yv) in y_buf.iter_mut().enumerate() {
            *yv = self.costs[self.basis[r] as usize];
        }
        self.btran(y_buf);
        for (j, dj) in d.iter_mut().enumerate() {
            *dj = if self.status[j] == ColStatus::Basic {
                0.0
            } else {
                self.costs[j] - self.col_dot(j, y_buf)
            };
        }
    }

    /// Bounded-variable dual simplex: starting from a dual-feasible basis
    /// whose basic values may violate their (tightened) bounds, drives the
    /// violations out while preserving dual feasibility. `d` holds the
    /// current reduced costs and is maintained incrementally from the pivot
    /// row, with a full recompute at every re-inversion.
    fn dual(&mut self, d: &mut [f64], opts: &SimplexOpts) -> Result<DualEnd, SimplexStop> {
        let mut stalled: u32 = 0;
        let mut rho = WorkVec::new(self.m);
        let mut w = WorkVec::new(self.m);
        let mut fb = WorkVec::new(self.m);
        let mut sweep = Sweep::new(self.n);
        let mut y = vec![0.0f64; self.m];
        let mut alphas: Vec<(u32, f64)> = Vec::new();
        // Eligible breakpoints of the long-step ratio test: (ratio, j, α).
        let mut bps: Vec<(f64, u32, f64)> = Vec::new();
        let mut flips: Vec<u32> = Vec::new();
        loop {
            self.check_limits(opts)?;
            let bland = opts.force_bland || stalled >= STALL_LIMIT;
            let devex = !bland && opts.pricing == Pricing::Devex;

            // --- Leaving row: the worst primal bound violation (smallest
            // violating row index under the anti-cycling rule). Devex
            // divides the squared violation by the row's reference weight.
            let mut r_sel: Option<(usize, bool, f64)> = None; // (row, above upper?, viol)
            let mut worst = FEAS_TOL;
            let mut best_ratio = 0.0f64;
            for (r, &bc) in self.basis.iter().enumerate() {
                let b = bc as usize;
                let x = self.val[b];
                let over = x - self.ub[b];
                let under = self.lb[b] - x;
                let (viol, above) = if over >= under {
                    (over, true)
                } else {
                    (under, false)
                };
                if viol <= FEAS_TOL {
                    continue;
                }
                if bland {
                    r_sel = Some((r, above, viol));
                    break;
                }
                if devex {
                    let ratio = viol * viol / self.dual_w[r];
                    if ratio > best_ratio {
                        best_ratio = ratio;
                        r_sel = Some((r, above, viol));
                    }
                } else if viol > worst {
                    worst = viol;
                    r_sel = Some((r, above, viol));
                }
            }
            let Some((r, above, viol)) = r_sel else {
                return Ok(DualEnd::PrimalFeasible);
            };
            self.work.iterations += 1;

            // --- ρ = B⁻ᵀ·e_r, the r-th row of B⁻¹; α_j = ρ·a_j, via a
            // row sweep over ρ's pattern when it stayed sparse (the dual
            // runs artificial-free, so every column is in `p.rows`), or a
            // dot product against every nonbasic column otherwise.
            rho.clear();
            rho.add(r, 1.0);
            self.btran_sparse(&mut rho);
            alphas.clear();
            if !rho.dense && self.art_row.is_empty() {
                sweep.scatter_rows(&self.p.rows, &rho);
                for &c in &sweep.idx {
                    let j = c as usize;
                    if self.status[j] == ColStatus::Basic || self.lb[j] == self.ub[j] {
                        continue;
                    }
                    let a = sweep.acc[j];
                    if a.abs() > PIVOT_TOL {
                        alphas.push((c, a));
                    }
                }
                // Row-sweep order follows the scatter; the ratio test
                // below is order-independent, but Bland's first-eligible
                // rule is not — sort to keep it deterministic.
                if bland {
                    alphas.sort_unstable_by_key(|&(j, _)| j);
                }
            } else {
                for j in 0..self.n {
                    if self.status[j] == ColStatus::Basic || self.lb[j] == self.ub[j] {
                        continue;
                    }
                    let a = self.col_dot(j, &rho.vals);
                    if a.abs() > PIVOT_TOL {
                        alphas.push((j as u32, a));
                    }
                }
            }

            // --- Dual ratio test. The classic (Bland) test picks the
            // tightest breakpoint; the long-step variant walks the sorted
            // breakpoints and *flips* every boxed column it passes, so one
            // pivot can cross many degenerate breakpoints at once
            // (bound-flipping ratio test). The violation shrinks by
            // |α|·(ub−lb) per flip; we stop at the breakpoint where it
            // would go nonpositive, or at any infinite-range column.
            flips.clear();
            let mut q_sel: Option<usize> = None;
            if bland {
                for &(ju, a) in &alphas {
                    let j = ju as usize;
                    let eligible = match (above, self.status[j]) {
                        (true, ColStatus::AtLower) => a > 0.0,
                        (true, ColStatus::AtUpper) => a < 0.0,
                        (false, ColStatus::AtLower) => a < 0.0,
                        (false, ColStatus::AtUpper) => a > 0.0,
                        (_, ColStatus::Basic) => unreachable!(),
                    };
                    if eligible {
                        q_sel = Some(j);
                        break;
                    }
                }
            } else {
                bps.clear();
                for &(ju, a) in &alphas {
                    let j = ju as usize;
                    let eligible = match (above, self.status[j]) {
                        (true, ColStatus::AtLower) => a > 0.0,
                        (true, ColStatus::AtUpper) => a < 0.0,
                        (false, ColStatus::AtLower) => a < 0.0,
                        (false, ColStatus::AtUpper) => a > 0.0,
                        (_, ColStatus::Basic) => unreachable!(),
                    };
                    if eligible {
                        bps.push((d[j].abs() / a.abs(), ju, a));
                    }
                }
                // Ascending ratio; near-ties toward the larger pivot
                // magnitude for stability (matches the old tie-break).
                bps.sort_unstable_by(|x, z| {
                    x.0.total_cmp(&z.0).then(z.2.abs().total_cmp(&x.2.abs()))
                });
                let mut slope = viol;
                for &(_, ju, a) in &bps {
                    let j = ju as usize;
                    let range = self.ub[j] - self.lb[j];
                    let drop = a.abs() * range;
                    if !range.is_finite() || slope - drop <= FEAS_TOL {
                        q_sel = Some(j);
                        break;
                    }
                    flips.push(ju);
                    slope -= drop;
                }
            }
            let Some(q) = q_sel else {
                // Dual unbounded ⇒ primal infeasible: no entering column
                // can repair the violated bound (passing every finite
                // breakpoint leaves the violation positive). Flips are
                // *not* applied on this path.
                return Ok(DualEnd::Infeasible);
            };

            // --- Apply the bound flips first: each passed column jumps to
            // its opposite bound, and the basics absorb −B⁻¹·A·Δx_N in one
            // accumulated FTRAN.
            if !flips.is_empty() {
                fb.clear();
                for &ju in &flips {
                    let j = ju as usize;
                    let (target, st) = match self.status[j] {
                        ColStatus::AtLower => (self.ub[j], ColStatus::AtUpper),
                        ColStatus::AtUpper => (self.lb[j], ColStatus::AtLower),
                        ColStatus::Basic => unreachable!(),
                    };
                    let delta = target - self.val[j];
                    if delta != 0.0 {
                        self.for_col(j, |i, a| fb.add(i, a * delta));
                    }
                    self.val[j] = target;
                    self.status[j] = st;
                }
                self.ftran_sparse(&mut fb);
                for i in fb.pattern() {
                    let v = fb.vals[i];
                    if v != 0.0 {
                        let bi = self.basis[i] as usize;
                        self.val[bi] -= v;
                    }
                }
                stalled = 0;
            }

            // --- w = B⁻¹·a_q; pivot on w[r].
            w.clear();
            self.for_col(q, |i, a| w.add(i, a));
            self.ftran_sparse(&mut w);
            let piv = w.vals[r];
            if piv.abs() <= PIVOT_TOL {
                // ρ-based α and the FTRAN column disagree: numerical
                // breakdown, bail out to the primal fallback.
                return Err(SimplexStop::Singular(
                    "dual pivot vanished under FTRAN".into(),
                ));
            }
            let b = self.basis[r] as usize;
            let target = if above { self.ub[b] } else { self.lb[b] };
            let step = (self.val[b] - target) / piv; // signed move of q
            if step.abs() <= 1e-10 && flips.is_empty() {
                stalled += 1;
            } else {
                stalled = 0;
            }

            // --- Apply: basics move by −w·step, q moves by +step, the
            // leaving column lands exactly on its violated bound.
            for i in w.pattern() {
                let wi = w.vals[i];
                if wi != 0.0 {
                    let bi = self.basis[i] as usize;
                    self.val[bi] -= wi * step;
                }
            }
            self.val[q] += step;
            self.val[b] = target;
            self.status[b] = if above {
                ColStatus::AtUpper
            } else {
                ColStatus::AtLower
            };
            self.status[q] = ColStatus::Basic;

            // --- Dual update from the pivot row: d ← d − θ·α, θ = d_q/α_q.
            // Columns flipped above sit at their new bound with the sign
            // of d_j − θ·α_j, which is exactly what their new status
            // requires (they were passed because θ exceeds their ratio).
            let theta = d[q] / piv;
            for &(j, a) in &alphas {
                d[j as usize] -= theta * a;
            }
            d[b] = -theta;
            d[q] = 0.0;

            // --- Devex row-weight update: essentially free, because the
            // FTRAN'd entering column `w` is already in hand.
            if devex {
                let wr = self.dual_w[r].max(1.0);
                for i in w.pattern() {
                    let wi = w.vals[i];
                    if i != r && wi != 0.0 {
                        let cand = ((wi / piv) * (wi / piv) * wr).min(DEVEX_MAX);
                        if cand > self.dual_w[i] {
                            self.dual_w[i] = cand;
                        }
                    }
                }
                self.dual_w[r] = (wr / (piv * piv)).clamp(1.0, DEVEX_MAX);
            }

            self.push_eta(r, &w);
            self.basis[r] = q as u32;
            if self.etas.len() >= self.m + REFACTOR_PERIOD {
                self.refactorize().map_err(SimplexStop::Singular)?;
                self.compute_basics();
                self.recompute_reduced(d, &mut y);
            }
        }
    }

    /// The textbook end of phase 1: pivots every artificial still basic
    /// (at zero) out of the basis with a degenerate pivot, so that the
    /// final basis can seed warm restarts. The entering column has the
    /// largest `|α_j|` in the artificial's row of `B⁻¹A` (a column that
    /// is not fixed preferred), found by the same row sweep over
    /// `ρ = B⁻ᵀ·e_r` that `dual` prices with. An artificial whose row has
    /// no usable `α` sits on a redundant row and stays basic.
    fn drive_out_artificials(&mut self, opts: &SimplexOpts) -> Result<(), SimplexStop> {
        let n0 = self.p.num_cols;
        let mut tried = vec![false; self.n - n0];
        let mut rho = WorkVec::new(self.m);
        let mut w = WorkVec::new(self.m);
        let mut sweep = Sweep::new(n0);
        // A re-inversion may move an untried artificial to a row already
        // scanned, so scan again until a pass finds none.
        let mut rescan = true;
        while rescan {
            rescan = false;
            for r in 0..self.m {
                let art = self.basis[r] as usize;
                if art < n0 || tried[art - n0] {
                    continue;
                }
                tried[art - n0] = true;
                self.check_limits(opts)?;
                rho.clear();
                rho.add(r, 1.0);
                self.btran_sparse(&mut rho);
                // (not fixed, |α|, column) of the best candidate so far.
                let mut best: Option<(bool, f64, usize)> = None;
                let mut offer = |this: &Core<'_>, j: usize, a: f64| {
                    if this.status[j] == ColStatus::Basic || a.abs() <= PIVOT_TOL {
                        return;
                    }
                    let cand = (this.lb[j] != this.ub[j], a.abs(), j);
                    if best.is_none_or(|(free, mag, _)| (cand.0, cand.1) > (free, mag)) {
                        best = Some(cand);
                    }
                };
                if rho.dense {
                    for j in 0..n0 {
                        offer(self, j, self.col_dot(j, &rho.vals));
                    }
                } else {
                    sweep.scatter_rows(&self.p.rows, &rho);
                    for &c in &sweep.idx {
                        offer(self, c as usize, sweep.acc[c as usize]);
                    }
                }
                let Some((_, _, q)) = best else { continue };
                w.clear();
                self.for_col(q, |i, a| w.add(i, a));
                self.ftran_sparse(&mut w);
                if w.vals[r].abs() <= PIVOT_TOL {
                    continue;
                }
                self.work.iterations += 1;
                self.val[art] = 0.0;
                self.status[art] = ColStatus::AtLower;
                self.status[q] = ColStatus::Basic;
                self.push_eta(r, &w);
                self.basis[r] = q as u32;
                let refactors = self.work.refactors;
                self.maybe_refactor()?;
                rescan |= self.work.refactors > refactors;
            }
        }
        Ok(())
    }

    /// The final basis, if it can seed a future warm restart (no
    /// artificial column basic).
    fn snapshot(&self) -> Option<Basis> {
        let n0 = self.p.num_cols;
        if self.basis.iter().any(|&c| (c as usize) >= n0) {
            return None;
        }
        Some(Basis {
            cols: self.basis.clone(),
            status: self.status[..n0].to_vec(),
        })
    }

    /// Extracts the optimal result (structural values + objective).
    fn optimal_result(&self) -> LpResult {
        let x: Vec<f64> = self.val[..self.p.num_structural].to_vec();
        let obj = x
            .iter()
            .zip(self.p.costs.iter())
            .map(|(v, c)| v * c)
            .sum::<f64>();
        LpResult {
            outcome: LpOutcome::Optimal { x, obj },
            work: self.work,
            first_factor_us: self.first_factor_us,
            basis: self.snapshot(),
        }
    }

    /// A non-optimal result carrying the work counters.
    fn ended(&self, outcome: LpOutcome) -> LpResult {
        LpResult {
            outcome,
            work: self.work,
            first_factor_us: self.first_factor_us,
            basis: None,
        }
    }

    /// The budget interruption of this solve, with the work spent so far.
    fn budget_error(&self, reason: BudgetExceeded) -> LpError {
        LpError::Budget {
            reason,
            work: self.work,
        }
    }
}

/// Solves a standardized LP under its own bounds.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn solve_lp(p: &LpProblem, opts: &SimplexOpts) -> Result<LpResult, LpError> {
    solve_lp_from(p, &p.lb, &p.ub, opts)
}

/// Solves `p` under override bounds `lb`/`ub` (same length as
/// `p.num_cols`). Branch-and-bound nodes call this with their tightened
/// per-node bounds, avoiding a full problem clone per node.
pub(crate) fn solve_lp_from(
    p: &LpProblem,
    lb: &[f64],
    ub: &[f64],
    opts: &SimplexOpts,
) -> Result<LpResult, LpError> {
    let m = p.rows.len();
    let n = p.num_cols;

    // Trivial case: no constraints — put every column at its cheapest bound.
    if m == 0 {
        let mut x = vec![0.0; p.num_structural];
        let mut obj = 0.0;
        for (j, xj) in x.iter_mut().enumerate() {
            let c = p.costs[j];
            let v = if c > 0.0 {
                lb[j]
            } else if c < 0.0 {
                ub[j]
            } else if lb[j].is_finite() {
                lb[j]
            } else {
                ub[j].min(0.0)
            };
            if !v.is_finite() && c != 0.0 {
                return Ok(LpResult {
                    outcome: LpOutcome::Unbounded,
                    work: LpWork::default(),
                    first_factor_us: 0,
                    basis: None,
                });
            }
            let v = if v.is_finite() { v } else { 0.0 };
            *xj = v;
            obj += c * v;
        }
        return Ok(LpResult {
            outcome: LpOutcome::Optimal { x, obj },
            work: LpWork::default(),
            first_factor_us: 0,
            basis: None,
        });
    }

    for &c in &p.costs {
        if !c.is_finite() {
            return Err(LpError::Numerical("non-finite cost coefficient".into()));
        }
    }

    // --- Initial point: structural columns at a finite bound.
    let mut val = vec![0.0; n];
    let mut status = vec![ColStatus::AtLower; n];
    for j in 0..n {
        if lb[j].is_finite() {
            val[j] = lb[j];
            status[j] = ColStatus::AtLower;
        } else if ub[j].is_finite() {
            val[j] = ub[j];
            status[j] = ColStatus::AtUpper;
        } else {
            // Free column: model it nonbasic at 0 by treating it as at a
            // phantom lower bound; it may enter the basis and then behaves
            // normally. (Free columns never leave the basis afterwards
            // because the ratio test skips infinite bounds.)
            val[j] = 0.0;
            status[j] = ColStatus::AtLower;
        }
    }

    // Residual per row given the nonbasic point (slacks included in rows).
    // We decide per row whether the slack can be basic (residual within its
    // bounds) or whether an artificial column is needed.
    let mut art_row: Vec<u32> = Vec::new();
    let mut art_sign: Vec<f64> = Vec::new();
    let mut basis: Vec<u32> = Vec::with_capacity(m);
    let slack_col = |r: usize| p.num_structural + r;

    let mut residuals = vec![0.0; m];
    for (r, res) in residuals.iter_mut().enumerate() {
        let mut acc = p.rhs[r];
        for &(c, a) in &p.rows[r] {
            let c = c as usize;
            if c != slack_col(r) {
                acc -= a * val[c];
            }
        }
        // Row is: slack_coeff · s = acc (slack coefficient is 1.0 by
        // construction in `standardize`).
        *res = acc;
    }

    let mut art_vals: Vec<f64> = Vec::new();
    for (r, &v) in residuals.iter().enumerate() {
        let s = slack_col(r);
        if v >= lb[s] - FEAS_TOL && v <= ub[s] + FEAS_TOL {
            // Slack absorbs the residual and is basic.
            val[s] = v;
            status[s] = ColStatus::Basic;
            basis.push(s as u32);
        } else {
            // Slack parks at its nearest bound; an artificial column with
            // coefficient sign(gap) covers the rest at value |gap| ≥ 0.
            let sb = if v < lb[s] { lb[s] } else { ub[s] };
            val[s] = sb;
            status[s] = if sb == lb[s] {
                ColStatus::AtLower
            } else {
                ColStatus::AtUpper
            };
            let gap = v - sb;
            let col = n + art_row.len();
            art_row.push(r as u32);
            art_sign.push(gap.signum());
            art_vals.push(gap.abs());
            basis.push(col as u32);
        }
    }

    let num_art = art_row.len();
    let total_cols = n + num_art;

    let mut full_lb = lb.to_vec();
    let mut full_ub = ub.to_vec();
    full_lb.resize(total_cols, 0.0);
    full_ub.resize(total_cols, f64::INFINITY);
    val.resize(total_cols, 0.0);
    status.resize(total_cols, ColStatus::AtLower);
    for (k, &av) in art_vals.iter().enumerate() {
        val[n + k] = av;
        status[n + k] = ColStatus::Basic;
    }

    let mut phase1_costs = vec![0.0; total_cols];
    for c in phase1_costs.iter_mut().skip(n) {
        *c = 1.0;
    }

    let mut core = Core {
        p,
        m,
        n: total_cols,
        art_row,
        art_sign,
        costs: if num_art > 0 {
            phase1_costs
        } else {
            let mut c = p.costs.clone();
            c.resize(total_cols, 0.0);
            c
        },
        lb: full_lb,
        ub: full_ub,
        basis,
        status,
        val,
        etas: Vec::new(),
        etas_base: 0,
        work: LpWork::default(),
        devex_w: vec![1.0; total_cols],
        dual_w: vec![1.0; m],
        first_factor_us: 0,
        row_eta: Vec::new(),
        fire_heap: std::collections::BinaryHeap::new(),
        fire_queued: vec![false; m],
    };
    // The initial basis (slacks at +1, artificials at ±1) is diagonal;
    // re-inversion builds its trivial eta file and cannot fail.
    if let Err(msg) = core.refactorize() {
        return Err(LpError::Numerical(msg));
    }
    core.compute_basics();

    let map_stop = |stop: SimplexStop, core: &Core<'_>, phase: u32| match stop {
        SimplexStop::Unbounded => LpError::Numerical(format!(
            "phase-{phase} objective unbounded (internal error)"
        )),
        SimplexStop::IterationLimit => LpError::Numerical(format!(
            "simplex iteration limit {} hit in phase {phase}",
            opts.max_iters
        )),
        SimplexStop::Budget(reason) => core.budget_error(reason),
        SimplexStop::Singular(msg) => LpError::Numerical(msg),
    };

    // --- Phase 1.
    if num_art > 0 {
        match core.primal(opts) {
            Ok(()) => {}
            Err(SimplexStop::Unbounded) => {
                return Err(LpError::Numerical(
                    "phase-1 objective unbounded (internal error)".into(),
                ))
            }
            Err(stop) => return Err(map_stop(stop, &core, 1)),
        }
        let infeas: f64 = (n..total_cols).map(|j| core.val[j]).sum();
        if infeas > FEAS_TOL * 10.0 {
            return Ok(core.ended(LpOutcome::Infeasible));
        }
        // Pin artificials to zero so phase 2 cannot reuse them.
        for j in n..total_cols {
            core.lb[j] = 0.0;
            core.ub[j] = 0.0;
            if core.status[j] != ColStatus::Basic {
                core.status[j] = ColStatus::AtLower;
            }
            core.val[j] = 0.0; // basic at zero: harmless (degenerate)
        }
        if let Err(stop) = core.drive_out_artificials(opts) {
            return Err(map_stop(stop, &core, 1));
        }
        // Swap in the true costs for phase 2.
        core.costs[..n].copy_from_slice(&p.costs);
        for c in core.costs.iter_mut().skip(n) {
            *c = 0.0;
        }
    }

    // --- Phase 2.
    match core.primal(opts) {
        Ok(()) => {}
        Err(SimplexStop::Unbounded) => return Ok(core.ended(LpOutcome::Unbounded)),
        Err(stop) => return Err(map_stop(stop, &core, 2)),
    }

    Ok(core.optimal_result())
}

/// Dual-simplex warm restart: reoptimizes `p` under tightened bounds
/// `lb`/`ub` starting from a cached `basis`.
///
/// Returns:
///
/// * `Ok(Ok(result))` — the restart succeeded (optimal or proven
///   infeasible, the latter being the fast node-pruning path: a dual
///   unbounded ray is a primal infeasibility certificate);
/// * `Ok(Err(work))` — the basis is stale (fails validation, singular
///   under re-inversion, dual infeasible under the new bounds, or the dual
///   run hit numerical/iteration trouble). `work` is what the attempt
///   spent before giving up. The caller must fall back to the
///   from-scratch primal [`solve_lp_from`];
/// * `Err(LpError::Budget {..})` — the shared wall-clock budget fired;
///   iterations spent so far are in the payload.
pub(crate) fn resolve_lp(
    p: &LpProblem,
    lb: &[f64],
    ub: &[f64],
    basis: &Basis,
    opts: &SimplexOpts,
) -> Result<Restart, LpError> {
    let m = p.rows.len();
    let n = p.num_cols;
    // Shape validation: the basis must cover every row with a distinct
    // in-range column, and statuses must agree with the basic set.
    if m == 0 || basis.cols.len() != m || basis.status.len() != n {
        return Ok(Err(LpWork::default()));
    }
    let mut seen = vec![false; n];
    for &c in &basis.cols {
        let c = c as usize;
        if c >= n || seen[c] || basis.status[c] != ColStatus::Basic {
            return Ok(Err(LpWork::default()));
        }
        seen[c] = true;
    }
    if basis
        .status
        .iter()
        .filter(|&&s| s == ColStatus::Basic)
        .count()
        != m
    {
        return Ok(Err(LpWork::default()));
    }

    // Nonbasic columns snap to their (new) bound per recorded status; the
    // free-column phantom-zero convention matches `solve_lp_from`.
    let mut val = vec![0.0f64; n];
    for (j, &st) in basis.status.iter().enumerate() {
        val[j] = match st {
            ColStatus::Basic => 0.0, // recomputed below
            ColStatus::AtLower => {
                if lb[j].is_finite() {
                    lb[j]
                } else {
                    0.0
                }
            }
            ColStatus::AtUpper => {
                if ub[j].is_finite() {
                    ub[j]
                } else {
                    return Ok(Err(LpWork::default())); // nonsense status for an unbounded column
                }
            }
        };
    }

    let mut core = Core {
        p,
        m,
        n,
        art_row: Vec::new(),
        art_sign: Vec::new(),
        costs: p.costs.clone(),
        lb: lb.to_vec(),
        ub: ub.to_vec(),
        basis: basis.cols.clone(),
        status: basis.status.clone(),
        val,
        etas: Vec::new(),
        etas_base: 0,
        work: LpWork::default(),
        devex_w: vec![1.0; n],
        dual_w: vec![1.0; m],
        first_factor_us: 0,
        row_eta: Vec::new(),
        fire_heap: std::collections::BinaryHeap::new(),
        fire_queued: vec![false; m],
    };
    if core.refactorize().is_err() {
        return Ok(Err(core.work)); // singular cached basis
    }
    core.compute_basics();

    // Dual feasibility check: the cached reduced-cost signs must survive
    // under the (unchanged) costs. Violations mean the basis predates some
    // structural change and a primal solve is required.
    let mut d = vec![0.0f64; n];
    let mut y = vec![0.0f64; core.m];
    core.recompute_reduced(&mut d, &mut y);
    let dual_tol = OPT_TOL * opts.tol_scale.max(1.0) * 10.0;
    for (j, &dj) in d.iter().enumerate() {
        if core.lb[j] == core.ub[j] {
            continue; // fixed columns carry no dual requirement
        }
        let bad = match core.status[j] {
            ColStatus::Basic => false,
            ColStatus::AtLower => dj < -dual_tol,
            ColStatus::AtUpper => dj > dual_tol,
        };
        if bad {
            return Ok(Err(core.work));
        }
    }

    match core.dual(&mut d, opts) {
        Ok(DualEnd::PrimalFeasible) => {}
        Ok(DualEnd::Infeasible) => return Ok(Ok(core.ended(LpOutcome::Infeasible))),
        Err(SimplexStop::Budget(reason)) => return Err(core.budget_error(reason)),
        // Iteration cap or numerical breakdown inside the dual run: report
        // a miss; the fallback primal has its own (full) iteration budget.
        Err(SimplexStop::IterationLimit) | Err(SimplexStop::Singular(_)) => {
            return Ok(Err(core.work))
        }
        Err(SimplexStop::Unbounded) => return Ok(Err(core.work)), // cannot happen in dual
    }

    // Cleanup: the dual run ends primal feasible and (up to drift) dual
    // feasible; a primal pass certifies optimality, usually in 0 pivots.
    match core.primal(opts) {
        Ok(()) => Ok(Ok(core.optimal_result())),
        Err(SimplexStop::Unbounded) => Ok(Ok(core.ended(LpOutcome::Unbounded))),
        Err(SimplexStop::Budget(reason)) => Err(core.budget_error(reason)),
        Err(SimplexStop::IterationLimit) | Err(SimplexStop::Singular(_)) => Ok(Err(core.work)),
    }
}

// --- Root cutting planes ------------------------------------------------
//
// Cuts separated at the root of the branch-and-bound tree. Both families
// below are derived from *globally valid* bounds, so they hold for every
// integer-feasible point of the model and may stay in the LP for the
// whole tree. Cuts are expressed over the existing columns in `≤` form
// and appended via [`with_cut_rows`], which preserves the
// slack-of-row-`r`-is-column-`num_structural + r` invariant that
// `solve_lp_from` relies on.

/// One cut row `Σ aⱼ·xⱼ ≤ rhs` over *structural* columns only, before its
/// own slack column is appended. Keeping cuts slack-free preserves the
/// "each row touches only structural columns plus its own slack"
/// invariant that `solve_lp`'s crash-basis construction relies on.
pub(crate) type CutRow = (Vec<(u32, f64)>, f64);

/// Largest cut coefficient magnitude accepted; anything wilder is a sign
/// of numerical trouble in the tableau row and the cut is discarded.
const CUT_COEF_MAX: f64 = 1e8;
/// A basic integer column must be at least this fractional for its
/// tableau row to seed a Gomory cut.
const GOMORY_MIN_FRAC: f64 = 0.01;
/// Minimum violation (in the shifted space) for a cut to be kept.
const CUT_MIN_VIOLATION: f64 = 1e-4;

/// Returns `p` extended with `cuts` as new `≤` rows, each with a fresh
/// slack column `s ∈ [0, ∞)` appended after the existing columns.
/// Existing column indices are untouched, and because every problem built
/// by `standardize` (or this function) has exactly one slack per row, the
/// new slack of cut `k` lands at column `num_structural + num_rows + k` —
/// keeping the `slack_col(r) = num_structural + r` invariant intact.
pub(crate) fn with_cut_rows(p: &LpProblem, cuts: &[CutRow]) -> LpProblem {
    debug_assert_eq!(p.num_cols, p.num_structural + p.rows.len());
    debug_assert!(
        cuts.iter()
            .all(|(coefs, _)| coefs.iter().all(|&(j, _)| (j as usize) < p.num_structural)),
        "cut rows must reference structural columns only"
    );
    let mut costs = p.costs.clone();
    let mut lb = p.lb.clone();
    let mut ub = p.ub.clone();
    let mut rows = p.rows.clone();
    let mut rhs = p.rhs.clone();
    costs.reserve(cuts.len());
    for (k, (coefs, b)) in cuts.iter().enumerate() {
        let slack = (p.num_cols + k) as u32;
        let mut row = coefs.clone();
        row.push((slack, 1.0));
        rows.push(row);
        rhs.push(*b);
        costs.push(0.0);
        lb.push(0.0);
        ub.push(f64::INFINITY);
    }
    let mut aug = LpProblem::new(p.num_structural, costs, lb, ub, rows, rhs);
    // Cut rows join *unscaled*, even when the base matrix was equilibrated.
    // Gomory rows routinely carry geomeans orders of magnitude from 1;
    // rescaling them by the matching power of two amplifies their roundoff
    // relative to the absolute pivot/feasibility tolerances, and measured
    // ~1.5× slower warm restarts on the cut-augmented CT models. The stats
    // carry over so the root profile still reports the base-matrix scaling.
    aug.scaling = p.scaling;
    aug
}

impl Basis {
    /// Extends an optimal basis of the pre-cut problem to the cut-augmented
    /// one: each appended slack column (starting at `first_new_col`) goes
    /// basic in its own row. The extended basis matrix is block triangular
    /// (old basis + identity block), hence nonsingular, and the zero-cost
    /// slacks keep the reduced costs — and thus dual feasibility — intact,
    /// so [`resolve_lp`] can reoptimize it with dual pivots.
    pub(crate) fn extended_with_cut_slacks(&self, first_new_col: usize, k: usize) -> Basis {
        let mut cols = self.cols.clone();
        let mut status = self.status.clone();
        cols.reserve(k);
        status.reserve(k);
        for i in 0..k {
            cols.push((first_new_col + i) as u32);
            status.push(ColStatus::Basic);
        }
        Basis { cols, status }
    }
}

/// Separates Gomory mixed-integer cuts from an optimal `basis` of `p`
/// under (globally valid) bounds `lb`/`ub`. `col_is_int[j]` flags the
/// integer structural columns. Returns up to `max_cuts` cuts in `≤` form,
/// each violated by the basic solution the basis encodes; every cut is
/// valid for all integer-feasible points under the given bounds, so
/// root-derived cuts hold tree-wide.
pub(crate) fn gomory_cuts(
    p: &LpProblem,
    lb: &[f64],
    ub: &[f64],
    basis: &Basis,
    col_is_int: &[bool],
    max_cuts: usize,
) -> Vec<CutRow> {
    let m = p.rows.len();
    let n = p.num_cols;
    if m == 0 || max_cuts == 0 || basis.cols.len() != m || basis.status.len() != n {
        return Vec::new();
    }
    let mut val = vec![0.0f64; n];
    for (j, &st) in basis.status.iter().enumerate() {
        val[j] = match st {
            ColStatus::Basic => 0.0,
            ColStatus::AtLower => {
                if lb[j].is_finite() {
                    lb[j]
                } else {
                    0.0
                }
            }
            ColStatus::AtUpper => {
                if ub[j].is_finite() {
                    ub[j]
                } else {
                    return Vec::new();
                }
            }
        };
    }
    let mut core = Core {
        p,
        m,
        n,
        art_row: Vec::new(),
        art_sign: Vec::new(),
        costs: p.costs.clone(),
        lb: lb.to_vec(),
        ub: ub.to_vec(),
        basis: basis.cols.clone(),
        status: basis.status.clone(),
        val,
        etas: Vec::new(),
        etas_base: 0,
        work: LpWork::default(),
        devex_w: vec![1.0; n],
        dual_w: vec![1.0; m],
        first_factor_us: 0,
        row_eta: Vec::new(),
        fire_heap: std::collections::BinaryHeap::new(),
        fire_queued: vec![false; m],
    };
    if core.refactorize().is_err() {
        return Vec::new();
    }
    core.compute_basics();

    // Candidate rows: basic structural integer columns at a usefully
    // fractional value, most fractional first.
    let mut cand: Vec<(usize, f64)> = Vec::new();
    for (r, &bc) in core.basis.iter().enumerate() {
        let b = bc as usize;
        if b >= p.num_structural || !col_is_int[b] {
            continue;
        }
        let x = core.val[b];
        let f0 = x - x.floor();
        let dist = f0.min(1.0 - f0);
        if dist >= GOMORY_MIN_FRAC {
            cand.push((r, dist));
        }
    }
    cand.sort_by(|a, b| b.1.total_cmp(&a.1));
    cand.truncate(max_cuts);

    let mut rho = vec![0.0f64; m];
    let mut cuts: Vec<CutRow> = Vec::new();
    'rows: for &(r, _) in &cand {
        for v in rho.iter_mut() {
            *v = 0.0;
        }
        rho[r] = 1.0;
        core.btran(&mut rho);
        let xb = core.val[core.basis[r] as usize];
        let f0 = xb - xb.floor();
        if !(GOMORY_MIN_FRAC..=1.0 - GOMORY_MIN_FRAC).contains(&f0) {
            continue;
        }
        // The tableau row reads x_B(r) + Σ_nonbasic ᾱ_j·x_j = β. Shift
        // every nonbasic column onto its bound (x̃_j ≥ 0), apply the GMI
        // formula in the shifted space (integer columns get the mixed
        // strengthening, everything else the continuous term), then map
        // back and flip to `≤` form.
        let mut coefs: Vec<(u32, f64)> = Vec::new();
        let mut rhs = -f0; // accumulates relax − f0 − Σγl + Σγu (≤ form)
                           // `col_is_int` covers structural columns only (guarded below), so
                           // iterating it instead of the index range would stop short of the
                           // slack columns.
        #[allow(clippy::needless_range_loop)]
        for j in 0..n {
            if core.status[j] == ColStatus::Basic || core.lb[j] == core.ub[j] {
                continue;
            }
            let alpha = core.col_dot(j, &rho);
            if alpha.abs() <= 1e-11 {
                continue;
            }
            let at_upper = core.status[j] == ColStatus::AtUpper;
            let bound = if at_upper { core.ub[j] } else { core.lb[j] };
            if !bound.is_finite() {
                continue 'rows; // free phantom column: no valid shift
            }
            let a = if at_upper { -alpha } else { alpha };
            let gamma = if j < p.num_structural && col_is_int[j] {
                let fj = a - a.floor();
                fj.min(f0 * (1.0 - fj) / (1.0 - f0))
            } else if a >= 0.0 {
                a
            } else {
                f0 * (-a) / (1.0 - f0)
            };
            if !gamma.is_finite() || gamma > CUT_COEF_MAX {
                continue 'rows;
            }
            if gamma <= 1e-12 {
                // Dropping a γ·x̃ term from the `≥` left-hand side needs a
                // compensating rhs relaxation of γ·(range); with an
                // infinite range the term must stay.
                let range = core.ub[j] - core.lb[j];
                if range.is_finite() {
                    rhs += gamma * range;
                    continue;
                }
            }
            if at_upper {
                coefs.push((j as u32, gamma));
                rhs += gamma * bound;
            } else {
                coefs.push((j as u32, -gamma));
                rhs -= gamma * bound;
            }
        }
        // The current point has every x̃_j at 0, so the cut is violated by
        // f0 minus any rhs relaxation. Substitute slack columns away (the
        // row equations hold with equality everywhere, so this is exact),
        // then recompute the violation in structural space as a final
        // numerical sanity check.
        if coefs.is_empty() {
            continue;
        }
        let (coefs, rhs) = expand_to_structural(p, &coefs, rhs);
        if coefs.is_empty() || coefs.iter().any(|&(_, c)| c.abs() > CUT_COEF_MAX) {
            continue;
        }
        let lhs: f64 = coefs.iter().map(|&(j, c)| c * core.val[j as usize]).sum();
        if lhs - rhs < CUT_MIN_VIOLATION {
            continue;
        }
        cuts.push((coefs, rhs));
    }
    cuts
}

/// Rewrites a `Σ cⱼ·xⱼ ≤ rhs` row over arbitrary problem columns into an
/// equivalent one over structural columns only, by substituting each slack
/// via its defining row (`s_r = rhs_r − Σ aⱼ·xⱼ`). Every row references
/// only columns with smaller indices than its own slack, so one backward
/// sweep over the slack columns eliminates them all.
fn expand_to_structural(
    p: &LpProblem,
    coefs: &[(u32, f64)],
    mut rhs: f64,
) -> (Vec<(u32, f64)>, f64) {
    let ns = p.num_structural;
    let mut acc = vec![0.0f64; p.num_cols];
    for &(j, c) in coefs {
        acc[j as usize] += c;
    }
    for j in (ns..p.num_cols).rev() {
        let c = acc[j];
        if c == 0.0 {
            continue;
        }
        acc[j] = 0.0;
        let r = j - ns;
        rhs -= c * p.rhs[r];
        for &(cc, a) in &p.rows[r] {
            if cc as usize != j {
                acc[cc as usize] -= c * a;
            }
        }
    }
    let out: Vec<(u32, f64)> = acc
        .iter()
        .take(ns)
        .enumerate()
        .filter(|&(_, &v)| v.abs() > 1e-12)
        .map(|(j, &v)| (j as u32, v))
        .collect();
    (out, rhs)
}

/// Separates knapsack cover cuts: for every pure-binary `≤` row
/// `Σ aⱼxⱼ ≤ b` (all structural coefficients positive, all structural
/// columns binary), a greedy minimal cover `C` with `Σ_C aⱼ > b` yields
/// the valid cut `Σ_C xⱼ ≤ |C| − 1`; it is kept when the LP point `x`
/// (structural values) violates it.
pub(crate) fn cover_cuts(
    p: &LpProblem,
    lb: &[f64],
    ub: &[f64],
    x: &[f64],
    col_is_int: &[bool],
    max_cuts: usize,
) -> Vec<CutRow> {
    let mut out: Vec<CutRow> = Vec::new();
    for (r, row) in p.rows.iter().enumerate() {
        if out.len() >= max_cuts {
            break;
        }
        let slack = p.num_structural + r;
        // Only `≤` rows: slack ∈ [0, ∞).
        if lb[slack] != 0.0 || ub[slack].is_finite() {
            continue;
        }
        let b = p.rhs[r];
        if !b.is_finite() || b <= 0.0 {
            continue;
        }
        let mut items: Vec<(u32, f64)> = Vec::new();
        let mut ok = true;
        for &(c, a) in row {
            let cu = c as usize;
            if cu == slack {
                continue;
            }
            if cu >= p.num_structural
                || !col_is_int[cu]
                || lb[cu] < -FEAS_TOL
                || ub[cu] > 1.0 + FEAS_TOL
                || a <= 0.0
            {
                ok = false;
                break;
            }
            items.push((c, a));
        }
        if !ok || items.len() < 2 {
            continue;
        }
        // Greedy cover: cheapest (1 − x̄)/a first, until the weights
        // overflow the capacity.
        items.sort_by(|i, j| {
            let ci = (1.0 - x[i.0 as usize]).max(0.0) / i.1;
            let cj = (1.0 - x[j.0 as usize]).max(0.0) / j.1;
            ci.total_cmp(&cj)
        });
        let mut wsum = 0.0;
        let mut slackness = 0.0;
        let mut cover: Vec<u32> = Vec::new();
        for &(c, a) in &items {
            cover.push(c);
            wsum += a;
            slackness += (1.0 - x[c as usize]).max(0.0);
            if wsum > b + FEAS_TOL {
                break;
            }
        }
        if wsum <= b + FEAS_TOL {
            continue; // the whole row fits: no cover exists
        }
        // Cut Σ_C x ≤ |C|−1 is violated iff Σ_C (1 − x̄) < 1.
        if slackness >= 1.0 - CUT_MIN_VIOLATION {
            continue;
        }
        let coefs: Vec<(u32, f64)> = cover.iter().map(|&c| (c, 1.0)).collect();
        out.push((coefs, cover.len() as f64 - 1.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one place tests build `SimplexOpts`: a plain iteration cap,
    /// generous enough for every instance in this module.
    fn topts() -> SimplexOpts {
        SimplexOpts::with_max_iters(100_000)
    }

    /// Builds an LpProblem from dense rows `a·x cmp rhs` with structural
    /// bounds; mirrors what `branch::standardize` does.
    fn lp(
        costs: Vec<f64>,
        bounds: Vec<(f64, f64)>,
        cons: Vec<(Vec<f64>, i8, f64)>, // -1: <=, 0: =, 1: >=
    ) -> LpProblem {
        let ns = costs.len();
        let m = cons.len();
        let mut lb: Vec<f64> = bounds.iter().map(|b| b.0).collect();
        let mut ub: Vec<f64> = bounds.iter().map(|b| b.1).collect();
        let mut rows = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        for (r, (a, cmp, b)) in cons.into_iter().enumerate() {
            let mut row: Vec<(u32, f64)> = a
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(j, &v)| (j as u32, v))
                .collect();
            row.push(((ns + r) as u32, 1.0));
            match cmp {
                -1 => {
                    lb.push(0.0);
                    ub.push(f64::INFINITY);
                }
                1 => {
                    lb.push(f64::NEG_INFINITY);
                    ub.push(0.0);
                }
                _ => {
                    lb.push(0.0);
                    ub.push(0.0);
                }
            }
            rows.push(row);
            rhs.push(b);
        }
        let mut costs = costs;
        costs.resize(ns + m, 0.0);
        LpProblem::new(ns, costs, lb, ub, rows, rhs)
    }

    fn solve(p: &LpProblem) -> LpOutcome {
        solve_lp(p, &topts()).expect("numerical failure").outcome
    }

    #[test]
    fn exhausted_budget_stops_the_solve() {
        let p = lp(
            vec![-3.0, -2.0],
            vec![(0.0, f64::INFINITY), (0.0, f64::INFINITY)],
            vec![(vec![1.0, 1.0], -1, 4.0), (vec![1.0, 3.0], -1, 6.0)],
        );
        let opts = SimplexOpts {
            budget: Budget::with_limit(std::time::Duration::ZERO),
            ..SimplexOpts::default()
        };
        assert!(matches!(solve_lp(&p, &opts), Err(LpError::Budget { .. })));
    }

    #[test]
    fn forced_bland_reaches_the_same_optimum() {
        let p = lp(
            vec![-3.0, -2.0],
            vec![(0.0, f64::INFINITY), (0.0, f64::INFINITY)],
            vec![(vec![1.0, 1.0], -1, 4.0), (vec![1.0, 3.0], -1, 6.0)],
        );
        let opts = SimplexOpts {
            force_bland: true,
            tol_scale: 10.0,
            ..topts()
        };
        match solve_lp(&p, &opts).unwrap().outcome {
            LpOutcome::Optimal { obj, .. } => assert!((obj + 12.0).abs() < 1e-6),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn simple_2d_maximization_as_min() {
        // max 3x+2y s.t. x+y<=4, x+3y<=6, x,y>=0  -> min -3x-2y, opt at (4,0), obj 12.
        let p = lp(
            vec![-3.0, -2.0],
            vec![(0.0, f64::INFINITY), (0.0, f64::INFINITY)],
            vec![(vec![1.0, 1.0], -1, 4.0), (vec![1.0, 3.0], -1, 6.0)],
        );
        match solve(&p) {
            LpOutcome::Optimal { x, obj } => {
                assert!((obj + 12.0).abs() < 1e-6, "obj={obj}");
                assert!((x[0] - 4.0).abs() < 1e-6);
                assert!(x[1].abs() < 1e-6);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn equality_and_ge_constraints_need_phase1() {
        // min x+y s.t. x+y>=2, x-y=1 -> x=1.5, y=0.5, obj 2.
        let p = lp(
            vec![1.0, 1.0],
            vec![(0.0, f64::INFINITY), (0.0, f64::INFINITY)],
            vec![(vec![1.0, 1.0], 1, 2.0), (vec![1.0, -1.0], 0, 1.0)],
        );
        match solve(&p) {
            LpOutcome::Optimal { x, obj } => {
                assert!((obj - 2.0).abs() < 1e-6);
                assert!((x[0] - 1.5).abs() < 1e-6);
                assert!((x[1] - 0.5).abs() < 1e-6);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn detects_infeasibility() {
        // x <= 1 and x >= 2.
        let p = lp(
            vec![0.0],
            vec![(0.0, f64::INFINITY)],
            vec![(vec![1.0], -1, 1.0), (vec![1.0], 1, 2.0)],
        );
        assert!(matches!(solve(&p), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unboundedness() {
        // min -x s.t. x >= 0 (no upper bound).
        let p = lp(
            vec![-1.0],
            vec![(0.0, f64::INFINITY)],
            vec![(vec![1.0], 1, 0.0)],
        );
        assert!(matches!(solve(&p), LpOutcome::Unbounded));
    }

    #[test]
    fn respects_upper_bounds_via_bound_flip() {
        // min -x - y with x,y in [0, 3] and x + y <= 5: optimum (3, 2) or (2, 3).
        let p = lp(
            vec![-1.0, -1.0],
            vec![(0.0, 3.0), (0.0, 3.0)],
            vec![(vec![1.0, 1.0], -1, 5.0)],
        );
        match solve(&p) {
            LpOutcome::Optimal { x, obj } => {
                assert!((obj + 5.0).abs() < 1e-6);
                assert!(x[0] <= 3.0 + 1e-9 && x[1] <= 3.0 + 1e-9);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-ish / highly degenerate: several redundant constraints
        // through the origin.
        let p = lp(
            vec![-1.0, -1.0, -1.0],
            vec![
                (0.0, f64::INFINITY),
                (0.0, f64::INFINITY),
                (0.0, f64::INFINITY),
            ],
            vec![
                (vec![1.0, 0.0, 0.0], -1, 0.0),
                (vec![1.0, 1.0, 0.0], -1, 0.0),
                (vec![1.0, 1.0, 1.0], -1, 1.0),
                (vec![0.0, 1.0, 1.0], -1, 1.0),
                (vec![0.0, 0.0, 1.0], -1, 1.0),
            ],
        );
        match solve(&p) {
            LpOutcome::Optimal { obj, .. } => assert!((obj + 1.0).abs() < 1e-6),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn negative_lower_bounds() {
        // min x with x in [-5, 5], x >= -3  ->  x = -3.
        let p = lp(vec![1.0], vec![(-5.0, 5.0)], vec![(vec![1.0], 1, -3.0)]);
        match solve(&p) {
            LpOutcome::Optimal { x, obj } => {
                assert!((obj + 3.0).abs() < 1e-6);
                assert!((x[0] + 3.0).abs() < 1e-6);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn no_constraints_puts_vars_at_cheapest_bound() {
        let p = lp(vec![1.0, -1.0], vec![(0.0, 2.0), (0.0, 2.0)], vec![]);
        match solve(&p) {
            LpOutcome::Optimal { x, obj } => {
                assert_eq!(x, vec![0.0, 2.0]);
                assert_eq!(obj, -2.0);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn equality_with_bounded_vars() {
        // min 2x + 3y s.t. x + y = 10, x in [0,4], y in [0,20]  -> x=4, y=6, obj 26.
        let p = lp(
            vec![2.0, 3.0],
            vec![(0.0, 4.0), (0.0, 20.0)],
            vec![(vec![1.0, 1.0], 0, 10.0)],
        );
        match solve(&p) {
            LpOutcome::Optimal { x, obj } => {
                assert!((obj - 26.0).abs() < 1e-6);
                assert!((x[0] - 4.0).abs() < 1e-6);
                assert!((x[1] - 6.0).abs() < 1e-6);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn csc_matches_rows() {
        let p = lp(
            vec![1.0, 2.0, 0.0],
            vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)],
            vec![
                (vec![1.0, 0.0, 2.0], -1, 4.0),
                (vec![0.0, -1.0, 1.0], 0, 1.0),
            ],
        );
        // Reconstruct the dense matrix from both representations.
        let m = p.rows.len();
        let mut from_rows = vec![vec![0.0; p.num_cols]; m];
        for (r, row) in p.rows.iter().enumerate() {
            for &(c, a) in row {
                from_rows[r][c as usize] = a;
            }
        }
        let mut from_cols = vec![vec![0.0; p.num_cols]; m];
        #[allow(clippy::needless_range_loop)]
        for j in 0..p.num_cols {
            for (r, a) in p.cols.col(j) {
                from_cols[r][j] = a;
            }
        }
        assert_eq!(from_rows, from_cols);
        assert_eq!(p.nnz(), p.rows.iter().map(Vec::len).sum::<usize>());
    }

    /// Randomized cross-check: LPs whose optimum we can compute by brute
    /// force over basic feasible points of a transportation-like structure.
    #[test]
    fn random_lps_match_enumerated_vertices() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..60 {
            // 2 vars, 3 random <= constraints with positive coefficients,
            // bounded box: optimum is at one of the O(25) intersection
            // points; enumerate them.
            let c = [rng.gen_range(-5.0..5.0f64), rng.gen_range(-5.0..5.0f64)];
            let mut cons = Vec::new();
            for _ in 0..3 {
                cons.push((
                    vec![rng.gen_range(0.1..3.0f64), rng.gen_range(0.1..3.0f64)],
                    -1i8,
                    rng.gen_range(1.0..8.0f64),
                ));
            }
            let p = lp(c.to_vec(), vec![(0.0, 6.0), (0.0, 6.0)], cons.clone());
            let LpOutcome::Optimal { obj, .. } = solve(&p) else {
                panic!("trial {trial}: expected optimal");
            };
            // Brute force: intersect all pairs of active boundaries.
            let mut lines: Vec<(f64, f64, f64)> = vec![
                (1.0, 0.0, 0.0),
                (0.0, 1.0, 0.0),
                (1.0, 0.0, 6.0),
                (0.0, 1.0, 6.0),
            ];
            for (a, _, b) in &cons {
                lines.push((a[0], a[1], *b));
            }
            let feasible = |x: f64, y: f64| {
                x >= -1e-9
                    && y >= -1e-9
                    && x <= 6.0 + 1e-9
                    && y <= 6.0 + 1e-9
                    && cons.iter().all(|(a, _, b)| a[0] * x + a[1] * y <= b + 1e-9)
            };
            let mut best = f64::INFINITY;
            for i in 0..lines.len() {
                for j in i + 1..lines.len() {
                    let (a1, b1, c1) = lines[i];
                    let (a2, b2, c2) = lines[j];
                    let det = a1 * b2 - a2 * b1;
                    if det.abs() < 1e-9 {
                        continue;
                    }
                    let x = (c1 * b2 - c2 * b1) / det;
                    let y = (a1 * c2 - a2 * c1) / det;
                    if feasible(x, y) {
                        best = best.min(c[0] * x + c[1] * y);
                    }
                }
            }
            assert!(
                (obj - best).abs() < 1e-5,
                "trial {trial}: simplex {obj} vs enumerated {best}"
            );
        }
    }

    // --- Basis-reuse / dual-simplex tests -----------------------------

    /// Solves, snapshots the basis, tightens one bound, and checks the
    /// dual restart against a from-scratch solve.
    fn check_restart_matches(p: &LpProblem, lb: Vec<f64>, ub: Vec<f64>) {
        let first = solve_lp(p, &topts()).expect("base solve");
        let Some(basis) = first.basis else {
            panic!("optimal solve must yield a reusable basis");
        };
        let scratch = solve_lp_from(p, &lb, &ub, &topts()).expect("scratch solve");
        let restart = resolve_lp(p, &lb, &ub, &basis, &topts()).expect("restart solve");
        match (restart, &scratch.outcome) {
            (Ok(res), LpOutcome::Optimal { obj: want, .. }) => match res.outcome {
                LpOutcome::Optimal { obj, .. } => {
                    assert!(
                        (obj - want).abs() < FEAS_TOL,
                        "restart obj {obj} vs scratch {want}"
                    );
                    assert!(res.basis.is_some(), "restart must re-snapshot its basis");
                }
                other => panic!("restart disagreed with scratch Optimal: {other:?}"),
            },
            (Ok(res), LpOutcome::Infeasible) => {
                assert!(
                    matches!(res.outcome, LpOutcome::Infeasible),
                    "restart must agree the tightened LP is infeasible"
                );
            }
            (Err(_), _) => {
                // A fallback is always *allowed* (stale basis); correctness
                // is then the primal path's job, which `scratch` just took.
            }
            (Ok(res), other) => panic!("scratch {other:?} vs restart {:?}", res.outcome),
        }
    }

    #[test]
    fn dual_restart_matches_scratch_after_each_single_tightening() {
        // The branching pattern B&B generates: one integer column clamped
        // up or down. Every column, both directions.
        let p = lp(
            vec![-3.0, -2.0, -4.0],
            vec![(0.0, 4.0), (0.0, 4.0), (0.0, 4.0)],
            vec![
                (vec![1.0, 1.0, 2.0], -1, 7.0),
                (vec![2.0, 1.0, 1.0], -1, 8.0),
            ],
        );
        for col in 0..3 {
            for (is_lower, v) in [(true, 1.0), (false, 2.0)] {
                let mut lb = p.lb.clone();
                let mut ub = p.ub.clone();
                if is_lower {
                    lb[col] = v;
                } else {
                    ub[col] = v;
                }
                check_restart_matches(&p, lb, ub);
            }
        }
    }

    #[test]
    fn dual_restart_detects_infeasible_child() {
        // x + y = 10 with both clamped to [0, 4]: child infeasible; the
        // dual run must prune it without a primal fallback.
        let p = lp(
            vec![2.0, 3.0],
            vec![(0.0, 20.0), (0.0, 20.0)],
            vec![(vec![1.0, 1.0], 0, 10.0)],
        );
        let first = solve_lp(&p, &topts()).unwrap();
        let basis = first.basis.expect("reusable basis");
        let lb = p.lb.clone();
        let mut ub = p.ub.clone();
        ub[0] = 4.0;
        ub[1] = 4.0;
        let restart = resolve_lp(&p, &lb, &ub, &basis, &topts()).unwrap();
        match restart {
            Ok(res) => assert!(matches!(res.outcome, LpOutcome::Infeasible)),
            Err(_) => panic!("dual restart should prove infeasibility, not fall back"),
        }
    }

    /// Property-style test (vendored proptest stand-in semantics: many
    /// deterministic random cases, no shrinking): a random LP, a random
    /// single-bound tightening, and the invariant that `resolve_lp` either
    /// matches the from-scratch objective within `FEAS_TOL` or honestly
    /// reports a miss.
    #[test]
    fn prop_dual_restart_matches_scratch_on_random_tightenings() {
        use proptest::test_runner::TestRng;
        let cases = proptest::case_count();
        for case in 0..cases as u64 {
            let mut rng = TestRng::for_case("prop_dual_restart", case);
            let nv = 2 + rng.below(3) as usize; // 2..=4 vars
            let nc = 1 + rng.below(3) as usize; // 1..=3 constraints
            let costs: Vec<f64> = (0..nv).map(|_| rng.unit_f64() * 10.0 - 5.0).collect();
            let bounds: Vec<(f64, f64)> =
                (0..nv).map(|_| (0.0, 1.0 + rng.below(5) as f64)).collect();
            let cons: Vec<(Vec<f64>, i8, f64)> = (0..nc)
                .map(|_| {
                    let a: Vec<f64> = (0..nv).map(|_| rng.unit_f64() * 3.0 + 0.1).collect();
                    (a, -1i8, 1.0 + rng.unit_f64() * 7.0)
                })
                .collect();
            let p = lp(costs, bounds.clone(), cons);
            // Random single-bound tightening on a structural column.
            let col = rng.below(nv as u64) as usize;
            let (blo, bhi) = bounds[col];
            let mut lb = p.lb.clone();
            let mut ub = p.ub.clone();
            if rng.below(2) == 0 {
                lb[col] = (blo + 1.0).min(bhi);
            } else {
                ub[col] = (bhi - 1.0).max(blo);
            }
            check_restart_matches(&p, lb, ub);
        }
    }

    #[test]
    fn poisoned_basis_forces_primal_fallback() {
        // Satellite: a corrupted cached basis must be reported as a miss
        // (`Ok(Err(work))`), and the primal path must still recover the optimum.
        // Two rows so the poisoning (duplicating one basic column into
        // every slot) genuinely corrupts the basis.
        let p = lp(
            vec![-3.0, -2.0],
            vec![(0.0, 4.0), (0.0, 4.0)],
            vec![(vec![1.0, 1.0], -1, 5.0), (vec![1.0, 1.0], -1, 6.0)],
        );
        let mut basis = solve_lp(&p, &topts()).unwrap().basis.expect("basis");
        basis.poison();
        let mut lb = p.lb.clone();
        let ub = p.ub.clone();
        lb[0] = 1.0;
        let restart = resolve_lp(&p, &lb, &ub, &basis, &topts()).unwrap();
        assert!(restart.is_err(), "poisoned basis must miss, not solve");
        // The fallback path (exactly what branch.rs runs on a miss):
        // maximize 3x+2y with x ∈ [1,4], y ∈ [0,4], x+y ≤ 5 → (4,1), −14.
        let fallback = solve_lp_from(&p, &lb, &ub, &topts()).unwrap();
        match fallback.outcome {
            LpOutcome::Optimal { obj, .. } => assert!((obj + 14.0).abs() < 1e-6, "obj={obj}"),
            other => panic!("fallback failed: {other:?}"),
        }
    }

    #[test]
    fn a_singular_restart_basis_reports_its_refactorization() {
        // A poisoned yet well-formed basis: x and y have the same column,
        // so the re-inversion runs and finds the basis singular. The miss
        // must carry that re-inversion.
        let p = lp(
            vec![-3.0, -2.0],
            vec![(0.0, 4.0), (0.0, 4.0)],
            vec![(vec![1.0, 1.0], -1, 5.0), (vec![1.0, 1.0], -1, 6.0)],
        );
        let basis = Basis {
            cols: vec![0, 1],
            status: vec![
                ColStatus::Basic,
                ColStatus::Basic,
                ColStatus::AtLower,
                ColStatus::AtLower,
            ],
        };
        match resolve_lp(&p, &p.lb, &p.ub, &basis, &topts()).unwrap() {
            Err(work) => assert_eq!(work.refactors, 1, "the miss lost its work: {work:?}"),
            Ok(res) => panic!("a singular basis must miss, got {:?}", res.outcome),
        }
    }

    #[test]
    fn phase_one_drives_artificials_out_of_a_redundant_row() {
        // x + y = 1 written twice, both slacks fixed at 0: phase 1 ends
        // with an artificial basic at zero on one row. Only a degenerate
        // pivot (a fixed slack enters) leaves a basis to restart from.
        let p = lp(
            vec![1.0, 2.0],
            vec![(0.0, 1.0), (0.0, 1.0)],
            vec![(vec![1.0, 1.0], 0, 1.0), (vec![1.0, 1.0], 0, 1.0)],
        );
        let first = solve_lp(&p, &topts()).unwrap();
        match first.outcome {
            LpOutcome::Optimal { obj, .. } => assert!((obj - 1.0).abs() < 1e-9, "obj={obj}"),
            ref other => panic!("base solve: {other:?}"),
        }
        let basis = first.basis.expect("no artificial may stay basic");
        // Tighten x ≤ 0.25: y = 0.75 and the cost is 1.75.
        let mut ub = p.ub.clone();
        ub[0] = 0.25;
        let restart = resolve_lp(&p, &p.lb, &ub, &basis, &topts())
            .unwrap()
            .expect("the driven-out basis warm-restarts");
        let scratch = solve_lp_from(&p, &p.lb, &ub, &topts()).unwrap();
        match (restart.outcome, scratch.outcome) {
            (LpOutcome::Optimal { obj: a, .. }, LpOutcome::Optimal { obj: b, .. }) => {
                assert!((a - b).abs() < 1e-9, "restart {a} vs scratch {b}");
                assert!((a - 1.75).abs() < 1e-9, "restart {a}");
            }
            (a, b) => panic!("restart {a:?} vs scratch {b:?}"),
        }
    }

    #[test]
    fn dual_budget_exhaustion_carries_iterations_spent() {
        // Satellite: the budget-exhaustion path of the dual simplex must
        // surface `LpError::Budget` with the iteration count payload.
        let p = lp(
            vec![-3.0, -2.0, -4.0],
            vec![(0.0, 4.0), (0.0, 4.0), (0.0, 4.0)],
            vec![
                (vec![1.0, 1.0, 2.0], -1, 7.0),
                (vec![2.0, 1.0, 1.0], -1, 8.0),
            ],
        );
        let basis = solve_lp(&p, &topts()).unwrap().basis.expect("basis");
        let mut lb = p.lb.clone();
        let ub = p.ub.clone();
        lb[2] = 3.0; // force some dual pivots
        let opts = SimplexOpts {
            budget: Budget::with_limit(std::time::Duration::ZERO),
            ..SimplexOpts::default()
        };
        match resolve_lp(&p, &lb, &ub, &basis, &opts) {
            Err(LpError::Budget { work, .. }) => {
                // A dead budget fires on the first amortized check, before
                // any pivot lands — but after the re-inversion of the
                // cached basis, which the payload must still carry.
                assert_eq!(work.iterations, 0, "budget error must carry pivots spent");
                assert_eq!(work.refactors, 1, "budget error must carry re-inversions");
            }
            other => panic!("expected a budget error, got {other:?}"),
        }
    }

    #[test]
    fn refactorization_triggers_and_preserves_the_optimum() {
        // A chain of equalities long enough that the pivot count crosses
        // the refactor threshold (m + REFACTOR_PERIOD etas), exercising
        // re-inversion mid-solve.
        let n = 200usize;
        let costs: Vec<f64> = (0..n)
            .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let bounds = vec![(0.0, 10.0); n];
        let mut cons = Vec::new();
        // x_j + x_{j+1} <= 10 for all j; optimum pushes odd columns up.
        for j in 0..n - 1 {
            let mut a = vec![0.0; n];
            a[j] = 1.0;
            a[j + 1] = 1.0;
            cons.push((a, -1i8, 10.0));
        }
        let p = lp(costs, bounds, cons);
        let res = solve_lp(&p, &topts()).unwrap();
        match res.outcome {
            LpOutcome::Optimal { obj, .. } => {
                // 100 odd columns at 10, even columns at 0: obj = -1000.
                assert!((obj + 1000.0).abs() < 1e-6, "obj={obj}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(
            res.work.refactors >= 2,
            "expected mid-solve re-inversions, got {}",
            res.work.refactors
        );
    }

    // --- Pricing / cut tests ------------------------------------------

    #[test]
    fn devex_and_dantzig_agree_on_random_lps() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..40 {
            let nv = 3;
            let costs: Vec<f64> = (0..nv).map(|_| rng.gen_range(-5.0..5.0f64)).collect();
            let bounds = vec![(0.0, 6.0); nv];
            let cons: Vec<(Vec<f64>, i8, f64)> = (0..3)
                .map(|_| {
                    (
                        (0..nv).map(|_| rng.gen_range(0.1..3.0f64)).collect(),
                        -1i8,
                        rng.gen_range(1.0..8.0f64),
                    )
                })
                .collect();
            let p = lp(costs, bounds, cons);
            let dantzig = SimplexOpts {
                pricing: Pricing::Dantzig,
                ..topts()
            };
            let devex = SimplexOpts {
                pricing: Pricing::Devex,
                ..topts()
            };
            match (
                solve_lp(&p, &dantzig).unwrap().outcome,
                solve_lp(&p, &devex).unwrap().outcome,
            ) {
                (LpOutcome::Optimal { obj: a, .. }, LpOutcome::Optimal { obj: b, .. }) => {
                    assert!(
                        (a - b).abs() < 1e-6,
                        "trial {trial}: dantzig {a} vs devex {b}"
                    );
                }
                (a, b) => panic!("trial {trial}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn devex_dual_restart_matches_dantzig_restart() {
        let p = lp(
            vec![-3.0, -2.0, -4.0],
            vec![(0.0, 4.0), (0.0, 4.0), (0.0, 4.0)],
            vec![
                (vec![1.0, 1.0, 2.0], -1, 7.0),
                (vec![2.0, 1.0, 1.0], -1, 8.0),
            ],
        );
        for pricing in [Pricing::Dantzig, Pricing::Devex] {
            let opts = SimplexOpts { pricing, ..topts() };
            let first = solve_lp(&p, &opts).unwrap();
            let basis = first.basis.expect("reusable basis");
            let mut lb = p.lb.clone();
            lb[2] = 3.0;
            let restart = resolve_lp(&p, &lb, &p.ub, &basis, &opts)
                .unwrap()
                .expect("restart should succeed");
            let scratch = solve_lp_from(&p, &lb, &p.ub, &opts).unwrap();
            match (restart.outcome, scratch.outcome) {
                (LpOutcome::Optimal { obj: a, .. }, LpOutcome::Optimal { obj: b, .. }) => {
                    assert!(
                        (a - b).abs() < 1e-6,
                        "{pricing:?}: restart {a} vs scratch {b}"
                    )
                }
                (a, b) => panic!("{pricing:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn first_factorization_time_is_recorded() {
        let p = lp(
            vec![-3.0, -2.0],
            vec![(0.0, f64::INFINITY), (0.0, f64::INFINITY)],
            vec![(vec![1.0, 1.0], -1, 4.0), (vec![1.0, 3.0], -1, 6.0)],
        );
        let res = solve_lp(&p, &topts()).unwrap();
        // Timing is environment-dependent; the field just must be present
        // and sane (the first factorization of a 2-row LP is ≪ 1 s).
        assert!(res.first_factor_us < 1_000_000);
    }

    /// Enumerates the feasible binary points of a pure-binary `lp()`
    /// problem (structural columns all in [0,1]).
    fn binary_points(p: &LpProblem) -> Vec<Vec<f64>> {
        let ns = p.num_structural;
        let mut out = Vec::new();
        'pts: for mask in 0..(1u32 << ns) {
            let x: Vec<f64> = (0..ns).map(|j| ((mask >> j) & 1) as f64).collect();
            for (r, row) in p.rows.iter().enumerate() {
                let mut act = 0.0;
                for &(c, a) in row {
                    let cu = c as usize;
                    if cu < ns {
                        act += a * x[cu];
                    }
                }
                // Row is act + slack = rhs with slack ∈ [lb, ub].
                let s = ns + r;
                let slack = p.rhs[r] - act;
                if slack < p.lb[s] - 1e-9 || slack > p.ub[s] + 1e-9 {
                    continue 'pts;
                }
            }
            out.push(x);
        }
        out
    }

    #[test]
    fn gomory_cuts_are_violated_by_lp_and_satisfied_by_integers() {
        // max 5x0 + 4x1 + 3x2 over binaries with two knapsack rows; the
        // LP relaxation is fractional.
        let p = lp(
            vec![-5.0, -4.0, -3.0],
            vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)],
            vec![
                (vec![2.0, 3.0, 1.0], -1, 4.0),
                (vec![4.0, 1.0, 2.0], -1, 5.0),
            ],
        );
        let res = solve_lp(&p, &topts()).unwrap();
        let basis = res.basis.expect("basis");
        let LpOutcome::Optimal { x, .. } = &res.outcome else {
            panic!("expected optimal");
        };
        let is_int = vec![true; 3];
        let cuts = gomory_cuts(&p, &p.lb, &p.ub, &basis, &is_int, 8);
        assert!(!cuts.is_empty(), "fractional LP optimum must yield cuts");
        let full = |xs: &[f64], j: usize, r_of: &dyn Fn(usize) -> f64| {
            if j < p.num_structural {
                xs[j]
            } else {
                r_of(j - p.num_structural)
            }
        };
        for (coefs, rhs) in &cuts {
            // Violated by the LP point (slack values from row residuals).
            let slack_at = |xs: &[f64], r: usize| {
                let mut act = 0.0;
                for &(c, a) in &p.rows[r] {
                    let cu = c as usize;
                    if cu < p.num_structural {
                        act += a * xs[cu];
                    }
                }
                p.rhs[r] - act
            };
            let eval = |xs: &[f64]| {
                coefs
                    .iter()
                    .map(|&(j, c)| c * full(xs, j as usize, &|r| slack_at(xs, r)))
                    .sum::<f64>()
            };
            assert!(eval(x) > rhs + 1e-5, "cut must be violated by the LP point");
            // Satisfied by every feasible binary point.
            for pt in binary_points(&p) {
                assert!(
                    eval(&pt) <= rhs + 1e-6,
                    "cut {coefs:?} ≤ {rhs} kills integer point {pt:?}"
                );
            }
        }
    }

    #[test]
    fn cover_cuts_are_valid_for_binary_knapsacks() {
        let p = lp(
            vec![-5.0, -4.0, -3.0],
            vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)],
            vec![(vec![2.0, 3.0, 2.0], -1, 4.0)],
        );
        let res = solve_lp(&p, &topts()).unwrap();
        let LpOutcome::Optimal { x, .. } = &res.outcome else {
            panic!("expected optimal");
        };
        let is_int = vec![true; 3];
        let cuts = cover_cuts(&p, &p.lb, &p.ub, x, &is_int, 8);
        for (coefs, rhs) in &cuts {
            let viol: f64 = coefs.iter().map(|&(j, c)| c * x[j as usize]).sum();
            assert!(viol > rhs + 1e-6, "cover cut must be violated by x̄");
            for pt in binary_points(&p) {
                let v: f64 = coefs.iter().map(|&(j, c)| c * pt[j as usize]).sum();
                assert!(v <= rhs + 1e-9, "cover cut kills integer point {pt:?}");
            }
        }
    }

    #[test]
    fn cut_rows_append_and_extended_basis_resolves() {
        let p = lp(
            vec![-5.0, -4.0, -3.0],
            vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)],
            vec![
                (vec![2.0, 3.0, 1.0], -1, 4.0),
                (vec![4.0, 1.0, 2.0], -1, 5.0),
            ],
        );
        let res = solve_lp(&p, &topts()).unwrap();
        let basis = res.basis.expect("basis");
        let LpOutcome::Optimal { obj: base_obj, .. } = res.outcome else {
            panic!("expected optimal");
        };
        let is_int = vec![true; 3];
        let cuts = gomory_cuts(&p, &p.lb, &p.ub, &basis, &is_int, 8);
        assert!(!cuts.is_empty());
        let aug = with_cut_rows(&p, &cuts);
        assert_eq!(aug.num_cols, p.num_cols + cuts.len());
        assert_eq!(aug.rows.len(), p.rows.len() + cuts.len());
        let ext = basis.extended_with_cut_slacks(p.num_cols, cuts.len());
        let restart = resolve_lp(&aug, &aug.lb, &aug.ub, &ext, &topts())
            .unwrap()
            .expect("extended basis must warm-restart the cut LP");
        let scratch = solve_lp(&aug, &topts()).unwrap();
        match (restart.outcome, scratch.outcome) {
            (LpOutcome::Optimal { obj: a, .. }, LpOutcome::Optimal { obj: b, .. }) => {
                assert!((a - b).abs() < 1e-6, "restart {a} vs scratch {b}");
                // Cuts tighten a minimization relaxation: bound can only rise.
                assert!(a >= base_obj - 1e-9);
            }
            (a, b) => panic!("{a:?} vs {b:?}"),
        }
    }
}
