//! Global CT + prefix optimization (paper Section III-C) behind a
//! graceful-degradation ladder.
//!
//! The coupling variable between the two ILPs is the CT's output BCV
//! `V_s`: its entries decide both the compressor cost and the leaf types
//! of the prefix structure. Three solution paths are provided, ordered
//! best-first:
//!
//! * [`joint_ilp`] — the paper's formulation: CT constraints + prefix IP
//!   constraints + the combined objective `α·F + β·H + c_{L−1:0}`
//!   (Eq. 27), solved by branch and bound under a wall-clock budget
//!   (exactly how the paper runs Gurobi, with its `3600 + L³` second cap),
//!   followed by the paper's post-pass: re-optimize the *full-width*
//!   prefix structure for the resulting `V_s`.
//! * [`target_search`] — a scalable joint optimizer for large word lengths
//!   where a from-scratch MILP solver cannot close the gap: hill-climbing
//!   over final-height target profiles, with each candidate evaluated
//!   *exactly* (a targeted-Dadda schedule generator for the CT side and
//!   the full interval DP for the prefix side, run once per distinct
//!   leaf-type profile). Unlike the joint ILP's `L`-truncated objective it
//!   scores the complete prefix cost, not just `c_{L−1:0}`.
//! * plain Dadda + optimal prefix — the unconditional last resort; never
//!   budget-checked, cannot fail.
//!
//! [`optimize_global`] runs the ladder: every rung takes the same step —
//! its skip reason, a skip once the shared wall-clock [`Budget`] is spent,
//! a panic guard, and the record of its outcome in a typed
//! [`DegradationReport`] — and the best surviving solution wins. Tests
//! verify the strategies agree on small instances.

use crate::config::GomilConfig;
use crate::ct_ilp::CtIlp;
use crate::error::{panic_message, GomilError};
use crate::flow::pipeline_budget;
use crate::prefix_ilp::{add_prefix_constraints, LeafB};
use gomil_arith::{
    dadda_schedule, required_stages_modular, schedule_toward_target,
    schedule_toward_target_modular, try_required_stages, Bcv, CompressionSchedule,
};
use gomil_budget::{Budget, BudgetExceeded};
use gomil_ilp::{
    BranchConfig, IncumbentEvent, IncumbentSource, LinExpr, Model, RootProfile, Sense, Solution,
    SolveError, WarmStartStatus,
};
use gomil_netlist::EquivVerdict;
use gomil_prefix::{dp_tables_budgeted, leaf_types, optimize_prefix_tree, PrefixTree};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// One rung of the graceful-degradation ladder, ordered best-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// The paper's joint ILP (Eq. 27).
    JointIlp,
    /// Hill-climb over final-height target profiles.
    TargetSearch,
    /// Plain Dadda schedule + optimal full-width prefix tree.
    DaddaPrefix,
}

impl Rung {
    /// The strategy string recorded in [`GlobalSolution::strategy`] when
    /// this rung produces the winning solution.
    pub fn label(self) -> &'static str {
        match self {
            Rung::JointIlp => "joint-ilp",
            Rung::TargetSearch => "target-search",
            Rung::DaddaPrefix => "dadda-prefix",
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a ladder rung failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RungFailure {
    /// The ILP machinery reported an error.
    Solve(SolveError),
    /// The shared wall-clock budget expired mid-rung with nothing usable.
    Budget(BudgetExceeded),
    /// The rung panicked; the payload message is preserved. The panic is
    /// contained — later rungs still run.
    Panic(String),
}

impl fmt::Display for RungFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RungFailure::Solve(e) => write!(f, "{e}"),
            RungFailure::Budget(e) => write!(f, "{e}"),
            RungFailure::Panic(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

/// What happened when a rung was attempted (or deliberately not).
#[derive(Debug, Clone, PartialEq)]
pub enum RungOutcome {
    /// The rung produced a feasible global solution with this objective.
    Succeeded {
        /// Achieved combined objective `ct_cost + prefix_cost`.
        objective: f64,
    },
    /// The rung ran and failed.
    Failed(RungFailure),
    /// The rung was not run; the reason explains why (size guard, budget
    /// already spent, or an earlier rung already succeeded).
    Skipped(String),
}

/// One ladder entry: a rung and what became of it.
#[derive(Debug, Clone, PartialEq)]
pub struct RungAttempt {
    /// Which rung.
    pub rung: Rung,
    /// Its outcome.
    pub outcome: RungOutcome,
}

impl fmt::Display for RungAttempt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            RungOutcome::Succeeded { objective } => {
                write!(f, "{}: ok (objective {objective})", self.rung)
            }
            RungOutcome::Failed(why) => write!(f, "{}: failed ({why})", self.rung),
            RungOutcome::Skipped(why) => write!(f, "{}: skipped ({why})", self.rung),
        }
    }
}

/// A typed record of the degradation ladder's run: every rung attempted,
/// every failure absorbed, and which rung's solution won.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DegradationReport {
    /// Rungs in attempt order.
    pub attempts: Vec<RungAttempt>,
    /// The rung whose solution was returned, once the ladder finished.
    pub winner: Option<Rung>,
    /// Whether the shared wall-clock budget was already exhausted (or
    /// cancelled) when the ladder finished, or the joint ILP's half of a
    /// deadline ran out — the returned solution may have been shaped by
    /// the deadline even if no rung outright failed (e.g. a hill-climb
    /// that stopped mid-round).
    pub budget_exhausted: bool,
}

impl DegradationReport {
    /// Whether any rung actually failed (as opposed to being skipped) —
    /// i.e. the pipeline had to absorb a fault to produce its answer.
    pub fn degraded(&self) -> bool {
        self.attempts
            .iter()
            .any(|a| matches!(a.outcome, RungOutcome::Failed(_)))
    }

    /// Whether the wall-clock budget shaped this result: the budget
    /// expired by the end of the ladder, or some rung failed on it. Such
    /// a solution is still correct and certified, but a more generous
    /// budget could have produced a better one — serving layers use this
    /// to decide what is worth caching.
    pub fn budget_limited(&self) -> bool {
        self.budget_exhausted
            || self
                .attempts
                .iter()
                .any(|a| matches!(a.outcome, RungOutcome::Failed(RungFailure::Budget(_))))
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{a}")?;
        }
        match self.winner {
            Some(w) => write!(f, "; winner: {w}"),
            None => write!(f, "; no winner"),
        }
    }
}

/// Branch-and-bound statistics of an ILP-backed rung, surfaced so reports
/// and the CLI can print how the solve went.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// Wall-clock time of the solve (including any numerical retry).
    pub wall_time: Duration,
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Nodes discarded without children (bound cutoff or infeasibility).
    pub nodes_pruned: u64,
    /// Nodes split into two children.
    pub nodes_branched: u64,
    /// Total simplex iterations across LP relaxations.
    pub lp_iterations: u64,
    /// Warm-restart attempts: nodes that carried a parent basis into the
    /// dual simplex.
    pub lp_warm_attempts: u64,
    /// Warm-restart hits: attempts that reoptimized without falling back
    /// to the from-scratch primal.
    pub lp_warm_hits: u64,
    /// Basis refactorizations (eta-file rebuilds) across all LP solves.
    pub lp_refactors: u64,
    /// Forward transformations (FTRAN) across all LP solves.
    pub lp_ftran: u64,
    /// FTRANs that took the hypersparse (sparse-rhs) kernel path.
    pub lp_ftran_hyper: u64,
    /// Backward transformations (BTRAN) across all LP solves.
    pub lp_btran: u64,
    /// BTRANs that took the hypersparse kernel path.
    pub lp_btran_hyper: u64,
    /// Whether optimality was proven within the budget.
    pub proven_optimal: bool,
    /// Relative optimality gap of the returned incumbent.
    pub gap: f64,
    /// Which mechanism produced the incumbent.
    pub incumbent_source: IncumbentSource,
    /// Outcome of warm-start validation.
    pub warm_start: WarmStartStatus,
    /// Whether the independent post-solve certifier accepted the solution.
    pub certified: bool,
    /// Every incumbent improvement (time from solve start, objective,
    /// source) in admission order.
    pub improvements: Vec<IncumbentEvent>,
    /// Worker threads that explored the branch-and-bound tree.
    pub jobs: usize,
    /// Per-phase root breakdown: model build, presolve, first
    /// factorization, root LP, and cut separation.
    pub root: RootProfile,
}

impl From<&Solution> for SolveStats {
    fn from(s: &Solution) -> SolveStats {
        SolveStats {
            wall_time: s.wall_time(),
            nodes: s.nodes(),
            nodes_pruned: s.nodes_pruned(),
            nodes_branched: s.nodes_branched(),
            lp_iterations: s.lp_iterations(),
            lp_warm_attempts: s.lp_warm_attempts(),
            lp_warm_hits: s.lp_warm_hits(),
            lp_refactors: s.lp_refactors(),
            lp_ftran: s.lp_ftran(),
            lp_ftran_hyper: s.lp_ftran_hyper(),
            lp_btran: s.lp_btran(),
            lp_btran_hyper: s.lp_btran_hyper(),
            proven_optimal: s.is_optimal(),
            gap: s.gap(),
            incumbent_source: s.incumbent_source(),
            warm_start: s.warm_start().clone(),
            certified: s.certificate().is_some(),
            improvements: s.incumbent_timeline().to_vec(),
            jobs: s.jobs(),
            root: s.root_profile(),
        }
    }
}

impl SolveStats {
    /// Average simplex pivots per branch-and-bound node.
    pub fn pivots_per_node(&self) -> f64 {
        self.lp_iterations as f64 / self.nodes.max(1) as f64
    }

    /// Fraction of warm-restart attempts that avoided a from-scratch
    /// primal solve (0.0 when no attempt was made).
    pub fn warm_hit_rate(&self) -> f64 {
        if self.lp_warm_attempts == 0 {
            0.0
        } else {
            self.lp_warm_hits as f64 / self.lp_warm_attempts as f64
        }
    }

    /// Fraction of FTRAN/BTRAN applications that ran on the hypersparse
    /// kernel path (0.0 when no transformations were recorded).
    pub fn hyper_rate(&self) -> f64 {
        let total = self.lp_ftran + self.lp_btran;
        if total == 0 {
            0.0
        } else {
            (self.lp_ftran_hyper + self.lp_btran_hyper) as f64 / total as f64
        }
    }
}

impl fmt::Display for SolveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in {:.1?}: {} nodes ({} pruned, {} branched), {} LP iterations \
             ({:.1}/node, warm {}/{}, {} refactors), gap {:.2}%, \
             {} incumbent improvement(s), incumbent from {}, warm start {}, {}, jobs {}",
            if self.proven_optimal {
                "optimal"
            } else {
                "feasible"
            },
            self.wall_time,
            self.nodes,
            self.nodes_pruned,
            self.nodes_branched,
            self.lp_iterations,
            self.pivots_per_node(),
            self.lp_warm_hits,
            self.lp_warm_attempts,
            self.lp_refactors,
            100.0 * self.gap,
            self.improvements.len(),
            self.incumbent_source,
            self.warm_start,
            if self.certified {
                "certified"
            } else {
                "uncertified"
            },
            self.jobs,
        )
    }
}

/// A complete jointly-optimized design decision.
#[derive(Debug, Clone)]
pub struct GlobalSolution {
    /// The compressor-tree schedule.
    pub schedule: CompressionSchedule,
    /// Its output BCV (heights all 1 or 2).
    pub vs: Bcv,
    /// The full-width optimal prefix tree for `vs`.
    pub tree: PrefixTree,
    /// CT cost `α·F + β·H`.
    pub ct_cost: f64,
    /// Full-width prefix cost `A + w·D` (paper Table I units).
    pub prefix_cost: f64,
    /// Combined objective `ct_cost + prefix_cost`.
    pub objective: f64,
    /// Which optimizer produced it (a [`Rung::label`]).
    pub strategy: &'static str,
    /// Branch-and-bound statistics of the joint ILP, whenever the ladder
    /// ran that rung to a solution — also when another rung's design won,
    /// so the work the ILP spent is always counted. The gap and the
    /// incumbent timeline then describe the joint ILP's own incumbent, not
    /// the returned design. `None` when the joint ILP was skipped or
    /// failed, and for solutions of [`target_search`].
    pub solver_stats: Option<SolveStats>,
    /// How the degradation ladder got here. Empty (no attempts) for
    /// solutions produced by calling a single strategy directly.
    pub degradation: DegradationReport,
    /// Equivalence verdict of the realized netlist. Stamped by the build
    /// pipeline after realization (`crates/core::build_gomil`); fresh
    /// solutions straight out of the optimizer carry a `Skipped`
    /// placeholder because there is no netlist to check yet.
    pub verdict: EquivVerdict,
    /// Wall-clock spent rendering [`verdict`](Self::verdict).
    pub verify_time: Duration,
}

/// A completed solve's incumbent profile, offered to a *neighboring*
/// solve (same width with another PPG, or an adjacent width) as a warm
/// start.
///
/// What transfers between neighbors is not the raw ILP assignment — the
/// variable spaces differ — but the final-height profile `V_s`: the
/// steered schedule generator re-derives a feasible schedule toward the
/// donor's profile in the recipient's geometry, and that schedule seeds
/// both the joint ILP (via the certified warm-start path, so a bad hint
/// is rejected with the violated constraint named, never trusted) and the
/// target-search hill-climb. Hints only ever change how fast the
/// optimizer closes, not which solutions are feasible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmStartHint {
    /// Donor final-height column counts (LSB first, entries 1 or 2).
    pub counts: Vec<u32>,
}

impl WarmStartHint {
    /// Extracts the hint a finished solution donates.
    pub fn from_solution(sol: &GlobalSolution) -> WarmStartHint {
        WarmStartHint {
            counts: sol.vs.counts().to_vec(),
        }
    }

    /// Adapts the donor profile to a recipient with `n` columns: clamps
    /// entries into the valid final-height range `1..=2` and pads or
    /// truncates to `n` (new columns default to height 2, the cheaper
    /// target for the CT side).
    pub fn adapted(&self, n: usize) -> Vec<u32> {
        let mut t: Vec<u32> = self.counts.iter().map(|&c| c.clamp(1, 2)).collect();
        t.resize(n, 2);
        t
    }
}

/// Scores a schedule + BCV pair under the global objective (full-width
/// prefix cost), also returning the tree.
fn score(vs: &Bcv, schedule: &CompressionSchedule, cfg: &GomilConfig) -> (f64, f64, PrefixTree) {
    let ct = schedule.cost(cfg.alpha, cfg.beta);
    let b = leaf_types(vs.counts());
    let sol = optimize_prefix_tree(&b, cfg.w);
    (ct, sol.cost, sol.tree)
}

fn solution_from(
    vs: Bcv,
    schedule: CompressionSchedule,
    cfg: &GomilConfig,
    strategy: &'static str,
) -> GlobalSolution {
    let (ct_cost, prefix_cost, tree) = score(&vs, &schedule, cfg);
    GlobalSolution {
        schedule,
        vs,
        tree,
        ct_cost,
        prefix_cost,
        objective: ct_cost + prefix_cost,
        strategy,
        solver_stats: None,
        degradation: DegradationReport::default(),
        verdict: unverified(),
        verify_time: Duration::ZERO,
    }
}

/// The placeholder verdict for solutions whose netlist does not exist yet.
pub(crate) fn unverified() -> EquivVerdict {
    EquivVerdict::Skipped {
        reason: "netlist not yet realized".into(),
    }
}

/// A scored target-search candidate. Its prefix tree stays in the
/// [`PrefixMemo`] until the search has picked its winner.
struct Candidate {
    schedule: CompressionSchedule,
    vs: Bcv,
    ct_cost: f64,
    prefix_cost: f64,
    objective: f64,
}

/// The prefix side of one target search: the full-width DP's cost and tree
/// per leaf-type vector.
///
/// Besides `cfg.w`, the leaf types are the only input the DP reads, and the
/// DP is deterministic, so a hit yields exactly the floats and tree a fresh
/// run would: the memo changes no comparison and no design. What it
/// changes is speed: the climb scores up to n candidates per round, they
/// reach only a handful of distinct profiles, and each miss is an `O(n³)`
/// DP.
struct PrefixMemo<'a> {
    cfg: &'a GomilConfig,
    budget: &'a Budget,
    solved: HashMap<Vec<bool>, (f64, PrefixTree)>,
}

impl PrefixMemo<'_> {
    /// Scores a candidate. Only a miss runs the DP, which aborts when the
    /// budget expires; a hit cannot fail.
    fn score(
        &mut self,
        schedule: CompressionSchedule,
        vs: Bcv,
    ) -> Result<Candidate, BudgetExceeded> {
        let b = leaf_types(vs.counts());
        let prefix_cost = match self.solved.get(&b) {
            Some(&(cost, _)) => cost,
            None => {
                let t = dp_tables_budgeted(&b, self.cfg.w, None, self.budget)?;
                let n = b.len();
                let (area, delay) = t.area_delay(n - 1, 0);
                let cost = area + self.cfg.w * delay;
                self.solved.insert(b, (cost, t.tree(n - 1, 0)));
                cost
            }
        };
        let ct_cost = schedule.cost(self.cfg.alpha, self.cfg.beta);
        Ok(Candidate {
            schedule,
            vs,
            ct_cost,
            prefix_cost,
            objective: ct_cost + prefix_cost,
        })
    }

    /// The search's answer: `best` with its memoized tree.
    fn into_solution(mut self, best: Candidate) -> GlobalSolution {
        let (_, tree) = self
            .solved
            .remove(&leaf_types(best.vs.counts()))
            .expect("every candidate is scored through the memo");
        GlobalSolution {
            schedule: best.schedule,
            vs: best.vs,
            tree,
            ct_cost: best.ct_cost,
            prefix_cost: best.prefix_cost,
            objective: best.objective,
            strategy: "target-search",
            solver_stats: None,
            degradation: DegradationReport::default(),
            verdict: unverified(),
            verify_time: Duration::ZERO,
        }
    }
}

/// Joint optimization by hill-climbing over final-height target profiles.
///
/// Starts from Dadda's natural output profile; at each round tries
/// flipping every column's target (1 ↔ 2), keeping the first strict
/// improvement of the exact global objective. Deterministic.
pub fn target_search(v0: &Bcv, cfg: &GomilConfig) -> GlobalSolution {
    target_search_hinted(v0, cfg, &Budget::unlimited(), None)
        .expect("unlimited budget cannot expire")
}

/// [`target_search`] under a shared wall-clock budget, optionally seeded
/// with a neighboring solve's incumbent profile.
///
/// The hill-climb checks the budget before each candidate and returns the
/// best solution found so far once it expires. The hint is scored as an
/// extra starting candidate and, when it wins, the hill-climb continues
/// from the donor's profile instead of Dadda's — typically saving the
/// early rounds of the climb.
///
/// # Errors
///
/// [`BudgetExceeded`] only if the budget died before even the Dadda seed
/// could be scored — in that case there is no solution to degrade to at
/// this rung (the ladder's final rung ignores budgets instead). Hints
/// never make failure more likely.
pub fn target_search_hinted(
    v0: &Bcv,
    cfg: &GomilConfig,
    budget: &Budget,
    hint: Option<&WarmStartHint>,
) -> Result<GlobalSolution, BudgetExceeded> {
    // Strict (Eq. 4) when possible; otherwise the modular rule (leftmost
    // compressors allowed, width may grow — sound for full-product-width
    // matrices; see `schedule_toward_target_modular`).
    let (s, modular) = match try_required_stages(v0) {
        Some(s) => (s, false),
        None => (required_stages_modular(v0), true),
    };
    let steer = |target: &[u32]| {
        if modular {
            schedule_toward_target_modular(v0, s, target)
        } else {
            schedule_toward_target(v0, s, target)
        }
    };

    let mut memo = PrefixMemo {
        cfg,
        budget,
        solved: HashMap::new(),
    };

    // Seed: plain Dadda (always feasible) — its own achieved profile.
    let dadda = dadda_schedule(v0);
    let dadda_vs = dadda.final_bcv(v0).expect("dadda is valid");
    let mut target: Vec<u32> = dadda_vs.counts().to_vec();
    let mut best = memo.score(dadda, dadda_vs)?;

    // Also try the steered generator on the seed profile (it may already
    // differ from plain Dadda by preferring cheap columns).
    if budget.check().is_ok() {
        if let Some((sched, vs)) = steer(&target) {
            if let Ok(cand) = memo.score(sched, vs) {
                if cand.objective < best.objective {
                    best = cand;
                }
            }
        }
    }

    // A donated neighbor profile competes as a third seed; when it wins,
    // the climb continues from the donor's profile.
    if let Some(h) = hint {
        if budget.check().is_ok() {
            let ht = h.adapted(target.len());
            if let Some((sched, vs)) = steer(&ht) {
                if let Ok(cand) = memo.score(sched, vs) {
                    if cand.objective < best.objective {
                        best = cand;
                        target = ht;
                    }
                }
            }
        }
    }

    let n = v0.len();
    let max_rounds = 2 * n + 10;
    'climb: for _round in 0..max_rounds {
        let mut improved = false;
        for j in 0..n {
            if budget.exhausted() {
                break 'climb;
            }
            let old = target[j];
            target[j] = if old == 1 { 2 } else { 1 };
            if let Some((sched, vs)) = steer(&target) {
                match memo.score(sched, vs) {
                    Ok(cand) if cand.objective < best.objective - 1e-9 => {
                        best = cand;
                        improved = true;
                        continue; // keep the flip
                    }
                    Err(_) => {
                        // Budget died scoring this candidate: keep the
                        // incumbent and stop climbing.
                        target[j] = old;
                        break 'climb;
                    }
                    Ok(_) => {}
                }
            }
            target[j] = old; // revert
        }
        if !improved {
            break;
        }
    }
    Ok(memo.into_solution(best))
}

/// The paper's joint ILP (Eq. 27 with the `L` truncation), warm-started
/// from Dadda + DP and solved under `cfg.solver_budget`. The post-pass
/// reuses the full-width DP on the resulting `V_s`, as Section III-C
/// prescribes.
///
/// # Errors
///
/// Propagates solver failures. Warm starting makes `Limit` without an
/// incumbent impossible for valid inputs.
pub fn joint_ilp(v0: &Bcv, cfg: &GomilConfig) -> Result<GlobalSolution, SolveError> {
    joint_ilp_hinted(v0, cfg, &Budget::unlimited(), None)
}

/// [`joint_ilp`] under a shared wall-clock budget, with an optional
/// neighbor incumbent hand-off.
///
/// Branch and bound respects the *earlier* of `cfg.solver_budget` and the
/// budget's deadline, and reacts to cooperative cancellation. The donated
/// profile is steered into a feasible schedule for *this* geometry and
/// offered to branch and bound alongside the Dadda seed via the certified
/// warm-start path ([`BranchConfig::extra_starts`]) — the certifier
/// validates every candidate, so a stale or mismatched hint is dropped,
/// never trusted.
///
/// # Errors
///
/// Propagates solver failures; budget expiry without an incumbent
/// surfaces as [`SolveError::Limit`].
pub fn joint_ilp_hinted(
    v0: &Bcv,
    cfg: &GomilConfig,
    budget: &Budget,
    hint: Option<&WarmStartHint>,
) -> Result<GlobalSolution, SolveError> {
    let t_build = std::time::Instant::now();
    let jm = build_joint_model(v0, cfg, hint)?;
    let build_time = t_build.elapsed();
    let mut seeds = jm.seeds.into_iter();
    let initial = seeds.next();

    let branch = BranchConfig {
        budget: budget.clone(),
        initial,
        extra_starts: seeds.collect(),
        ..cfg.branch_config()
    };
    let mut sol = jm.model.solve_with(&branch)?;
    sol.set_build_time(build_time);
    let schedule = jm.ct.extract_schedule(sol.values());
    let vs = schedule.final_bcv(v0).expect("solver output is feasible");
    let mut out = solution_from(vs, schedule, cfg, "joint-ilp");
    out.solver_stats = Some(SolveStats::from(&sol));
    Ok(out)
}

/// The assembled joint CT + prefix ILP (Eq. 27) together with its
/// warm-start seeds and the CT formulation needed to decode a solution.
///
/// Produced by [`build_joint_model`]; [`joint_ilp_hinted`] is the normal
/// consumer, but benchmarks and tests use it to drive
/// [`Model::solve_with`] directly (e.g. to compare solver configurations
/// on the identical model).
pub struct JointModel {
    /// The ILP over CT and prefix variables with the Eq. 27 objective.
    pub model: Model,
    /// Warm-start candidate assignments, best-guess first (each a full
    /// model-space vector suitable for [`BranchConfig::initial`] /
    /// [`BranchConfig::extra_starts`]).
    pub seeds: Vec<Vec<f64>>,
    /// The CT formulation, for [`CtIlp::extract_schedule`] on a solution.
    pub ct: CtIlp,
}

/// Assembles the paper's joint ILP (Eq. 27 with the `L` truncation) for
/// `v0`, including warm-start seeds (donated hint first when steerable,
/// then Dadda, then an all-2 steered profile as a last resort).
///
/// # Errors
///
/// [`SolveError::Infeasible`] when the profile has no leftmost-free
/// reduction (Eq. 4), in which case the formulation is undefined.
pub fn build_joint_model(
    v0: &Bcv,
    cfg: &GomilConfig,
    hint: Option<&WarmStartHint>,
) -> Result<JointModel, SolveError> {
    let n = v0.len();
    // The paper's formulation needs a leftmost-free reduction to exist
    // (Eq. 4); profiles without one go to the modular target search.
    let Some(stages) = try_required_stages(v0) else {
        return Err(SolveError::Infeasible);
    };
    let ct = CtIlp::build_with_stages(v0, stages.max(1), cfg);
    let mut model = ct.model.clone();

    // Final heights must be 1 or 2 so that Eq. (18) is well defined.
    let s = ct.stages;
    for j in 0..n {
        model.set_var_bounds(ct.vs[s - 1][j], 1.0, 2.0);
    }

    // b_{i:i} = V_s[i] − 1 (Eq. 18).
    let mut leaves = Vec::with_capacity(n);
    for i in 0..n {
        let b = model.add_binary(format!("bleaf_{i}"));
        model.add_eq(
            format!("leaf_tie_{i}"),
            LinExpr::from(b),
            LinExpr::from(ct.vs[s - 1][i]) - 1.0,
        );
        leaves.push(LeafB::Var(b));
    }

    let pv = add_prefix_constraints(&mut model, &leaves, cfg.w, cfg.l);

    // Eq. (27): α·F + β·H + c_{L−1:0}.
    let objective = ct.objective.clone() + pv.root_cost.clone();
    model.set_objective(objective, Sense::Minimize);

    // Completes a CT-side warm start into full model space: leaf binaries
    // from the profile, prefix variables from the DP.
    let complete_seed = |mut values: Vec<f64>, vs: &Bcv| -> Vec<f64> {
        values.resize(model.num_vars(), 0.0);
        let leaf_vals: Vec<bool> = vs.iter().map(|c| c == 2).collect();
        for (i, lb) in leaves.iter().enumerate() {
            if let LeafB::Var(v) = lb {
                values[v.index()] = if leaf_vals[i] { 1.0 } else { 0.0 };
            }
        }
        pv.warm_start_into(&mut values, &leaf_vals);
        values
    };

    // Warm-start candidates, best-guess first: the donated neighbor
    // profile (when present and steerable), then Dadda, then — only if
    // both failed — the all-2 steered profile. The first becomes the
    // validated `initial`; the rest ride along as handed-off incumbents.
    let mut seeds: Vec<Vec<f64>> = Vec::new();
    if let Some(h) = hint {
        if let Some((sched, vs)) = schedule_toward_target(v0, ct.stages, &h.adapted(n)) {
            if let Some(values) = ct.warm_start(&sched) {
                seeds.push(complete_seed(values, &vs));
            }
        }
    }
    let dadda = dadda_schedule(v0);
    if let Some(values) = ct.warm_start(&dadda) {
        let vs = dadda.final_bcv(v0).expect("dadda is valid");
        seeds.push(complete_seed(values, &vs));
    }
    if seeds.is_empty() {
        let all2 = vec![2u32; n];
        if let Some((sched, vs)) = schedule_toward_target(v0, ct.stages, &all2) {
            if let Some(values) = ct.warm_start(&sched) {
                seeds.push(complete_seed(values, &vs));
            }
        }
    }
    Ok(JointModel { model, seeds, ct })
}

/// Runs the degradation ladder under the budget of
/// [`GomilConfig::pipeline_budget`] (unlimited when `None`), without a
/// warm-start hint: exactly [`optimize_global_hinted`] with that budget and
/// no hint.
///
/// # Errors
///
/// Only if every rung — including the unconditional Dadda fallback —
/// failed, which indicates an internal bug rather than a hard instance.
pub fn optimize_global(v0: &Bcv, cfg: &GomilConfig) -> Result<GlobalSolution, GomilError> {
    optimize_global_hinted(v0, cfg, &pipeline_budget(cfg), None)
}

/// The degradation ladder under an explicit shared budget: joint ILP →
/// target search → plain Dadda + optimal prefix. A neighbor incumbent
/// hand-off, when given, seeds both the joint ILP's warm starts and the
/// target search (see [`WarmStartHint`]); the serving layer uses it to
/// accelerate queued neighbor requests, and `None` is exactly the
/// unhinted ladder.
///
/// Rules of the ladder:
///
/// * the joint ILP only runs for ≤ 16 columns (its size grows as
///   `Θ(n·L²)`; past that a dense-tableau B&B stops being productive
///   within sane budgets — this mirrors the paper's own scalability
///   concession, the `L` truncation and runtime cap), and under a
///   deadline it gets half of the time that remains;
/// * the target search always runs while budget remains, and the best
///   objective across successful rungs wins;
/// * the final Dadda rung runs only when nothing else succeeded and is
///   never budget-checked, so a solution always comes back;
/// * every rung executes inside a panic guard — a crashing rung is
///   recorded as [`RungFailure::Panic`] and the ladder continues.
///
/// The returned solution carries the full [`DegradationReport`], and the
/// joint ILP's [`SolveStats`] whenever that rung ran, whichever rung won.
///
/// # Errors
///
/// Only if every rung failed (an internal bug by construction).
pub fn optimize_global_hinted(
    v0: &Bcv,
    cfg: &GomilConfig,
    budget: &Budget,
    hint: Option<&WarmStartHint>,
) -> Result<GlobalSolution, GomilError> {
    let mut ladder = Ladder::new(budget);

    // Rung 1: the paper's joint ILP.
    let skip = if v0.len() > 16 {
        Some(format!(
            "{} columns exceed the joint ILP's practical size (16)",
            v0.len()
        ))
    } else if try_required_stages(v0).is_none() {
        Some("profile has no leftmost-free reduction (Eq. 4)".to_string())
    } else {
        None
    };
    // Under a deadline the joint ILP gets half of what remains, so target
    // search keeps the other half; the cancel flag stays shared.
    let ilp_budget = match budget.remaining() {
        Some(left) => budget.child_with_limit(left / 2),
        None => budget.clone(),
    };
    ladder.step(Rung::JointIlp, skip, || {
        joint_ilp_hinted(v0, cfg, &ilp_budget, hint).map_err(RungFailure::Solve)
    });
    // An ILP stopped by its half was shaped by the deadline.
    ladder.budget_hit |= ilp_budget.exhausted();

    // Rung 2: the target search — always competitive, scores the full
    // prefix cost, and its result is kept when it beats the ILP.
    ladder.step(Rung::TargetSearch, None, || {
        target_search_hinted(v0, cfg, budget, hint).map_err(RungFailure::Budget)
    });

    ladder.finish(v0, cfg)
}

/// The ladder's running record: every attempt so far, the best solution
/// with its rung, the statistics of the ILP rung once it has run, and
/// whether a rung's slice of the budget ran out.
struct Ladder<'a> {
    budget: &'a Budget,
    attempts: Vec<RungAttempt>,
    best: Option<(Rung, GlobalSolution)>,
    stats: Option<SolveStats>,
    budget_hit: bool,
}

impl<'a> Ladder<'a> {
    fn new(budget: &'a Budget) -> Ladder<'a> {
        Ladder {
            budget,
            attempts: Vec::new(),
            best: None,
            stats: None,
            budget_hit: false,
        }
    }

    /// Gives `rung` its turn, the one step every rung takes. A rung with a
    /// `skip` reason does not run, and neither does any rung but the last
    /// resort once the budget is spent. Otherwise `solve` runs inside a
    /// panic guard, so a crashing rung is recorded as
    /// [`RungFailure::Panic`] and the ladder moves on. A success becomes
    /// the best solution only with a strictly lower objective (ties keep
    /// the earlier rung), and its solver statistics are kept whichever
    /// rung wins.
    fn step(
        &mut self,
        rung: Rung,
        skip: Option<String>,
        solve: impl FnOnce() -> Result<GlobalSolution, RungFailure>,
    ) {
        let skip = skip.or_else(|| {
            let spent = self
                .budget
                .check()
                .err()
                .filter(|_| rung != Rung::DaddaPrefix)?;
            Some(format!("budget already exhausted: {spent}"))
        });
        let outcome = match skip {
            Some(why) => RungOutcome::Skipped(why),
            None => match catch_unwind(AssertUnwindSafe(solve)) {
                Ok(Ok(mut sol)) => {
                    if let Some(stats) = sol.solver_stats.take() {
                        self.stats = Some(stats);
                    }
                    let objective = sol.objective;
                    if self
                        .best
                        .as_ref()
                        .is_none_or(|(_, best)| objective < best.objective - 1e-9)
                    {
                        self.best = Some((rung, sol));
                    }
                    RungOutcome::Succeeded { objective }
                }
                Ok(Err(why)) => RungOutcome::Failed(why),
                Err(payload) => RungOutcome::Failed(RungFailure::Panic(panic_message(payload))),
            },
        };
        self.attempts.push(RungAttempt { rung, outcome });
    }

    /// Takes the last rung — plain Dadda + optimal prefix, run only when no
    /// rung succeeded and never budget-checked, so *something* always
    /// comes back — and returns the best solution with the ladder's report
    /// and the kept solver statistics.
    fn finish(mut self, v0: &Bcv, cfg: &GomilConfig) -> Result<GlobalSolution, GomilError> {
        let skip = self
            .best
            .is_some()
            .then(|| "an earlier rung already succeeded".to_string());
        self.step(Rung::DaddaPrefix, skip, || {
            let dadda = dadda_schedule(v0);
            let vs = dadda
                .final_bcv(v0)
                .map_err(|e| RungFailure::Solve(SolveError::Numerical(e.to_string())))?;
            Ok(solution_from(vs, dadda, cfg, "dadda-prefix"))
        });
        let report = DegradationReport {
            winner: self.best.as_ref().map(|(rung, _)| *rung),
            attempts: self.attempts,
            budget_exhausted: self.budget_hit || self.budget.check().is_err(),
        };
        match self.best {
            Some((_, mut sol)) => {
                sol.solver_stats = self.stats;
                sol.degradation = report;
                Ok(sol)
            }
            None => Err(GomilError::Solve(SolveError::Numerical(format!(
                "every degradation rung failed: {report}"
            )))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomil_arith::min_stages;

    fn cfg() -> GomilConfig {
        GomilConfig::fast()
    }

    #[test]
    fn target_search_produces_valid_reduced_schedules() {
        for m in [4usize, 6, 8, 16] {
            let v0 = Bcv::and_ppg(m);
            let sol = target_search(&v0, &cfg());
            let fin = sol.schedule.final_bcv(&v0).unwrap();
            assert!(fin.is_reduced(), "m={m}");
            assert_eq!(fin, sol.vs, "m={m}");
            assert_eq!(
                sol.schedule.num_stages() as u32,
                min_stages(m as u32),
                "m={m}: stage count must stay minimal"
            );
            assert!(!sol.schedule.uses_leftmost_column(&v0), "m={m}");
        }
    }

    #[test]
    fn global_objective_never_worse_than_plain_dadda_plus_dp() {
        for m in [4usize, 6, 8, 12, 16, 32] {
            let v0 = Bcv::and_ppg(m);
            let dadda = dadda_schedule(&v0);
            let vs = dadda.final_bcv(&v0).unwrap();
            let (ct, pf, _) = score(&vs, &dadda, &cfg());
            let sol = target_search(&v0, &cfg());
            assert!(
                sol.objective <= ct + pf + 1e-9,
                "m={m}: search {} vs dadda {}",
                sol.objective,
                ct + pf
            );
        }
    }

    #[test]
    fn joint_ilp_runs_on_small_multipliers() {
        let v0 = Bcv::and_ppg(4);
        let sol = joint_ilp(&v0, &cfg()).unwrap();
        let fin = sol.schedule.final_bcv(&v0).unwrap();
        assert!(fin.is_reduced());
        assert!(fin.iter().all(|c| (1..=2).contains(&c)));
        assert_eq!(sol.tree.span(), (v0.len() - 1, 0));
        // ILP rungs surface their branch-and-bound statistics.
        let stats = sol.solver_stats.expect("joint ILP records stats");
        assert!(stats.certified, "solutions are auto-certified");
        assert!(stats.nodes >= 1);
    }

    #[test]
    fn optimize_global_picks_the_better_strategy() {
        let v0 = Bcv::and_ppg(4);
        let both = optimize_global(&v0, &cfg()).unwrap();
        let searched = target_search(&v0, &cfg());
        assert!(both.objective <= searched.objective + 1e-9);
        // The winning rung is recorded and matches the strategy string.
        let winner = both.degradation.winner.expect("ladder picked a winner");
        assert_eq!(winner.label(), both.strategy);
        assert!(!both.degradation.degraded(), "no rung should have failed");
    }

    #[test]
    fn ladder_reports_every_rung() {
        let v0 = Bcv::and_ppg(4);
        let sol = optimize_global(&v0, &cfg()).unwrap();
        let rungs: Vec<Rung> = sol.degradation.attempts.iter().map(|a| a.rung).collect();
        assert_eq!(
            rungs,
            vec![Rung::JointIlp, Rung::TargetSearch, Rung::DaddaPrefix]
        );
        // The display renders without panicking and names the winner.
        let text = sol.degradation.to_string();
        assert!(text.contains("winner"), "{text}");
    }

    #[test]
    fn dead_budget_still_returns_a_verified_fallback() {
        let v0 = Bcv::and_ppg(8);
        let dead = Budget::with_limit(Duration::ZERO);
        let sol = optimize_global_hinted(&v0, &cfg(), &dead, None).unwrap();
        // Everything except the unconditional Dadda rung was skipped or
        // failed on budget, so Dadda must have won.
        assert_eq!(sol.degradation.winner, Some(Rung::DaddaPrefix));
        assert_eq!(sol.strategy, "dadda-prefix");
        let fin = sol.schedule.final_bcv(&v0).unwrap();
        assert!(fin.is_reduced());
    }

    #[test]
    fn cancellation_degrades_to_dadda() {
        let v0 = Bcv::and_ppg(6);
        let b = Budget::unlimited();
        b.cancel();
        let sol = optimize_global_hinted(&v0, &cfg(), &b, None).unwrap();
        assert_eq!(sol.degradation.winner, Some(Rung::DaddaPrefix));
        let text = sol.degradation.to_string();
        assert!(text.contains("cancelled"), "{text}");
    }

    #[test]
    fn budgeted_search_matches_unbudgeted_when_unconstrained() {
        let v0 = Bcv::and_ppg(8);
        let free = target_search(&v0, &cfg());
        let hour = Budget::with_limit(Duration::from_secs(3_600));
        let budgeted = target_search_hinted(&v0, &cfg(), &hour, None).unwrap();
        assert_eq!(free.objective, budgeted.objective);
    }

    #[test]
    fn the_rung_step_contains_panics_errors_and_dead_budgets() {
        let v0 = Bcv::and_ppg(4);
        let live = Budget::unlimited();
        let mut ladder = Ladder::new(&live);
        ladder.step(Rung::JointIlp, None, || panic!("injected rung crash"));
        ladder.step(Rung::TargetSearch, None, || {
            Err(RungFailure::Solve(SolveError::Infeasible))
        });
        let sol = ladder.finish(&v0, &cfg()).unwrap();
        let outcomes: Vec<&RungOutcome> = sol
            .degradation
            .attempts
            .iter()
            .map(|a| &a.outcome)
            .collect();
        assert!(
            matches!(outcomes[0], RungOutcome::Failed(RungFailure::Panic(msg)) if msg == "injected rung crash"),
            "{}",
            sol.degradation
        );
        assert_eq!(
            outcomes[1],
            &RungOutcome::Failed(RungFailure::Solve(SolveError::Infeasible))
        );
        assert_eq!(sol.degradation.winner, Some(Rung::DaddaPrefix));
        assert!(sol.degradation.degraded());
        assert!(sol.schedule.final_bcv(&v0).unwrap().is_reduced());

        let dead = Budget::with_limit(Duration::ZERO);
        let mut ladder = Ladder::new(&dead);
        ladder.step(Rung::JointIlp, None, || {
            unreachable!("a dead budget skips the rung")
        });
        let sol = ladder.finish(&v0, &cfg()).unwrap();
        assert!(
            matches!(&sol.degradation.attempts[0].outcome,
                RungOutcome::Skipped(why) if why.starts_with("budget already exhausted")),
            "{}",
            sol.degradation
        );
        assert_eq!(sol.degradation.winner, Some(Rung::DaddaPrefix));
        assert!(sol.degradation.budget_limited());
    }

    #[test]
    fn the_joint_ilp_stats_survive_a_target_search_win() {
        // At (6, AND) target search (174) beats the joint ILP's design even
        // under the default 10-s solver budget, let alone a short one; the
        // ILP's work still counts. The budget leaves a debug build time for
        // presolve and a few hundred root-LP pivots.
        let v0 = Bcv::and_ppg(6);
        let short = GomilConfig {
            solver_budget: Duration::from_secs(2),
            ..cfg()
        };
        let sol = optimize_global(&v0, &short).unwrap();
        assert_eq!(sol.degradation.winner, Some(Rung::TargetSearch));
        assert!(matches!(
            sol.degradation.attempts[0].outcome,
            RungOutcome::Succeeded { .. }
        ));
        let stats = sol.solver_stats.expect("the joint ILP ran");
        assert!(stats.lp_iterations > 0, "{stats}");
    }

    #[test]
    fn schedule_toward_target_hits_achievable_ones() {
        // m=4: ask for height 1 at a high column where it is achievable.
        let v0 = Bcv::and_ppg(4);
        let s = min_stages(4) as usize;
        let mut target = vec![2u32; 7];
        target[6] = 1;
        target[0] = 1; // column 0 starts at height 1
        if let Some((sched, vs)) = schedule_toward_target(&v0, s, &target) {
            assert!(vs.is_reduced());
            assert_eq!(vs[0], 1);
            let replay = sched.final_bcv(&v0).unwrap();
            assert_eq!(replay, vs);
        } else {
            panic!("target should be feasible for m=4");
        }
    }

    #[test]
    fn booth_style_bcv_supported_by_search() {
        let v0 = Bcv::new(vec![3, 1, 4, 3, 5, 4, 4, 3, 3, 2, 1, 1]);
        let sol = target_search(&v0, &cfg());
        assert!(sol.vs.is_reduced());
        assert!(sol.vs.iter().all(|c| c >= 1));
    }
}
