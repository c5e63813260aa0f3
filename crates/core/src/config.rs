//! GOMIL configuration.

use gomil_ilp::{CutMode, Pricing};
use gomil_netlist::VerifyMode;
use gomil_prefix::SelectStyle;
use std::time::Duration;

/// Parameters of the GOMIL optimization (Section IV of the paper).
#[derive(Debug, Clone)]
pub struct GomilConfig {
    /// Delay weight `w` in the prefix objective `C = A + w·D`; the paper
    /// uses 8.
    pub w: f64,
    /// Interval-length bound `L` of the truncated global ILP; the paper
    /// uses 10.
    pub l: usize,
    /// Area of a 3:2 compressor in the CT objective (`α = 3` per NanGate).
    pub alpha: f64,
    /// Area of a 2:2 compressor in the CT objective (`β = 2` per NanGate).
    pub beta: f64,
    /// Wall-clock budget for each ILP solve. The paper bounds Gurobi at
    /// `3600 + L³` seconds; this reproduction scales that down so the full
    /// benchmark suite runs on a laptop.
    pub solver_budget: Duration,
    /// End-to-end wall-clock budget for one pipeline run
    /// ([`build_gomil`](crate::build_gomil) and friends). `None` (the
    /// default) means "each ILP solve keeps its own `solver_budget` and
    /// nothing else is bounded". When set, a single deadline is threaded
    /// through every optimizer stage — the joint ILP, the target-search
    /// hill-climb and the prefix DPs — and expiry degrades the run down
    /// the fallback ladder rather than failing it (the final Dadda rung is
    /// never budget-checked, so a verified multiplier always comes back).
    pub pipeline_budget: Option<Duration>,
    /// Carry-select block style of the final CPA; the paper replaces CSL
    /// with CSSA when a long block dominates delay.
    pub select_style: SelectStyle,
    /// Random vectors used by the power model.
    pub power_vectors: usize,
    /// Re-optimize the realized prefix tree with the compressor tree's
    /// actual per-column arrival times (an extension over the paper, whose
    /// Eq. 14 assumes all CPA inputs arrive at time 0). Costs one extra
    /// `O(n³)` DP; set to `false` for the paper-faithful structure.
    pub arrival_aware: bool,
    /// Workers for each branch-and-bound solve (CLI `--solver-jobs`): the
    /// calling thread plus `solver_jobs − 1` spawned threads. `1` (the
    /// default) spawns no thread and searches deterministically. Like the
    /// budgets this is a latency knob, not a result knob — any worker
    /// count proves the same optima — so it is excluded from
    /// [`solve_fingerprint`](Self::solve_fingerprint).
    pub solver_jobs: usize,
    /// Simplex pricing rule for every branch-and-bound LP (CLI
    /// `--pricing {dantzig,devex}`). Like `solver_jobs` this is a latency
    /// knob, not a result knob — both rules prove the same optima — so it
    /// is excluded from [`solve_fingerprint`](Self::solve_fingerprint).
    pub pricing: Pricing,
    /// Root cut separation (CLI `--cuts {off,root}`). Gomory and cover
    /// cuts only tighten the LP relaxation; certified objectives are
    /// identical either way, so this too stays out of
    /// [`solve_fingerprint`](Self::solve_fingerprint).
    pub cuts: CutMode,
    /// Geometric-mean power-of-two row equilibration of every LP basis
    /// matrix before the solve (CLI `--scaling {on,off}`). An exact
    /// reformulation — scaled and unscaled solves certify the same
    /// objectives — so like `pricing` it is a latency knob excluded from
    /// [`solve_fingerprint`](Self::solve_fingerprint).
    pub scaling: bool,
    /// LP reduction presolve (CLI `--reduce {on,off}`): empty/singleton/
    /// duplicate-row elimination and fixed-column substitution with full
    /// postsolve, applied per LP relaxation. Also an exact reformulation
    /// and hence a latency knob outside the fingerprint.
    pub reduce: bool,
    /// Equivalence-verification effort (CLI `--verify {off,fast,strict}`).
    /// Every emitted design carries the resulting
    /// [`EquivVerdict`](gomil_netlist::EquivVerdict); a `Failed` verdict
    /// aborts the build with [`GomilError::Verification`](crate::GomilError).
    /// Unlike the budgets this *is* part of
    /// [`solve_fingerprint`](Self::solve_fingerprint): the verdict tier is
    /// part of the cached result, so outcomes produced under different
    /// verification regimes must not share a cache line.
    pub verify: VerifyMode,
}

impl Default for GomilConfig {
    fn default() -> GomilConfig {
        GomilConfig {
            w: 8.0,
            l: 10,
            alpha: 3.0,
            beta: 2.0,
            solver_budget: Duration::from_secs(10),
            pipeline_budget: None,
            select_style: SelectStyle::SelectSkip,
            power_vectors: 512,
            arrival_aware: true,
            solver_jobs: 1,
            pricing: Pricing::default(),
            cuts: CutMode::default(),
            scaling: true,
            reduce: true,
            verify: VerifyMode::Fast,
        }
    }
}

impl GomilConfig {
    /// A configuration with a custom solver budget and paper defaults
    /// elsewhere.
    pub fn with_budget(budget: Duration) -> GomilConfig {
        GomilConfig {
            solver_budget: budget,
            ..GomilConfig::default()
        }
    }

    /// A configuration with an end-to-end pipeline deadline (see
    /// [`pipeline_budget`](GomilConfig::pipeline_budget)) and paper
    /// defaults elsewhere.
    pub fn with_pipeline_budget(budget: Duration) -> GomilConfig {
        GomilConfig {
            pipeline_budget: Some(budget),
            ..GomilConfig::default()
        }
    }

    /// Canonical encoding of every configuration field that determines the
    /// *result* of a solve, as opposed to its latency — the configuration
    /// half of a service cache key (see the `gomil-serve` crate).
    ///
    /// Field order is fixed, values use Rust's shortest-roundtrip float
    /// formatting, and the string is single-line and tab-free, so two
    /// configs produce the same fingerprint iff every solve-relevant field
    /// is equal, however the structs were constructed. The two budgets
    /// ([`solver_budget`](Self::solver_budget) and
    /// [`pipeline_budget`](Self::pipeline_budget)) are deliberately
    /// excluded: they bound wall-clock, not the certified optimum, and the
    /// serving layer refuses to cache budget-degraded results instead
    /// (see `gomil-serve`'s caching contract).
    /// [`solver_jobs`](Self::solver_jobs) is excluded for the same reason:
    /// any worker count proves the same objective value, it only
    /// changes how fast (and, among ties, *which* optimal assignment comes
    /// back — the cache stores one certified optimum either way).
    ///
    /// The string ends with the [`SOLVER_VERSION`](crate::SOLVER_VERSION)
    /// that produces the result, so a cache or mart record written by
    /// another solver version matches no key and is never served.
    pub fn solve_fingerprint(&self) -> String {
        let style = match self.select_style {
            SelectStyle::Ripple => "ripple",
            SelectStyle::Select => "select",
            SelectStyle::SelectSkip => "select-skip",
        };
        format!(
            "w={};l={};alpha={};beta={};style={style};arrival={};pv={};verify={};solver={}",
            self.w,
            self.l,
            self.alpha,
            self.beta,
            self.arrival_aware,
            self.power_vectors,
            self.verify.label(),
            crate::SOLVER_VERSION
        )
    }

    /// A fast configuration for tests: small budgets, fewer power vectors.
    pub fn fast() -> GomilConfig {
        GomilConfig {
            solver_budget: Duration::from_secs(2),
            power_vectors: 128,
            ..GomilConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let c = GomilConfig::default();
        assert_eq!(c.w, 8.0);
        assert_eq!(c.l, 10);
        assert_eq!(c.alpha, 3.0);
        assert_eq!(c.beta, 2.0);
    }

    #[test]
    fn fingerprint_ignores_budgets_but_tracks_solve_fields() {
        use std::time::Duration;
        let base = GomilConfig::default();
        let budgeted = GomilConfig {
            solver_budget: Duration::from_millis(1),
            pipeline_budget: Some(Duration::from_millis(2)),
            solver_jobs: 8,
            pricing: Pricing::Dantzig,
            cuts: CutMode::Off,
            scaling: false,
            reduce: false,
            ..GomilConfig::default()
        };
        assert_eq!(base.solve_fingerprint(), budgeted.solve_fingerprint());
        let other_w = GomilConfig {
            w: 9.0,
            ..GomilConfig::default()
        };
        assert_ne!(base.solve_fingerprint(), other_w.solve_fingerprint());
        assert!(!base.solve_fingerprint().contains(['\t', '\n']));
    }

    #[test]
    fn fingerprint_tracks_the_verification_mode() {
        let base = GomilConfig::default();
        for mode in [VerifyMode::Off, VerifyMode::Strict] {
            let other = GomilConfig {
                verify: mode,
                ..GomilConfig::default()
            };
            assert_ne!(base.solve_fingerprint(), other.solve_fingerprint());
            assert!(other
                .solve_fingerprint()
                .contains(&format!("verify={}", mode.label())));
        }
    }
}
