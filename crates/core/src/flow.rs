//! End-to-end GOMIL multiplier construction.
//!
//! `operands → PPG → (globally optimized) CT → PPF/CSL adder → product`,
//! with built-in functional verification against native integer
//! multiplication.

use crate::config::GomilConfig;
use crate::error::{panic_message, GomilError, VerificationFailure};
use crate::global::{optimize_global_hinted, GlobalSolution, WarmStartHint};
use gomil_arith::{and_ppg, baugh_wooley_ppg, booth4_ppg, booth8_ppg, realize_schedule, PpgKind};
use gomil_budget::Budget;
use gomil_netlist::{verify_multiplier, EquivVerdict, NetId, Netlist, VerifyConfig};
use gomil_prefix::{dp_tables_budgeted, leaf_types, ppf_csl_sum, PrefixTree, TwoRows};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Area split of a multiplier by pipeline region (paper Section III:
/// "the CT dominates the area of a multiplier, while the CT and the
/// prefix structure together dominate the delay").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegionBreakdown {
    /// Partial product generator area.
    pub ppg: f64,
    /// Compressor tree area.
    pub ct: f64,
    /// Carry-propagation adder area.
    pub cpa: f64,
}

impl RegionBreakdown {
    /// Total area.
    pub fn total(&self) -> f64 {
        self.ppg + self.ct + self.cpa
    }
}

/// A constructed multiplier netlist plus its provenance.
#[derive(Debug, Clone)]
pub struct MultiplierBuild {
    /// Short design name (e.g. `GOMIL-AND-8`).
    pub name: String,
    /// The gate-level implementation; inputs `a`, `b`, output `p` (2m bits).
    pub netlist: Netlist,
    /// Word length.
    pub m: usize,
    /// Which PPG the design uses (Booth implies signed semantics).
    pub ppg: PpgKind,
}

impl MultiplierBuild {
    /// Whether the product is two's-complement or unsigned.
    pub fn is_signed(&self) -> bool {
        self.ppg.is_signed()
    }

    /// The product this design should compute, reduced mod `2^{2m}`.
    pub fn expected_product(&self, x: u128, y: u128) -> u128 {
        let m = self.m;
        let mask: u128 = if 2 * m >= 128 {
            u128::MAX
        } else {
            (1 << (2 * m)) - 1
        };
        if self.is_signed() {
            let sx = sign_extend(x, m);
            let sy = sign_extend(y, m);
            (sx.wrapping_mul(sy) as u128) & mask
        } else {
            x.wrapping_mul(y) & mask
        }
    }

    /// Functionally verifies the netlist against the reference product:
    /// exhaustive for `m ≤ 6`, corner + seeded random sampling otherwise
    /// (a quick spot check; the pipeline's admission gate runs the
    /// configurable-budget [`verify_multiplier`] instead).
    ///
    /// # Errors
    ///
    /// [`GomilError::Verification`] naming the design, with the first
    /// mismatching input pair attached when one exists.
    pub fn verify(&self) -> Result<(), GomilError> {
        let cfg = VerifyConfig {
            exhaustive_limit: 6,
            random_vectors: 300,
            seed: 0xC0FFEE ^ self.m as u64,
            jobs: 1,
        };
        match self.render_verdict(&cfg).1 {
            Some(fail) => Err(GomilError::from(fail)),
            None => Ok(()),
        }
    }

    /// Runs the equivalence gate with an explicit budget, returning both
    /// the verdict and — when it is `Failed` — the typed failure ready to
    /// become a [`GomilError::Verification`].
    pub fn render_verdict(
        &self,
        cfg: &VerifyConfig,
    ) -> (EquivVerdict, Option<VerificationFailure>) {
        let verdict = verify_multiplier(&self.netlist, self.m, self.is_signed(), cfg);
        let failure = match &verdict {
            EquivVerdict::Failed {
                reason,
                counterexample,
            } => {
                let mut fail = VerificationFailure::new(
                    &self.name,
                    match counterexample {
                        Some(cex) => format!("{reason}: {cex}"),
                        None => reason.clone(),
                    },
                );
                if let Some(cex) = counterexample {
                    fail = fail.with_counterexample(*cex);
                }
                Some(fail)
            }
            _ => None,
        };
        (verdict, failure)
    }
}

fn sign_extend(x: u128, m: usize) -> i128 {
    let shift = 128 - m as u32;
    ((x as i128) << shift) >> shift
}

/// Emits the partial product matrix for the chosen PPG.
pub(crate) fn build_ppg(
    nl: &mut Netlist,
    ppg: PpgKind,
    a: &[NetId],
    b: &[NetId],
) -> gomil_arith::BitMatrix {
    match ppg {
        PpgKind::And => and_ppg(nl, a, b),
        PpgKind::Booth4 => booth4_ppg(nl, a, b),
        PpgKind::Booth8 => booth8_ppg(nl, a, b),
        PpgKind::BaughWooley => baugh_wooley_ppg(nl, a, b),
    }
}

/// Truncates/pads a CPA output to the `2m`-bit product port.
pub(crate) fn finish_product(nl: &mut Netlist, mut sum: Vec<NetId>, m: usize) -> Vec<NetId> {
    sum.truncate(2 * m);
    while sum.len() < 2 * m {
        let z = nl.const0();
        sum.push(z);
    }
    sum
}

/// The pipeline budget configured for one end-to-end build (unlimited when
/// [`GomilConfig::pipeline_budget`] is `None`).
pub(crate) fn pipeline_budget(cfg: &GomilConfig) -> Budget {
    match cfg.pipeline_budget {
        Some(limit) => Budget::with_limit(limit),
        None => Budget::unlimited(),
    }
}

/// Chooses the prefix tree to realize: the solution's full-width optimum,
/// or — when [`arrival_aware`](GomilConfig::arrival_aware) is on and budget
/// remains — a re-optimized tree seeded with the CT's realized per-column
/// arrival times. Budget expiry mid-DP falls back to the plain tree rather
/// than failing the build.
pub(crate) fn choose_realized_tree(
    nl: &Netlist,
    rows: &TwoRows,
    solution: &GlobalSolution,
    cfg: &GomilConfig,
    budget: &Budget,
) -> PrefixTree {
    if !cfg.arrival_aware {
        return solution.tree.clone();
    }
    // Arrivals are converted to Table-I delay units via the typical
    // realized delay of a prefix node's generate path.
    const NODE_DELAY_UNIT: f64 = 1.1;
    let timing = nl.timing();
    let arrivals: Vec<f64> = (0..rows.width())
        .map(|j| {
            rows.column(j)
                .iter()
                .map(|&bit| timing.arrival(bit))
                .fold(0.0, f64::max)
                / NODE_DELAY_UNIT
        })
        .collect();
    let b = leaf_types(solution.vs.counts());
    match dp_tables_budgeted(&b, cfg.w, Some(&arrivals), budget) {
        Ok(t) => t.tree(b.len() - 1, 0),
        Err(_) => solution.tree.clone(),
    }
}

/// A GOMIL-optimized multiplier together with the optimization record.
#[derive(Debug, Clone)]
pub struct GomilDesign {
    /// The constructed netlist.
    pub build: MultiplierBuild,
    /// The joint CT + prefix decision that produced it (paper cost model).
    pub solution: GlobalSolution,
    /// The prefix tree actually realized — differs from
    /// [`GlobalSolution::tree`] when
    /// [`arrival_aware`](crate::GomilConfig::arrival_aware) re-optimization
    /// is enabled.
    pub realized_tree: PrefixTree,
    /// Area by pipeline region, measured before dead-logic pruning.
    pub regions: RegionBreakdown,
}

/// Builds a GOMIL-optimized `m × m` multiplier with the given PPG.
///
/// Resilience contract: invalid requests come back as
/// [`GomilError::InvalidInput`] (not panics); internal panics anywhere in
/// the construction are caught and surfaced as
/// [`GomilError::Realization`]; and under a
/// [`pipeline_budget`](GomilConfig::pipeline_budget) the optimizer
/// degrades down its fallback ladder rather than failing, so budget
/// expiry still yields a correct multiplier (see
/// [`GlobalSolution::degradation`]).
///
/// # Errors
///
/// [`GomilError::InvalidInput`] for bad requests, otherwise only internal
/// failures the degradation ladder could not absorb.
pub fn build_gomil(m: usize, ppg: PpgKind, cfg: &GomilConfig) -> Result<GomilDesign, GomilError> {
    build_gomil_budgeted(m, ppg, cfg, None, &Budget::unlimited())
}

/// [`build_gomil`] governed by an *external* [`Budget`] and seeded with a
/// neighboring solve's incumbent — the entry point for network serving,
/// where the caller owns a per-request deadline and a cancellation flag
/// (client disconnect, server drain).
///
/// The effective budget is the external one narrowed to
/// [`pipeline_budget`](GomilConfig::pipeline_budget) when that is set: the
/// earlier of the two deadlines wins, and cancelling `budget` cancels the
/// solve. Cancellation is *not* failure — the optimizer unwinds down its
/// degradation ladder to the always-feasible Dadda + prefix rung, so a
/// cancelled request still returns a correct (degraded, never-cached)
/// multiplier quickly. [`build_gomil`] is this call with an unlimited
/// `budget` and no hint.
///
/// The hint's final-height profile is adapted to this design's width and
/// offered to the joint ILP's warm starts and the target search (see
/// [`WarmStartHint`]). A hint never changes which designs are feasible —
/// only how fast a good incumbent is found — so `None` is the unhinted
/// build. The `gomil-serve` layer uses it to accelerate queued neighbor
/// requests.
///
/// # Errors
///
/// Same contract as [`build_gomil`].
pub fn build_gomil_budgeted(
    m: usize,
    ppg: PpgKind,
    cfg: &GomilConfig,
    hint: Option<&WarmStartHint>,
    budget: &Budget,
) -> Result<GomilDesign, GomilError> {
    if m < 2 {
        return Err(GomilError::InvalidInput(format!(
            "word length must be at least 2, got {m}"
        )));
    }
    if ppg == PpgKind::Booth4 && !m.is_multiple_of(2) {
        return Err(GomilError::InvalidInput(format!(
            "radix-4 Booth supports even word lengths, got {m}"
        )));
    }
    if ppg == PpgKind::Booth8 && m < 3 {
        return Err(GomilError::InvalidInput(format!(
            "radix-8 Booth needs at least 3-bit operands, got {m}"
        )));
    }
    let effective = match cfg.pipeline_budget {
        Some(limit) => budget.child_with_limit(limit),
        None => budget.clone(),
    };
    catch_unwind(AssertUnwindSafe(|| {
        build_gomil_inner(m, ppg, cfg, hint, &effective)
    }))
    .unwrap_or_else(|payload| {
        Err(GomilError::Realization(format!(
            "internal panic during construction: {}",
            panic_message(payload)
        )))
    })
}

fn build_gomil_inner(
    m: usize,
    ppg: PpgKind,
    cfg: &GomilConfig,
    hint: Option<&WarmStartHint>,
    budget: &Budget,
) -> Result<GomilDesign, GomilError> {
    let mut nl = Netlist::new(format!("gomil_{}_{m}", ppg.label().to_lowercase()));
    let a = nl.add_input("a", m);
    let b = nl.add_input("b", m);
    let pp = build_ppg(&mut nl, ppg, &a, &b);
    let v0 = pp.heights();
    let area_after_ppg = nl.area();

    let solution = optimize_global_hinted(&v0, cfg, budget, hint)?;
    let reduced = realize_schedule(&mut nl, &pp, &solution.schedule)
        .map_err(|e| GomilError::Realization(format!("{}: {e}", nl.name())))?;
    let area_after_ct = nl.area();
    let rows = TwoRows::from_matrix(&reduced);

    // Optionally re-optimize the tree against the CT's realized arrival
    // profile (extension; see `GomilConfig::arrival_aware`).
    let tree = choose_realized_tree(&nl, &rows, &solution, cfg, budget);
    let sum = ppf_csl_sum(&mut nl, &rows, &tree, cfg.select_style);
    let p = finish_product(&mut nl, sum, m);
    nl.add_output("p", p);
    let regions = RegionBreakdown {
        ppg: area_after_ppg,
        ct: area_after_ct - area_after_ppg,
        cpa: nl.area() - area_after_ct,
    };
    nl.prune_dead();

    let build = MultiplierBuild {
        name: format!("GOMIL-{}-{m}", ppg.label()),
        netlist: nl,
        m,
        ppg,
    };

    // The equivalence gate: every emitted design carries a verdict, and a
    // `Failed` one never leaves this function as a design at all.
    let mut solution = solution;
    match cfg.verify.config() {
        None => {
            solution.verdict = EquivVerdict::Skipped {
                reason: "verification disabled".into(),
            };
            solution.verify_time = Duration::ZERO;
        }
        Some(vcfg) => {
            let t0 = Instant::now();
            let (verdict, failure) = build.render_verdict(&vcfg);
            solution.verify_time = t0.elapsed();
            if let Some(fail) = failure {
                return Err(GomilError::from(fail));
            }
            solution.verdict = verdict;
        }
    }

    Ok(GomilDesign {
        build,
        solution,
        realized_tree: tree,
        regions,
    })
}

/// Builds a GOMIL-optimized rectangular `m × n` **unsigned** multiplier
/// (AND-array PPG; the paper notes the method "can be easily adapted to
/// handle the more general case with unequal operand length").
///
/// The output port `p` has `m + n` bits.
///
/// # Errors
///
/// [`GomilError::InvalidInput`] if either width is < 2; otherwise only
/// internal failures the degradation ladder could not absorb.
pub fn build_gomil_rect(m: usize, n: usize, cfg: &GomilConfig) -> Result<GomilDesign, GomilError> {
    if m < 2 || n < 2 {
        return Err(GomilError::InvalidInput(format!(
            "operand widths must be at least 2, got {m}×{n}"
        )));
    }
    let budget = pipeline_budget(cfg);
    let mut nl = Netlist::new(format!("gomil_and_{m}x{n}"));
    let a = nl.add_input("a", m);
    let b = nl.add_input("b", n);
    let pp = and_ppg(&mut nl, &a, &b);
    let v0 = pp.heights();

    let solution = optimize_global_hinted(&v0, cfg, &budget, None)?;
    let reduced = realize_schedule(&mut nl, &pp, &solution.schedule)
        .map_err(|e| GomilError::Realization(format!("{}: {e}", nl.name())))?;
    let rows = TwoRows::from_matrix(&reduced);
    let tree = choose_realized_tree(&nl, &rows, &solution, cfg, &budget);
    let mut sum = ppf_csl_sum(&mut nl, &rows, &tree, cfg.select_style);
    sum.truncate(m + n);
    while sum.len() < m + n {
        let z = nl.const0();
        sum.push(z);
    }
    nl.add_output("p", sum);
    nl.prune_dead();

    // The square-multiplier equivalence gate does not model unequal
    // operand widths; rectangular designs are spot-checked by tests and
    // carry an explicit Skipped verdict rather than a misleading one.
    let mut solution = solution;
    solution.verdict = EquivVerdict::Skipped {
        reason: "rectangular design".into(),
    };

    Ok(GomilDesign {
        build: MultiplierBuild {
            name: format!("GOMIL-AND-{m}x{n}"),
            netlist: nl,
            m: m.max(n), // used only for verification masks via expected_product
            ppg: PpgKind::And,
        },
        solution,
        realized_tree: tree,
        regions: RegionBreakdown::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gomil_and_4_bit_is_correct_exhaustively() {
        let d = build_gomil(4, PpgKind::And, &GomilConfig::fast()).unwrap();
        d.build.verify().unwrap();
        assert!(
            d.build.netlist.check().is_empty(),
            "{:?}",
            d.build.netlist.check()
        );
    }

    #[test]
    fn gomil_and_6_bit_is_correct_exhaustively() {
        let d = build_gomil(6, PpgKind::And, &GomilConfig::fast()).unwrap();
        d.build.verify().unwrap();
    }

    #[test]
    fn gomil_mbe_4_bit_is_correct_exhaustively() {
        let d = build_gomil(4, PpgKind::Booth4, &GomilConfig::fast()).unwrap();
        d.build.verify().unwrap();
    }

    #[test]
    fn gomil_and_8_bit_random_and_corners() {
        let d = build_gomil(8, PpgKind::And, &GomilConfig::fast()).unwrap();
        d.build.verify().unwrap();
    }

    #[test]
    fn gomil_mbe_8_bit_random_and_corners() {
        let d = build_gomil(8, PpgKind::Booth4, &GomilConfig::fast()).unwrap();
        d.build.verify().unwrap();
    }

    #[test]
    fn ct_dominates_the_multiplier_area() {
        // Section III of the paper: "the CT dominates the area of a
        // multiplier". Check the realized breakdown at m = 16.
        let d = build_gomil(16, PpgKind::And, &GomilConfig::fast()).unwrap();
        let r = d.regions;
        assert!(r.ct > r.ppg, "ct {} vs ppg {}", r.ct, r.ppg);
        assert!(r.ct > r.cpa, "ct {} vs cpa {}", r.ct, r.cpa);
        assert!(r.ct > 0.4 * r.total(), "ct share {}", r.ct / r.total());
        assert!((r.total() - (r.ppg + r.ct + r.cpa)).abs() < 1e-9);
    }

    #[test]
    fn gomil_booth8_6_bit_is_correct_exhaustively() {
        let d = build_gomil(6, PpgKind::Booth8, &GomilConfig::fast()).unwrap();
        d.build.verify().unwrap();
        assert!(d.build.is_signed());
    }

    #[test]
    fn gomil_baugh_wooley_6_bit_is_correct_exhaustively() {
        let d = build_gomil(6, PpgKind::BaughWooley, &GomilConfig::fast()).unwrap();
        d.build.verify().unwrap();
        assert!(d.build.is_signed());
    }

    #[test]
    fn gomil_booth8_12_bit_random() {
        let d = build_gomil(12, PpgKind::Booth8, &GomilConfig::fast()).unwrap();
        d.build.verify().unwrap();
    }

    #[test]
    fn rectangular_gomil_multiplier_is_correct() {
        // 6 × 4: exhaustive (1024 products).
        let d = build_gomil_rect(6, 4, &GomilConfig::fast()).unwrap();
        for x in 0..64u128 {
            for y in 0..16u128 {
                let got = d.build.netlist.eval_ints(&[x, y], "p");
                assert_eq!(got, x * y, "{x}×{y}");
            }
        }
        assert!(d.build.netlist.check().is_empty());
    }

    #[test]
    fn invalid_inputs_are_typed_errors_not_panics() {
        let cfg = GomilConfig::fast();
        assert!(matches!(
            build_gomil(1, PpgKind::And, &cfg),
            Err(GomilError::InvalidInput(_))
        ));
        assert!(matches!(
            build_gomil(5, PpgKind::Booth4, &cfg),
            Err(GomilError::InvalidInput(_))
        ));
        assert!(matches!(
            build_gomil_rect(1, 4, &cfg),
            Err(GomilError::InvalidInput(_))
        ));
    }

    #[test]
    fn zero_pipeline_budget_still_builds_a_correct_multiplier() {
        let cfg = GomilConfig {
            pipeline_budget: Some(std::time::Duration::ZERO),
            ..GomilConfig::fast()
        };
        let d = build_gomil(6, PpgKind::And, &cfg).unwrap();
        d.build.verify().unwrap();
        let report = &d.solution.degradation;
        assert_eq!(report.winner, Some(crate::global::Rung::DaddaPrefix));
    }

    #[test]
    fn cancelled_external_budget_degrades_but_stays_correct() {
        // The network path: a client disconnect cancels the request budget
        // mid-solve. The build must unwind to the Dadda rung, not error.
        let budget = Budget::unlimited();
        budget.cancel();
        let d = build_gomil_budgeted(6, PpgKind::And, &GomilConfig::fast(), None, &budget).unwrap();
        d.build.verify().unwrap();
        assert_eq!(
            d.solution.degradation.winner,
            Some(crate::global::Rung::DaddaPrefix)
        );
    }

    #[test]
    fn external_budget_narrows_to_the_pipeline_budget() {
        // pipeline_budget = ZERO must bind even under an unlimited
        // external budget (the earlier deadline wins).
        let cfg = GomilConfig {
            pipeline_budget: Some(std::time::Duration::ZERO),
            ..GomilConfig::fast()
        };
        let d = build_gomil_budgeted(6, PpgKind::And, &cfg, None, &Budget::unlimited()).unwrap();
        d.build.verify().unwrap();
        assert_eq!(
            d.solution.degradation.winner,
            Some(crate::global::Rung::DaddaPrefix)
        );
    }

    #[test]
    fn builds_carry_an_equivalence_verdict() {
        use gomil_netlist::{VerdictTier, VerifyMode};
        // m = 4 under Fast: within the exhaustive limit → Proved, 4^4 pairs.
        let d = build_gomil(4, PpgKind::And, &GomilConfig::fast()).unwrap();
        assert_eq!(d.solution.verdict.tier(), VerdictTier::Proved);
        assert_eq!(d.solution.verdict.vectors(), 256);

        // m = 12 exceeds Fast's exhaustive limit → sampled tier.
        let d = build_gomil(12, PpgKind::And, &GomilConfig::fast()).unwrap();
        assert_eq!(d.solution.verdict.tier(), VerdictTier::Tested);
        assert!(d.solution.verdict.vectors() > 0);

        // `--verify off` skips the gate and says so.
        let off = GomilConfig {
            verify: VerifyMode::Off,
            ..GomilConfig::fast()
        };
        let d = build_gomil(4, PpgKind::And, &off).unwrap();
        assert_eq!(d.solution.verdict.tier(), VerdictTier::Skipped);
        assert_eq!(d.solution.verify_time, Duration::ZERO);
    }

    #[test]
    fn rectangular_builds_carry_a_skipped_verdict() {
        use gomil_netlist::VerdictTier;
        let d = build_gomil_rect(4, 3, &GomilConfig::fast()).unwrap();
        assert_eq!(d.solution.verdict.tier(), VerdictTier::Skipped);
    }

    #[test]
    fn signed_expectation_matches_two_complement() {
        let b = MultiplierBuild {
            name: "t".into(),
            netlist: Netlist::new("t"),
            m: 4,
            ppg: PpgKind::Booth4,
        };
        // (-1) × (-1) = 1; (-8) × 2 = -16 ≡ 240 mod 256.
        assert_eq!(b.expected_product(0xF, 0xF), 1);
        assert_eq!(b.expected_product(0x8, 0x2), 240);
    }
}
