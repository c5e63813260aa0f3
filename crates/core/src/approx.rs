//! Approximate multipliers (the paper's stated future work).
//!
//! The conclusions of the paper name approximate multipliers as a planned
//! GOMIL extension. This module provides the classic entry point:
//! **truncated multipliers** — the lowest `k` product columns are never
//! generated, and a compile-time compensation constant (the expected value
//! of the dropped partial products, `Σ_j h_j·2^j / 4` for an AND array) is
//! injected instead. The remaining matrix goes through the normal GOMIL
//! joint optimization, so the whole CT + prefix machinery is reused.
//!
//! [`ErrorStats`] quantifies the approximation by simulation against exact
//! products (exhaustive for small word lengths, seeded sampling above).

use crate::config::GomilConfig;
use crate::error::GomilError;
use crate::flow::{
    choose_realized_tree, finish_product, pipeline_budget, GomilDesign, MultiplierBuild,
    RegionBreakdown,
};
use crate::global::optimize_global_hinted;
use gomil_arith::{and_ppg, realize_schedule, BitMatrix, PpgKind};
use gomil_netlist::Netlist;
use gomil_prefix::{ppf_csl_sum, TwoRows};

/// Empirical error statistics of an approximate multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorStats {
    /// Largest absolute error observed.
    pub max_abs: u128,
    /// Mean signed error (positive = the approximation overshoots).
    pub mean: f64,
    /// Mean absolute error.
    pub mean_abs: f64,
    /// Root-mean-square error.
    pub rmse: f64,
    /// Number of sampled input pairs.
    pub samples: u64,
}

/// Builds a GOMIL-optimized **truncated** unsigned multiplier: the lowest
/// `truncated_columns` columns of the partial product matrix are dropped
/// and replaced by a constant compensation term.
///
/// The output port still has `2m` bits (the dropped low product bits read
/// as the compensation constant's bits).
///
/// # Errors
///
/// [`GomilError::InvalidInput`] if `m < 2` or `truncated_columns ≥ m`
/// (dropping half the matrix or more leaves no multiplier to speak of);
/// otherwise only internal failures the degradation ladder could not
/// absorb.
pub fn build_gomil_truncated(
    m: usize,
    truncated_columns: usize,
    cfg: &GomilConfig,
) -> Result<GomilDesign, GomilError> {
    if m < 2 {
        return Err(GomilError::InvalidInput(format!(
            "word length must be at least 2, got {m}"
        )));
    }
    if truncated_columns >= m {
        return Err(GomilError::InvalidInput(format!(
            "cannot truncate {truncated_columns} of {m} columns"
        )));
    }
    let budget = pipeline_budget(cfg);
    let k = truncated_columns;
    let mut nl = Netlist::new(format!("gomil_trunc{k}_{m}"));
    let a = nl.add_input("a", m);
    let b = nl.add_input("b", m);

    // Full AND matrix, then drop the low-k columns (their AND gates are
    // never consumed and get pruned, i.e. "never generated").
    let full = and_ppg(&mut nl, &a, &b);
    let mut pp = BitMatrix::new(full.width());
    for j in k..full.width() {
        for &bit in full.column(j) {
            pp.push(j, bit);
        }
    }

    // Compensation: E[Σ dropped] = Σ_{j<k} h_j·2^j / 4 (each AND bit is 1
    // with probability 1/4 under uniform inputs), rounded to the nearest
    // representable value ≥ column k. Bits below column k appear directly
    // on the product port.
    let mut expected_quarters: u128 = 0; // in units of 1/4
    for j in 0..k {
        expected_quarters += (full.column(j).len() as u128) << j;
    }
    let compensation = (expected_quarters + 2) / 4;
    let c1 = nl.const1();
    let mut low_product_bits = Vec::with_capacity(k);
    for j in 0..(2 * m) {
        if (compensation >> j) & 1 == 1 {
            if j < k {
                low_product_bits.push((j, c1));
            } else {
                pp.push(j, c1);
            }
        }
    }

    // The usual GOMIL flow on the truncated matrix. Columns may be empty
    // below k; the optimizer works on the populated region.
    let v0_full = pp.heights();
    // Strip the empty low columns for the optimizer, re-attach after.
    let first = (0..v0_full.len())
        .find(|&j| v0_full[j] > 0)
        .expect("matrix is non-empty");
    let v0: gomil_arith::Bcv = v0_full.iter().skip(first).collect();
    let mut shifted = BitMatrix::new(v0.len());
    for j in first..pp.width() {
        for &bit in pp.column(j) {
            shifted.push(j - first, bit);
        }
    }

    let solution = optimize_global_hinted(&v0, cfg, &budget, None)?;
    let reduced = realize_schedule(&mut nl, &shifted, &solution.schedule)
        .map_err(|e| GomilError::Realization(format!("{}: {e}", nl.name())))?;
    let rows = TwoRows::from_matrix(&reduced);
    let tree = choose_realized_tree(&nl, &rows, &solution, cfg, &budget);
    let sum = ppf_csl_sum(&mut nl, &rows, &tree, cfg.select_style);

    // Reassemble the product: low constant bits, then the summed columns.
    let zero = nl.const0();
    let mut product = vec![zero; first];
    for (j, bit) in low_product_bits {
        product[j] = bit;
    }
    product.extend(sum);
    let p = finish_product(&mut nl, product, m);
    nl.add_output("p", p);
    nl.prune_dead();

    // Truncated designs are approximate by construction: exact
    // equivalence would (correctly) fail, so the gate is not run and the
    // verdict records why. Accuracy is certified by `error_stats` bounds
    // instead.
    let mut solution = solution;
    solution.verdict = gomil_netlist::EquivVerdict::Skipped {
        reason: "approximate design".into(),
    };

    Ok(GomilDesign {
        build: MultiplierBuild {
            name: format!("GOMIL-TRUNC{k}-{m}"),
            netlist: nl,
            m,
            ppg: PpgKind::And,
        },
        solution,
        realized_tree: tree,
        regions: RegionBreakdown::default(),
    })
}

impl MultiplierBuild {
    /// Measures approximation error against exact products — exhaustive
    /// for `m ≤ 6`, seeded random sampling otherwise.
    pub fn error_stats(&self) -> ErrorStats {
        let m = self.m;
        let mut stats = Accum::default();
        if m <= 6 {
            for x in 0..(1u128 << m) {
                for y in 0..(1u128 << m) {
                    stats.add(
                        self.netlist.eval_ints(&[x, y], "p"),
                        self.expected_product(x, y),
                    );
                }
            }
        } else {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(0xA11CE ^ m as u64);
            let mask = (1u128 << m) - 1;
            for _ in 0..2000 {
                let x = rng.gen::<u128>() & mask;
                let y = rng.gen::<u128>() & mask;
                stats.add(
                    self.netlist.eval_ints(&[x, y], "p"),
                    self.expected_product(x, y),
                );
            }
        }
        stats.finish()
    }
}

#[derive(Default)]
struct Accum {
    n: u64,
    max_abs: u128,
    sum: f64,
    sum_abs: f64,
    sum_sq: f64,
}

impl Accum {
    fn add(&mut self, got: u128, want: u128) {
        let err = got as i128 - want as i128;
        let abs = err.unsigned_abs();
        self.n += 1;
        self.max_abs = self.max_abs.max(abs);
        self.sum += err as f64;
        self.sum_abs += abs as f64;
        self.sum_sq += (err as f64) * (err as f64);
    }

    fn finish(self) -> ErrorStats {
        let n = self.n.max(1) as f64;
        ErrorStats {
            max_abs: self.max_abs,
            mean: self.sum / n,
            mean_abs: self.sum_abs / n,
            rmse: (self.sum_sq / n).sqrt(),
            samples: self.n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GomilConfig {
        GomilConfig::fast()
    }

    #[test]
    fn zero_truncation_is_exact() {
        let d = build_gomil_truncated(6, 0, &cfg()).unwrap();
        d.build.verify().unwrap();
        let e = d.build.error_stats();
        assert_eq!(e.max_abs, 0);
        assert_eq!(e.mean, 0.0);
    }

    #[test]
    fn truncated_multiplier_error_is_bounded() {
        let m = 6;
        for k in [2usize, 4] {
            let d = build_gomil_truncated(m, k, &cfg()).unwrap();
            let e = d.build.error_stats();
            // Worst case: all dropped bits were 1 (underestimate by
            // Σ_{j<k} h_j·2^j − C) or none were (overestimate by C).
            let mut worst: u128 = 0;
            for j in 0..k {
                worst += (gomil_arith::Bcv::and_ppg(m)[j] as u128) << j;
            }
            assert!(
                e.max_abs <= worst,
                "k={k}: max error {} exceeds bound {worst}",
                e.max_abs
            );
            // Compensation keeps the mean roughly centred.
            assert!(
                e.mean.abs() <= worst as f64 / 4.0,
                "k={k}: mean error {} off-centre",
                e.mean
            );
            assert!(e.samples > 0);
        }
    }

    #[test]
    fn truncation_saves_area_monotonically() {
        let m = 8;
        let areas: Vec<f64> = [0usize, 2, 4, 6]
            .iter()
            .map(|&k| {
                build_gomil_truncated(m, k, &cfg())
                    .unwrap()
                    .build
                    .netlist
                    .area()
            })
            .collect();
        for w in areas.windows(2) {
            assert!(w[1] < w[0], "more truncation must shrink area: {areas:?}");
        }
    }

    #[test]
    fn truncated_netlists_are_clean() {
        let d = build_gomil_truncated(8, 3, &cfg()).unwrap();
        let issues = d.build.netlist.check();
        // Dropped AND gates must have been pruned, not left dangling.
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn over_truncation_is_rejected_with_a_typed_error() {
        let err = build_gomil_truncated(6, 6, &cfg()).unwrap_err();
        assert!(matches!(err, GomilError::InvalidInput(_)), "{err:?}");
        assert!(err.to_string().contains("cannot truncate"), "{err}");
    }
}
