//! Bit count vectors (BCVs).
//!
//! A BCV models a bit matrix by the number of bits in each column
//! (Section III-A of the paper). Column 0 is the least-significant column.

use std::fmt;
use std::ops::Index;

/// Bit count vector: `v[j]` is the number of partial-product bits with
/// weight `2^j`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Bcv(Vec<u32>);

impl Bcv {
    /// Creates a BCV from explicit column counts (LSB first).
    pub fn new(counts: Vec<u32>) -> Bcv {
        Bcv(counts)
    }

    /// The BCV of an AND-gate PPG for an `m × m` multiplier:
    /// `[1, 2, …, m−1, m, m−1, …, 1]` (length `2m − 1`).
    ///
    /// # Panics
    ///
    /// Panics if `m < 2`.
    pub fn and_ppg(m: usize) -> Bcv {
        assert!(m >= 2, "multiplier word length must be at least 2");
        let mut v = Vec::with_capacity(2 * m - 1);
        for j in 0..2 * m - 1 {
            v.push((m.min(j + 1).min(2 * m - 1 - j)) as u32);
        }
        Bcv(v)
    }

    /// The BCV of a rectangular `m × n` AND-gate PPG (length `m + n − 1`).
    ///
    /// # Panics
    ///
    /// Panics if either operand width is zero.
    pub fn and_ppg_rect(m: usize, n: usize) -> Bcv {
        assert!(m >= 1 && n >= 1, "operand widths must be positive");
        let mut v = Vec::with_capacity(m + n - 1);
        for j in 0..m + n - 1 {
            v.push((m.min(n).min(j + 1).min(m + n - 1 - j)) as u32);
        }
        Bcv(v)
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the BCV has no columns.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Maximum column height.
    pub fn height(&self) -> u32 {
        self.0.iter().copied().max().unwrap_or(0)
    }

    /// Total number of bits across all columns.
    pub fn total_bits(&self) -> u64 {
        self.0.iter().map(|&c| c as u64).sum()
    }

    /// Column counts as a slice (LSB first).
    pub fn counts(&self) -> &[u32] {
        &self.0
    }

    /// Mutable column counts.
    pub fn counts_mut(&mut self) -> &mut [u32] {
        &mut self.0
    }

    /// Whether every column is reduced to at most two bits (ready for the
    /// final carry-propagation adder).
    pub fn is_reduced(&self) -> bool {
        self.0.iter().all(|&c| c <= 2)
    }

    /// Iterates over column counts (LSB first).
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().copied()
    }
}

impl Index<usize> for Bcv {
    type Output = u32;
    fn index(&self, j: usize) -> &u32 {
        &self.0[j]
    }
}

impl fmt::Display for Bcv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Paper convention: most significant column on the left.
        write!(f, "[")?;
        for (k, c) in self.0.iter().rev().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<u32> for Bcv {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Bcv {
        Bcv(iter.into_iter().collect())
    }
}

/// Maximum starting height that a Wallace-style reduction can bring down to
/// two rows in `k` stages: `c₀ = 2`, `cₖ₊₁ = ⌊3·cₖ/2⌋`
/// (2, 3, 4, 6, 9, 13, 19, 28, 42, 63, 94, …).
pub fn wallace_height_bound(stages: u32) -> u64 {
    let mut c: u64 = 2;
    for _ in 0..stages {
        c = c * 3 / 2;
    }
    c
}

/// Minimum number of compression stages needed to reduce a bit matrix of
/// the given maximum height to two rows. This is the Wallace/Dadda stage
/// count the paper fixes `s` to (Section III-A).
pub fn min_stages(height: u32) -> u32 {
    let mut k = 0;
    while wallace_height_bound(k) < height as u64 {
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_ppg_matches_paper_shape() {
        // Fig. 1: 6-bit multiplier, V0 = [1,2,3,4,5,6,5,4,3,2,1].
        let v = Bcv::and_ppg(6);
        assert_eq!(v.counts(), &[1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1]);
        assert_eq!(v.len(), 11);
        assert_eq!(v.height(), 6);
        assert_eq!(v.total_bits(), 36); // m²
    }

    #[test]
    fn and_ppg_total_is_m_squared() {
        for m in 2..=64 {
            assert_eq!(Bcv::and_ppg(m).total_bits(), (m * m) as u64);
        }
    }

    #[test]
    fn rect_ppg_generalizes_square() {
        assert_eq!(Bcv::and_ppg_rect(6, 6), Bcv::and_ppg(6));
        let v = Bcv::and_ppg_rect(4, 2);
        assert_eq!(v.counts(), &[1, 2, 2, 2, 1]);
        assert_eq!(v.total_bits(), 8);
    }

    #[test]
    fn stage_counts_match_known_values() {
        // Dadda sequence: heights 2,3,4,6,9,13,19,28,42,63,94.
        assert_eq!(min_stages(2), 0);
        assert_eq!(min_stages(3), 1);
        assert_eq!(min_stages(4), 2);
        assert_eq!(min_stages(6), 3); // Fig. 1: 6-bit Wallace has 3 stages
        assert_eq!(min_stages(8), 4);
        assert_eq!(min_stages(16), 6);
        assert_eq!(min_stages(32), 8);
        assert_eq!(min_stages(64), 10);
    }

    #[test]
    fn display_uses_msb_first_paper_convention() {
        let v = Bcv::new(vec![1, 2, 3]);
        assert_eq!(v.to_string(), "[3, 2, 1]");
    }

    #[test]
    fn is_reduced_detects_final_bcv() {
        assert!(Bcv::new(vec![1, 2, 2, 1]).is_reduced());
        assert!(!Bcv::new(vec![1, 3]).is_reduced());
    }
}
