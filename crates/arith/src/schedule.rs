//! Compression schedules.
//!
//! A [`CompressionSchedule`] records, for every stage and column, how many
//! 3:2 and 2:2 compressors are applied — exactly the `f(i,j)` / `h(i,j)`
//! unknowns of the paper's CT ILP (Eqs. 2–9). Schedules come from three
//! sources: the Wallace generator, the Dadda generator, and the ILP
//! solution; all three are validated and realized through the same code.

use crate::bcv::Bcv;
use std::error::Error;
use std::fmt;

/// Compressor counts for one stage (indexed by column of the incoming BCV).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageCounts {
    /// 3:2 compressors (full adders) per column.
    pub full: Vec<u32>,
    /// 2:2 compressors (half adders) per column.
    pub half: Vec<u32>,
}

impl StageCounts {
    /// An all-zero stage over `width` columns.
    pub fn new(width: usize) -> StageCounts {
        StageCounts {
            full: vec![0; width],
            half: vec![0; width],
        }
    }

    fn full_at(&self, j: usize) -> u32 {
        self.full.get(j).copied().unwrap_or(0)
    }

    fn half_at(&self, j: usize) -> u32 {
        self.half.get(j).copied().unwrap_or(0)
    }
}

/// A multi-stage compressor-tree schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompressionSchedule {
    /// Per-stage compressor counts; stage `i` applies to the BCV produced
    /// by stage `i − 1` (or the initial BCV for stage 0).
    pub stages: Vec<StageCounts>,
}

/// Why a schedule is invalid for a given BCV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// Offending stage (0-based).
    pub stage: usize,
    /// Offending column.
    pub col: usize,
    /// Bits demanded by the compressors at that column.
    pub demanded: u32,
    /// Bits actually available.
    pub available: u32,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage {} column {}: compressors need {} bits but only {} available",
            self.stage, self.col, self.demanded, self.available
        )
    }
}

impl Error for ScheduleError {}

impl CompressionSchedule {
    /// An empty schedule (no stages).
    pub fn new() -> CompressionSchedule {
        CompressionSchedule { stages: Vec::new() }
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total 3:2 compressor count (`F` in the paper).
    pub fn num_full(&self) -> u64 {
        self.stages
            .iter()
            .flat_map(|s| s.full.iter())
            .map(|&x| x as u64)
            .sum()
    }

    /// Total 2:2 compressor count (`H` in the paper).
    pub fn num_half(&self) -> u64 {
        self.stages
            .iter()
            .flat_map(|s| s.half.iter())
            .map(|&x| x as u64)
            .sum()
    }

    /// The ILP objective `α·F + β·H` (Eq. 2); the paper uses α=3, β=2.
    pub fn cost(&self, alpha: f64, beta: f64) -> f64 {
        alpha * self.num_full() as f64 + beta * self.num_half() as f64
    }

    /// Applies one stage to a BCV, following Eq. (7): each 3:2 at column
    /// `j` removes two bits there and adds one at `j+1`; each 2:2 removes
    /// one and adds one at `j+1`. A carry out of the top column extends the
    /// BCV by one column.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if some column demands more input bits
    /// than it has (violating Eq. 6).
    pub fn apply_stage(
        stage_idx: usize,
        stage: &StageCounts,
        v: &Bcv,
    ) -> Result<Bcv, ScheduleError> {
        let w = v.len();
        let mut out: Vec<u32> = Vec::with_capacity(w + 1);
        for j in 0..w {
            let f = stage.full_at(j);
            let h = stage.half_at(j);
            let demanded = 3 * f + 2 * h;
            if demanded > v[j] {
                return Err(ScheduleError {
                    stage: stage_idx,
                    col: j,
                    demanded,
                    available: v[j],
                });
            }
            let carry_in = if j > 0 {
                stage.full_at(j - 1) + stage.half_at(j - 1)
            } else {
                0
            };
            out.push(v[j] - 2 * f - h + carry_in);
        }
        let top_carry = stage.full_at(w - 1) + stage.half_at(w - 1);
        if top_carry > 0 {
            out.push(top_carry);
        }
        Ok(out.into_iter().collect())
    }

    /// Applies the whole schedule, returning every intermediate BCV
    /// (`[V₁, …, V_s]` in paper notation).
    ///
    /// # Errors
    ///
    /// See [`apply_stage`](Self::apply_stage).
    pub fn apply(&self, v0: &Bcv) -> Result<Vec<Bcv>, ScheduleError> {
        let mut out = Vec::with_capacity(self.stages.len());
        let mut cur = v0.clone();
        for (i, stage) in self.stages.iter().enumerate() {
            cur = Self::apply_stage(i, stage, &cur)?;
            out.push(cur.clone());
        }
        Ok(out)
    }

    /// Applies the schedule and returns only the final BCV.
    ///
    /// # Errors
    ///
    /// See [`apply_stage`](Self::apply_stage).
    pub fn final_bcv(&self, v0: &Bcv) -> Result<Bcv, ScheduleError> {
        Ok(self.apply(v0)?.pop().unwrap_or_else(|| v0.clone()))
    }

    /// Whether any stage applies a compressor at the leftmost column of its
    /// incoming BCV — the case the paper's ILP forbids (Eq. 4) to keep the
    /// BCV length fixed at `2m − 1`.
    pub fn uses_leftmost_column(&self, v0: &Bcv) -> bool {
        // Width can only grow via a top-column carry, which itself requires
        // a leftmost-column compressor, so the width stays v0.len() until
        // the first violation.
        let w = v0.len();
        self.stages
            .iter()
            .any(|s| s.full_at(w - 1) + s.half_at(w - 1) > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_full_adder_moves_bits() {
        // V = [3, 1]: one FA at column 0 -> [1, 2].
        let v = Bcv::new(vec![3, 1]);
        let mut st = StageCounts::new(2);
        st.full[0] = 1;
        let out = CompressionSchedule::apply_stage(0, &st, &v).unwrap();
        assert_eq!(out.counts(), &[1, 2]);
    }

    #[test]
    fn half_adder_keeps_total_bits() {
        let v = Bcv::new(vec![2, 0]);
        let mut st = StageCounts::new(2);
        st.half[0] = 1;
        let out = CompressionSchedule::apply_stage(0, &st, &v).unwrap();
        assert_eq!(out.counts(), &[1, 1]);
        assert_eq!(out.total_bits(), v.total_bits());
    }

    #[test]
    fn full_adder_removes_exactly_one_bit_total() {
        let v = Bcv::new(vec![3, 3, 1]);
        let mut st = StageCounts::new(3);
        st.full[0] = 1;
        st.full[1] = 1;
        let out = CompressionSchedule::apply_stage(0, &st, &v).unwrap();
        assert_eq!(out.total_bits(), v.total_bits() - 2);
    }

    #[test]
    fn top_column_carry_extends_width() {
        let v = Bcv::new(vec![0, 3]);
        let mut st = StageCounts::new(2);
        st.full[1] = 1;
        let out = CompressionSchedule::apply_stage(0, &st, &v).unwrap();
        assert_eq!(out.counts(), &[0, 1, 1]);
    }

    #[test]
    fn over_subscription_is_an_error() {
        let v = Bcv::new(vec![2, 0]);
        let mut st = StageCounts::new(2);
        st.full[0] = 1; // needs 3 bits, only 2 present
        let err = CompressionSchedule::apply_stage(0, &st, &v).unwrap_err();
        assert_eq!(err.col, 0);
        assert_eq!(err.demanded, 3);
        assert_eq!(err.available, 2);
        assert!(err.to_string().contains("column 0"));
    }

    #[test]
    fn cost_uses_paper_weights() {
        let mut sched = CompressionSchedule::new();
        let mut st = StageCounts::new(3);
        st.full[0] = 2;
        st.half[1] = 3;
        sched.stages.push(st);
        assert_eq!(sched.num_full(), 2);
        assert_eq!(sched.num_half(), 3);
        assert_eq!(sched.cost(3.0, 2.0), 12.0);
    }

    #[test]
    fn leftmost_column_detection() {
        let v = Bcv::new(vec![1, 3]);
        let mut sched = CompressionSchedule::new();
        let mut st = StageCounts::new(2);
        st.full[1] = 1;
        sched.stages.push(st);
        assert!(sched.uses_leftmost_column(&v));
        let mut sched2 = CompressionSchedule::new();
        let mut st2 = StageCounts::new(2);
        st2.half[0] = 0;
        sched2.stages.push(st2);
        assert!(!sched2.uses_leftmost_column(&v));
    }
}
