//! Order statistics, the seeded generator, the host probe and process
//! memory readings shared by every workload.

use std::hint::black_box;
use std::time::Instant;

/// Median with linear interpolation between the two middle samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it:
/// the sample of rank `n - 10` (1-based) in ascending order, returned as
/// `(percentile, value)`. With ten samples or fewer no such percentile
/// exists and the minimum is returned at percentile 0.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (0.0, v.first().copied().unwrap_or(f64::NAN));
    }
    let rank = n - 10;
    (100.0 * rank as f64 / n as f64, v[rank - 1])
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The host drift probe: a fixed integer loop owned by the benchmark,
/// timed in milliseconds. It flags runs taken in a slow host phase and
/// never rescales a metric.
pub fn host_probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    let mut acc = 0u64;
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Share `part / whole`, 0 when nothing was counted.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(x, 30.0);
        assert_eq!(p, 75.0);
        assert_eq!(median(&v), 20.5);
    }

    #[test]
    fn seeds_repeat() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
