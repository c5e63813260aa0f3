//! Equivalence verification: the admission gate for emitted multipliers.
//!
//! Every netlist the pipeline wants to cache, serve, or export must carry a
//! machine-checkable [`EquivVerdict`] against the `a × b` reference
//! (two's-complement for signed partial-product encodings):
//!
//! * **Proved** — exhaustive 64-lane bit-parallel equivalence over all
//!   `4^m` operand pairs, feasible up to `m = 16` in a release build;
//! * **Tested** — for wider designs, a layered check: structural
//!   invariants, corner vectors (0, 1, ±max, sign boundaries, alternating
//!   bit patterns), and a seeded random sweep with a configurable budget;
//! * **Failed** — a concrete [`Counterexample`] or a structural defect
//!   (wrong port shape, combinational cycle);
//! * **Skipped** — verification was deliberately not run (approximate
//!   designs, `--verify off`), with the reason recorded.
//!
//! The exhaustive kernel compiles the netlist into a flat step list once,
//! packs 64 operand pairs per simulation pass, and compares against the
//! reference products through a 64×64 bit transpose, so the whole `m = 8`
//! space (65 536 pairs) verifies in ~1 k passes.

use crate::check::CheckIssue;
use crate::gate::GateKind;
use crate::netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// How much verification the pipeline runs on each emitted design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// No verification: every design is `Skipped`. For benchmarking the
    /// solve path only — nothing produced under `Off` should be trusted.
    Off,
    /// Exhaustive up to `m = 8`, then corners + 1024 random vectors.
    #[default]
    Fast,
    /// Exhaustive up to `m = 16`, then corners + 16384 random vectors.
    Strict,
}

impl VerifyMode {
    /// Stable lowercase label (CLI flag value and TSV field).
    pub fn label(self) -> &'static str {
        match self {
            VerifyMode::Off => "off",
            VerifyMode::Fast => "fast",
            VerifyMode::Strict => "strict",
        }
    }

    /// Parses a CLI flag value.
    pub fn from_name(s: &str) -> Option<VerifyMode> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" => Some(VerifyMode::Off),
            "fast" => Some(VerifyMode::Fast),
            "strict" => Some(VerifyMode::Strict),
            _ => None,
        }
    }

    /// The effort budget for this mode; `None` means skip entirely.
    pub fn config(self) -> Option<VerifyConfig> {
        match self {
            VerifyMode::Off => None,
            VerifyMode::Fast => Some(VerifyConfig::fast()),
            VerifyMode::Strict => Some(VerifyConfig::strict()),
        }
    }
}

/// Effort budget for [`verify_multiplier`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Exhaustive equivalence for `m ≤ exhaustive_limit` (all `4^m` pairs).
    pub exhaustive_limit: usize,
    /// Random operand pairs for the sampled tier (on top of all corner
    /// pairs).
    pub random_vectors: u64,
    /// Seed for the random sweep — fixed so verdicts are reproducible.
    pub seed: u64,
    /// Worker threads for the exhaustive sweep; 0 = one per core.
    pub jobs: usize,
}

impl VerifyConfig {
    /// Budget behind [`VerifyMode::Fast`].
    pub fn fast() -> VerifyConfig {
        VerifyConfig {
            exhaustive_limit: 8,
            random_vectors: 1024,
            seed: 0x60311,
            jobs: 0,
        }
    }

    /// Budget behind [`VerifyMode::Strict`].
    pub fn strict() -> VerifyConfig {
        VerifyConfig {
            exhaustive_limit: 16,
            random_vectors: 16384,
            seed: 0x60311,
            jobs: 0,
        }
    }
}

impl Default for VerifyConfig {
    fn default() -> VerifyConfig {
        VerifyConfig::fast()
    }
}

/// Strength ordering of verdicts, for admission policies: `Failed` is the
/// weakest, `Proved` the strongest, and a cache can demand a minimum tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VerdictTier {
    /// A counterexample or structural defect exists.
    Failed,
    /// Verification was not run.
    Skipped,
    /// Corner + random vectors passed (no counterexample found).
    Tested,
    /// Exhaustively equivalent to the reference product.
    Proved,
}

impl VerdictTier {
    /// Whether a design at this tier may be admitted under a policy that
    /// requires at least `min`. `Failed` is never admissible.
    pub fn admits(self, min: VerdictTier) -> bool {
        self != VerdictTier::Failed && self >= min
    }

    /// Stable lowercase label (TSV field).
    pub fn label(self) -> &'static str {
        match self {
            VerdictTier::Failed => "failed",
            VerdictTier::Skipped => "skipped",
            VerdictTier::Tested => "tested",
            VerdictTier::Proved => "proved",
        }
    }

    /// Parses a TSV field written by [`label`](Self::label).
    pub fn from_label(s: &str) -> Option<VerdictTier> {
        match s {
            "failed" => Some(VerdictTier::Failed),
            "skipped" => Some(VerdictTier::Skipped),
            "tested" => Some(VerdictTier::Tested),
            "proved" => Some(VerdictTier::Proved),
            _ => None,
        }
    }
}

impl fmt::Display for VerdictTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A concrete operand pair on which the netlist disagrees with `a × b`.
///
/// Values are the raw (unsigned) bit patterns of the operand buses and the
/// product bus, so the mismatch can be replayed directly through
/// [`Netlist::eval_ints`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counterexample {
    /// Operand `a` bit pattern.
    pub x: u128,
    /// Operand `b` bit pattern.
    pub y: u128,
    /// What the netlist produced.
    pub got: u128,
    /// The reference product.
    pub want: u128,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {} = {}, netlist produced {}",
            self.x, self.y, self.want, self.got
        )
    }
}

/// The equivalence verdict attached to every design the pipeline emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivVerdict {
    /// Exhaustively equivalent: all `vectors` operand pairs checked.
    Proved {
        /// Number of operand pairs simulated (`4^m`).
        vectors: u64,
    },
    /// Sampled equivalence: corners plus random vectors, no mismatch.
    Tested {
        /// Number of operand pairs simulated.
        vectors: u64,
    },
    /// Not equivalent (or structurally unsound). The counterexample is
    /// absent only for structural failures, where no single vector exists.
    Failed {
        /// Human-readable description of the defect.
        reason: String,
        /// A replayable mismatch, when one was found.
        counterexample: Option<Counterexample>,
    },
    /// Verification deliberately not run.
    Skipped {
        /// Why (e.g. "verification disabled", "approximate design").
        reason: String,
    },
}

impl EquivVerdict {
    /// The verdict's strength tier.
    pub fn tier(&self) -> VerdictTier {
        match self {
            EquivVerdict::Proved { .. } => VerdictTier::Proved,
            EquivVerdict::Tested { .. } => VerdictTier::Tested,
            EquivVerdict::Failed { .. } => VerdictTier::Failed,
            EquivVerdict::Skipped { .. } => VerdictTier::Skipped,
        }
    }

    /// Number of operand pairs simulated to reach this verdict.
    pub fn vectors(&self) -> u64 {
        match self {
            EquivVerdict::Proved { vectors } | EquivVerdict::Tested { vectors } => *vectors,
            _ => 0,
        }
    }

    /// Convenience for the admission gate: see [`VerdictTier::admits`].
    pub fn admits(&self, min: VerdictTier) -> bool {
        self.tier().admits(min)
    }
}

impl fmt::Display for EquivVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivVerdict::Proved { vectors } => {
                write!(f, "proved (exhaustive, {vectors} vectors)")
            }
            EquivVerdict::Tested { vectors } => write!(f, "tested ({vectors} vectors)"),
            EquivVerdict::Failed {
                reason,
                counterexample,
            } => match counterexample {
                Some(cex) => write!(f, "FAILED: {reason}: {cex}"),
                None => write!(f, "FAILED: {reason}"),
            },
            EquivVerdict::Skipped { reason } => write!(f, "skipped ({reason})"),
        }
    }
}

/// Verifies that `nl` computes the `m × m → 2m` product `a × b`
/// (two's-complement when `signed`), rendering an [`EquivVerdict`].
///
/// The check is layered: structural invariants first (port shape,
/// combinational acyclicity — both can be violated by imported Verilog or
/// corrupted artifacts, even though the builder enforces them), then
/// exhaustive bit-parallel equivalence when `m ≤ cfg.exhaustive_limit`,
/// otherwise corner pairs plus a seeded random sweep.
///
/// Never returns `Skipped`: deciding *not* to verify is the caller's
/// policy ([`VerifyMode`]), not this function's.
pub fn verify_multiplier(nl: &Netlist, m: usize, signed: bool, cfg: &VerifyConfig) -> EquivVerdict {
    if let Some(verdict) = structural_failure(nl, m) {
        return verdict;
    }
    // Port shape is now known-good: inputs a/b of width m, output of
    // width 2m.
    if m <= cfg.exhaustive_limit && m <= 16 {
        exhaustive(nl, m, signed, cfg)
    } else {
        sampled(nl, m, signed, cfg)
    }
}

// ---------------------------------------------------------------------
// Structural tier.
// ---------------------------------------------------------------------

fn structural_failure(nl: &Netlist, m: usize) -> Option<EquivVerdict> {
    let fail = |reason: String| {
        Some(EquivVerdict::Failed {
            reason,
            counterexample: None,
        })
    };
    if m == 0 || m > 64 {
        return fail(format!("unsupported word length m={m}"));
    }
    for issue in nl.check() {
        if let CheckIssue::CombinationalCycle { net } = issue {
            return fail(format!("combinational cycle through net n{net}"));
        }
    }
    let (a, b) = match operand_ports(nl) {
        Some(ports) => ports,
        None => return fail("fewer than two input ports".into()),
    };
    for port in [a, b] {
        if nl.inputs()[port].bits.len() != m {
            return fail(format!(
                "operand port '{}' has width {}, expected {m}",
                nl.inputs()[port].name,
                nl.inputs()[port].bits.len()
            ));
        }
    }
    let p = match product_port(nl) {
        Some(p) => p,
        None => return fail("no output port".into()),
    };
    if nl.outputs()[p].bits.len() != 2 * m {
        return fail(format!(
            "product port '{}' has width {}, expected {}",
            nl.outputs()[p].name,
            nl.outputs()[p].bits.len(),
            2 * m
        ));
    }
    None
}

/// Input-port indices for the two operands: `a`/`b` by name when present,
/// otherwise the first two declared ports.
fn operand_ports(nl: &Netlist) -> Option<(usize, usize)> {
    let by_name = |want: &str| nl.inputs().iter().position(|p| p.name == want);
    match (by_name("a"), by_name("b")) {
        (Some(a), Some(b)) => Some((a, b)),
        _ if nl.inputs().len() >= 2 => Some((0, 1)),
        _ => None,
    }
}

/// Output-port index of the product: `p` by name, else the first output.
fn product_port(nl: &Netlist) -> Option<usize> {
    nl.outputs()
        .iter()
        .position(|p| p.name == "p")
        .or(if nl.outputs().is_empty() {
            None
        } else {
            Some(0)
        })
}

// ---------------------------------------------------------------------
// Compiled simulator: the netlist flattened to a step list so the hot
// loop touches no ports, no matches on Input, and a single reused buffer.
// ---------------------------------------------------------------------

struct Compiled {
    /// `(kind, in0, in1, in2, out)` for every non-input cell, in order.
    steps: Vec<(GateKind, u32, u32, u32, u32)>,
    num_nets: usize,
    a_bits: Vec<u32>,
    b_bits: Vec<u32>,
    p_bits: Vec<u32>,
}

impl Compiled {
    fn new(nl: &Netlist) -> Compiled {
        let (a, b) = operand_ports(nl).expect("checked structurally");
        let p = product_port(nl).expect("checked structurally");
        let as_idx = |bits: &[crate::netlist::NetId]| -> Vec<u32> {
            bits.iter().map(|n| n.index() as u32).collect()
        };
        Compiled {
            steps: nl
                .cells()
                .iter()
                .filter(|c| c.kind != GateKind::Input)
                .map(|c| {
                    (
                        c.kind,
                        c.inputs[0].index() as u32,
                        c.inputs[1].index() as u32,
                        c.inputs[2].index() as u32,
                        c.output.index() as u32,
                    )
                })
                .collect(),
            num_nets: nl.num_nets(),
            a_bits: as_idx(&nl.inputs()[a].bits),
            b_bits: as_idx(&nl.inputs()[b].bits),
            p_bits: as_idx(&nl.outputs()[p].bits),
        }
    }

    /// One 64-lane pass over the step list. `values` must have
    /// `num_nets` entries with the input-bit words already written.
    #[inline]
    fn run(&self, values: &mut [u64]) {
        for &(kind, i0, i1, i2, out) in &self.steps {
            let ins = [
                values[i0 as usize],
                values[i1 as usize],
                values[i2 as usize],
            ];
            values[out as usize] = kind.eval(ins);
        }
    }
}

// ---------------------------------------------------------------------
// Exhaustive tier: all 4^m pairs, 64 per pass.
// ---------------------------------------------------------------------

/// Word `i` has bit pattern `(lane >> i) & 1` across the 64 lanes: the six
/// constants that enumerate a 6-bit counter bit-parallel.
const LOW_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

#[inline]
fn splat_bit(bit: u64) -> u64 {
    // 0 → all-zero word, 1 → all-one word.
    (bit & 1).wrapping_neg()
}

fn exhaustive(nl: &Netlist, m: usize, signed: bool, cfg: &VerifyConfig) -> EquivVerdict {
    let compiled = Compiled::new(nl);
    let total: u64 = 1u64 << (2 * m); // operand pairs, ≤ 2^32
    let passes: u64 = total.div_ceil(64);
    let jobs = if cfg.jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.jobs
    };
    // Worker threads only pay off when there is real work to split.
    let jobs = if passes >= 4096 {
        jobs.min(passes as usize)
    } else {
        1
    };

    let found = AtomicBool::new(false);
    let first: Mutex<Option<(u64, Counterexample)>> = Mutex::new(None);
    let chunk = passes.div_ceil(jobs as u64);
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let start = w as u64 * chunk;
            let end = (start + chunk).min(passes);
            let compiled = &compiled;
            let found = &found;
            let first = &first;
            scope.spawn(move || {
                let mut values = vec![0u64; compiled.num_nets];
                for pass in start..end {
                    if pass % 1024 == 0 && found.load(Ordering::Relaxed) {
                        return;
                    }
                    if let Some(cex) =
                        exhaustive_pass(compiled, m, signed, total, pass, &mut values)
                    {
                        found.store(true, Ordering::Relaxed);
                        let mut slot = first.lock().unwrap();
                        // Keep the lowest-numbered mismatch so the verdict
                        // is deterministic regardless of thread timing.
                        if slot.is_none() || slot.as_ref().unwrap().0 > pass {
                            *slot = Some((pass, cex));
                        }
                        return;
                    }
                }
            });
        }
    });

    match first.into_inner().unwrap() {
        Some((_, cex)) => EquivVerdict::Failed {
            reason: "product mismatch".into(),
            counterexample: Some(cex),
        },
        None => EquivVerdict::Proved { vectors: total },
    }
}

/// Simulates operand pairs `[pass*64, pass*64+64) ∩ [0, total)` and
/// returns the first mismatch in the pass, if any.
fn exhaustive_pass(
    c: &Compiled,
    m: usize,
    signed: bool,
    total: u64,
    pass: u64,
    values: &mut [u64],
) -> Option<Counterexample> {
    let base = pass * 64;
    let lanes = (total - base).min(64) as usize;
    let mask = (1u64 << m) - 1;
    if m >= 6 && lanes == 64 {
        // Lane `i` enumerates pair `base + i`: x's low six bits are the
        // lane counter (base is 64-aligned), everything else is constant
        // across the pass.
        for (i, &net) in c.a_bits.iter().enumerate() {
            values[net as usize] = if i < 6 {
                LOW_PATTERNS[i]
            } else {
                splat_bit(base >> i)
            };
        }
        for (i, &net) in c.b_bits.iter().enumerate() {
            values[net as usize] = splat_bit(base >> (m + i));
        }
    } else {
        for (i, &net) in c.a_bits.iter().enumerate() {
            let mut w = 0u64;
            for lane in 0..lanes {
                w |= (((base + lane as u64) >> i) & 1) << lane;
            }
            values[net as usize] = w;
        }
        for (i, &net) in c.b_bits.iter().enumerate() {
            let mut w = 0u64;
            for lane in 0..lanes {
                w |= (((base + lane as u64) >> (m + i)) & 1) << lane;
            }
            values[net as usize] = w;
        }
    }
    c.run(values);

    // Expected products, one row per lane, bit-sliced to per-bit words.
    let out_mask = (1u64 << (2 * m)) - 1;
    let mut rows = [0u64; 64];
    for (lane, row) in rows.iter_mut().enumerate().take(lanes) {
        let v = base + lane as u64;
        let (x, y) = (v & mask, v >> m);
        *row = expected_u64(x, y, m, signed) & out_mask;
    }
    transpose64(&mut rows);

    let mut bad = 0u64;
    let lane_mask = if lanes == 64 {
        !0u64
    } else {
        (1u64 << lanes) - 1
    };
    for (j, &net) in c.p_bits.iter().enumerate() {
        bad |= (values[net as usize] ^ rows[j]) & lane_mask;
    }
    if bad == 0 {
        return None;
    }
    let lane = bad.trailing_zeros() as u64;
    let v = base + lane;
    let (x, y) = (v & mask, v >> m);
    let mut got = 0u128;
    for (j, &net) in c.p_bits.iter().enumerate() {
        got |= ((values[net as usize] as u128 >> lane) & 1) << j;
    }
    Some(Counterexample {
        x: x as u128,
        y: y as u128,
        got,
        want: (expected_u64(x, y, m, signed) & out_mask) as u128,
    })
}

/// Reference product for `m ≤ 16`: fits comfortably in a `u64`.
#[inline]
fn expected_u64(x: u64, y: u64, m: usize, signed: bool) -> u64 {
    if signed {
        let shift = 64 - m as u32;
        let sx = ((x as i64) << shift) >> shift;
        let sy = ((y as i64) << shift) >> shift;
        sx.wrapping_mul(sy) as u64
    } else {
        x.wrapping_mul(y)
    }
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight §7-3): after the
/// call, bit `i` of word `j` is what bit `j` of word `i` was.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            // Swap the j-bit-set positions of a[k] with the j-bit-clear
            // positions of a[k + j] (LSB-first bit numbering).
            let t = ((a[k] >> j) ^ a[k + j]) & mask;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

// ---------------------------------------------------------------------
// Sampled tier: corners + seeded random, for designs too wide to prove.
// ---------------------------------------------------------------------

/// Operand corner values for an `m`-bit word: the boundaries where
/// carry-chain, truncation, and sign-extension bugs live. For signed
/// encodings this includes both sign boundaries (−2^(m−1) = `1000…0`,
/// −1 = `111…1`) and the sign-alternating patterns `0101…`/`1010…`, so
/// Baugh-Wooley/Booth sign-extension defects cannot hide from the sweep.
fn corner_values(m: usize) -> Vec<u128> {
    let mask: u128 = if m >= 128 {
        u128::MAX
    } else {
        (1u128 << m) - 1
    };
    let half = 1u128 << (m - 1); // sign boundary −2^(m−1)
    let candidates = [
        0,
        1,
        2,
        mask,     // −1 signed / max unsigned
        mask - 1, // −2 signed
        half,
        half - 1, // +max signed
        half + 1,
        half | 1, // negative with LSB set
        0x5555_5555_5555_5555_5555_5555_5555_5555u128 & mask,
        0xAAAA_AAAA_AAAA_AAAA_AAAA_AAAA_AAAA_AAAAu128 & mask, // sign-alternating, negative
        0x3333_3333_3333_3333_3333_3333_3333_3333u128 & mask,
        0xCCCC_CCCC_CCCC_CCCC_CCCC_CCCC_CCCC_CCCCu128 & mask,
    ];
    let mut out: Vec<u128> = Vec::new();
    for c in candidates {
        let c = c & mask;
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

fn sampled(nl: &Netlist, m: usize, signed: bool, cfg: &VerifyConfig) -> EquivVerdict {
    let compiled = Compiled::new(nl);
    let mask: u128 = if m >= 128 {
        u128::MAX
    } else {
        (1u128 << m) - 1
    };
    let corners = corner_values(m);
    let mut pairs: Vec<(u128, u128)> = Vec::new();
    for &x in &corners {
        for &y in &corners {
            pairs.push((x, y));
        }
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (m as u64).rotate_left(17));
    for _ in 0..cfg.random_vectors {
        pairs.push((rng.gen::<u128>() & mask, rng.gen::<u128>() & mask));
    }

    let vectors = pairs.len() as u64;
    let mut values = vec![0u64; compiled.num_nets];
    for chunk in pairs.chunks(64) {
        if let Some(cex) = sampled_pass(&compiled, m, signed, chunk, &mut values) {
            return EquivVerdict::Failed {
                reason: "product mismatch".into(),
                counterexample: Some(cex),
            };
        }
    }
    EquivVerdict::Tested { vectors }
}

fn sampled_pass(
    c: &Compiled,
    m: usize,
    signed: bool,
    chunk: &[(u128, u128)],
    values: &mut [u64],
) -> Option<Counterexample> {
    for (i, &net) in c.a_bits.iter().enumerate() {
        let mut w = 0u64;
        for (lane, &(x, _)) in chunk.iter().enumerate() {
            w |= (((x >> i) & 1) as u64) << lane;
        }
        values[net as usize] = w;
    }
    for (i, &net) in c.b_bits.iter().enumerate() {
        let mut w = 0u64;
        for (lane, &(_, y)) in chunk.iter().enumerate() {
            w |= (((y >> i) & 1) as u64) << lane;
        }
        values[net as usize] = w;
    }
    c.run(values);

    for (lane, &(x, y)) in chunk.iter().enumerate() {
        let mut got = 0u128;
        for (j, &net) in c.p_bits.iter().enumerate() {
            got |= (((values[net as usize] >> lane) & 1) as u128) << j;
        }
        let want = expected_u128(x, y, m, signed);
        if got != want {
            return Some(Counterexample { x, y, got, want });
        }
    }
    None
}

/// Reference product for any `m ≤ 64` (2m-bit result fits in `u128`).
fn expected_u128(x: u128, y: u128, m: usize, signed: bool) -> u128 {
    let out_mask: u128 = if 2 * m >= 128 {
        u128::MAX
    } else {
        (1u128 << (2 * m)) - 1
    };
    if signed {
        let shift = 128 - m as u32;
        let sx = ((x as i128) << shift) >> shift;
        let sy = ((y as i128) << shift) >> shift;
        sx.wrapping_mul(sy) as u128 & out_mask
    } else {
        x.wrapping_mul(y) & out_mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built 2-bit array multiplier (known correct).
    fn mul2() -> Netlist {
        let mut nl = Netlist::new("mul2");
        let a = nl.add_input("a", 2);
        let b = nl.add_input("b", 2);
        let p0 = nl.and(a[0], b[0]);
        let t1 = nl.and(a[1], b[0]);
        let t2 = nl.and(a[0], b[1]);
        let t3 = nl.and(a[1], b[1]);
        let (p1, c1) = nl.half_adder(t1, t2);
        let (p2, p3) = nl.half_adder(t3, c1);
        nl.add_output("p", vec![p0, p1, p2, p3]);
        nl
    }

    /// An `m`-bit unsigned array multiplier, for wider tests.
    fn array_mul(m: usize) -> Netlist {
        let mut nl = Netlist::new(format!("array{m}"));
        let a = nl.add_input("a", m);
        let b = nl.add_input("b", m);
        let zero = nl.const0();
        let mut acc = vec![zero; 2 * m];
        for (j, &bj) in b.iter().enumerate() {
            let mut carry = nl.const0();
            for (i, &ai) in a.iter().enumerate() {
                let pp = nl.and(ai, bj);
                let (s, c1) = nl.full_adder(acc[i + j], pp, carry);
                acc[i + j] = s;
                carry = c1;
            }
            acc[j + m] = carry;
        }
        nl.add_output("p", acc);
        nl
    }

    #[test]
    fn exhaustive_proves_a_correct_multiplier() {
        let v = verify_multiplier(&mul2(), 2, false, &VerifyConfig::fast());
        assert_eq!(v, EquivVerdict::Proved { vectors: 16 });
        assert_eq!(v.tier(), VerdictTier::Proved);
        assert_eq!(v.vectors(), 16);
    }

    #[test]
    fn exhaustive_fast_path_matches_on_wider_widths() {
        // m = 7 exercises the pattern-based input build (m ≥ 6, full
        // passes) and the tail pass.
        let v = verify_multiplier(&array_mul(7), 7, false, &VerifyConfig::fast());
        assert_eq!(v, EquivVerdict::Proved { vectors: 1 << 14 });
    }

    #[test]
    fn exhaustive_finds_a_counterexample_in_a_corrupted_netlist() {
        let mut nl = mul2();
        // Flip the gate driving p[1]'s half-adder sum from XOR to XNOR.
        let p1 = nl.outputs()[0].bits[1];
        let idx = nl
            .cells()
            .iter()
            .position(|c| c.output == p1)
            .expect("p1 has a driver");
        let old = nl.inject_cell_kind(idx, GateKind::Xnor2);
        assert_eq!(old, GateKind::Xor2);
        let v = verify_multiplier(&nl, 2, false, &VerifyConfig::fast());
        let cex = match &v {
            EquivVerdict::Failed {
                counterexample: Some(cex),
                ..
            } => *cex,
            other => panic!("expected a counterexample, got {other:?}"),
        };
        // The counterexample replays: the netlist really computes `got`.
        assert_eq!(nl.eval_ints(&[cex.x, cex.y], "p"), cex.got);
        assert_ne!(cex.got, cex.want);
        assert_eq!(cex.want, cex.x * cex.y);
        // 0 × 0 is unaffected by a sum-bit flip only if the XNOR output
        // differs — which it does: the lowest mismatching pair is (0, 0).
        assert_eq!(v.tier(), VerdictTier::Failed);
        assert!(!v.admits(VerdictTier::Skipped));
    }

    #[test]
    fn sampled_tier_tests_wide_designs() {
        let cfg = VerifyConfig {
            exhaustive_limit: 4, // force the sampled path at m = 6
            random_vectors: 128,
            ..VerifyConfig::fast()
        };
        let v = verify_multiplier(&array_mul(6), 6, false, &cfg);
        match v {
            EquivVerdict::Tested { vectors } => assert!(vectors > 128),
            other => panic!("expected Tested, got {other:?}"),
        }
    }

    #[test]
    fn sampled_tier_catches_corruption_via_corners() {
        let mut nl = array_mul(6);
        // Corrupt the driver of the top product bit (the final carry, a
        // Maj3): it only misbehaves when the top partial product fires,
        // so corner coverage (e.g. −2^(m−1) × −2^(m−1)) is what catches
        // it — a Mux2 with the same pins agrees with Maj3 except when
        // the middle input is 1 and the carry-in is 0.
        let top = nl.outputs()[0].bits[11];
        let idx = nl.cells().iter().position(|c| c.output == top).unwrap();
        let old = nl.inject_cell_kind(idx, GateKind::Mux2);
        assert_eq!(old, GateKind::Maj3);
        let cfg = VerifyConfig {
            exhaustive_limit: 4,
            random_vectors: 0, // corners only
            ..VerifyConfig::fast()
        };
        let v = verify_multiplier(&nl, 6, false, &cfg);
        assert_eq!(v.tier(), VerdictTier::Failed);
    }

    #[test]
    fn signed_reference_handles_sign_boundaries() {
        // −8 × −8 = 64 for m = 4; raw bit patterns: 8 × 8.
        assert_eq!(expected_u64(8, 8, 4, true), 64);
        // −1 × −1 = 1: patterns 15 × 15.
        assert_eq!(expected_u64(15, 15, 4, true), 1);
        // −1 × 1 = −1 → 0xFF in 8 product bits.
        assert_eq!(expected_u64(15, 1, 4, true) & 0xFF, 0xFF);
        assert_eq!(expected_u128(15, 15, 4, true), 1);
        assert_eq!(
            expected_u128((1 << 31) | 1, 3, 32, true),
            expected_u64((1 << 31) | 1, 3, 32, true) as u128 & ((1u128 << 64) - 1)
        );
    }

    #[test]
    fn corner_values_cover_sign_boundaries() {
        for m in [4usize, 8, 16, 32] {
            let cs = corner_values(m);
            let mask = (1u128 << m) - 1;
            let half = 1u128 << (m - 1);
            assert!(cs.contains(&0));
            assert!(cs.contains(&mask), "−1 / max at m={m}");
            assert!(cs.contains(&half), "−2^(m−1) at m={m}");
            assert!(cs.contains(&(half - 1)), "+max at m={m}");
            assert!(
                cs.contains(&(0xAAAA_AAAA_AAAA_AAAA_AAAA_AAAA_AAAA_AAAAu128 & mask)),
                "sign-alternating at m={m}"
            );
            // All values are in range and distinct.
            assert!(cs.iter().all(|&c| c <= mask));
            let mut sorted = cs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), cs.len());
        }
    }

    #[test]
    fn structural_checks_reject_bad_port_shapes() {
        // Wrong operand width.
        let v = verify_multiplier(&mul2(), 3, false, &VerifyConfig::fast());
        assert_eq!(v.tier(), VerdictTier::Failed);
        // A netlist with no outputs.
        let mut nl = Netlist::new("t");
        nl.add_input("a", 2);
        nl.add_input("b", 2);
        let v = verify_multiplier(&nl, 2, false, &VerifyConfig::fast());
        match v {
            EquivVerdict::Failed {
                counterexample: None,
                ..
            } => {}
            other => panic!("structural failure has no counterexample: {other:?}"),
        }
    }

    #[test]
    fn verdict_tiers_order_and_admit() {
        use VerdictTier::*;
        assert!(Failed < Skipped && Skipped < Tested && Tested < Proved);
        assert!(Proved.admits(Proved));
        assert!(Proved.admits(Skipped));
        assert!(Tested.admits(Tested));
        assert!(!Tested.admits(Proved));
        assert!(Skipped.admits(Skipped));
        assert!(!Skipped.admits(Tested));
        // Failed is inadmissible even under the weakest policy.
        assert!(!Failed.admits(Failed));
        assert!(!Failed.admits(Skipped));
        for t in [Failed, Skipped, Tested, Proved] {
            assert_eq!(VerdictTier::from_label(t.label()), Some(t));
        }
        assert_eq!(VerdictTier::from_label("bogus"), None);
    }

    #[test]
    fn verify_mode_parses_and_maps_to_budgets() {
        assert_eq!(VerifyMode::from_name("off"), Some(VerifyMode::Off));
        assert_eq!(VerifyMode::from_name("FAST"), Some(VerifyMode::Fast));
        assert_eq!(VerifyMode::from_name("strict"), Some(VerifyMode::Strict));
        assert_eq!(VerifyMode::from_name("paranoid"), None);
        assert!(VerifyMode::Off.config().is_none());
        assert_eq!(VerifyMode::Fast.config().unwrap().exhaustive_limit, 8);
        assert_eq!(VerifyMode::Strict.config().unwrap().exhaustive_limit, 16);
        assert_eq!(VerifyMode::default(), VerifyMode::Fast);
        for mode in [VerifyMode::Off, VerifyMode::Fast, VerifyMode::Strict] {
            assert_eq!(VerifyMode::from_name(mode.label()), Some(mode));
        }
    }

    #[test]
    fn counterexample_display_names_the_product() {
        let cex = Counterexample {
            x: 3,
            y: 5,
            got: 14,
            want: 15,
        };
        assert_eq!(cex.to_string(), "3 × 5 = 15, netlist produced 14");
        let v = EquivVerdict::Failed {
            reason: "product mismatch".into(),
            counterexample: Some(cex),
        };
        assert!(v.to_string().contains('×'));
    }

    #[test]
    fn transpose64_is_an_involution_and_transposes() {
        let mut a = [0u64; 64];
        for (i, w) in a.iter_mut().enumerate() {
            *w = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (1 << (i % 64));
        }
        let orig = a;
        transpose64(&mut a);
        for (i, row) in orig.iter().enumerate() {
            for (j, col) in a.iter().enumerate() {
                assert_eq!((col >> i) & 1, (row >> j) & 1, "({i},{j})");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn exhaustive_limit_zero_forces_the_sampled_tier() {
        let cfg = VerifyConfig {
            exhaustive_limit: 0,
            random_vectors: 16,
            ..VerifyConfig::fast()
        };
        let v = verify_multiplier(&mul2(), 2, false, &cfg);
        assert_eq!(v.tier(), VerdictTier::Tested);
    }
}
