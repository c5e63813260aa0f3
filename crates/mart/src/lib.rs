//! # gomil-mart — a precomputed design mart for zero-solve serving
//!
//! A cache hit costs orders of magnitude less than a cold solve, so the
//! scaling answer for the hot part of the (m, PPG kind, config) lattice is
//! to make warmth the default: sweep the lattice through the full
//! solver/ladder/verify pipeline **offline**, persist the certified
//! outcomes in a versioned, checksummed store, and
//! let [`SolveService`](gomil_serve::SolveService) consult that store
//! before the LRU cache and the solver. A mart-covered request is then a
//! hash-plus-key-compare lookup — zero solver invocations, zero admission
//! permits — and solver capacity is reserved for the long tail. This is
//! the design-library amortization move (Arm RTL-Books style): pay for
//! exact ILP solves once, serve them forever.
//!
//! ## On-disk format (version 2, little-endian)
//!
//! The layout is memory-map friendly — fixed-width header, fixed-width
//! sorted index, offset-addressed records — though this dependency-free,
//! `forbid(unsafe_code)` implementation reads the file eagerly:
//!
//! ```text
//! header   48 B   magic "GOMLMART" | format u32 | solver_version u32 |
//!                 count u64 | index_off u64 | records_off u64 |
//!                 FNV-1a(bytes 0..40) u64
//! index    count × 32 B, sorted by (hash, key):
//!                 key hash u64 | record_off u64 | record_len u64 |
//!                 FNV-1a(hash_le ‖ record bytes) u64
//! records  key_len u32 | canonical key | line_len u32 |
//!                 ServeOutcome line
//! ```
//!
//! Entries are keyed by the **full canonical [`SolveKey`] string** — the
//! 64-bit hash in the index only places an entry, the key compare decides
//! identity, so a hash collision (or a forged index) can never serve the
//! wrong design. The per-entry checksum covers the stored hash *and* the
//! record bytes, so a single flipped bit anywhere in an index slot or its
//! record drops exactly that entry at load. Loading is tolerant
//! (truncated or corrupt entries are skipped, mirroring the cache
//! loader); writing is atomic (temp file + fsync + rename).
//!
//! ## Solver versions
//!
//! The canonical key carries the solver version that produced the entry
//! (the `gomil` crate puts it in the solve fingerprint), so an entry built
//! by another solver version matches no request. The header records the
//! version the mart was built with, for `gomil mart stats`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gomil_serve::{fnv1a_64, DesignStore, ServeOutcome, SolveKey, VerdictTier};
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;

/// Magic bytes opening every mart file.
pub const MAGIC: &[u8; 8] = b"GOMLMART";
/// On-disk format version this crate reads and writes.
pub const FORMAT_VERSION: u32 = 2;
/// Header size in bytes.
const HEADER_LEN: usize = 48;
/// Index slot size in bytes.
const SLOT_LEN: usize = 32;

fn u32_at(bytes: &[u8], off: usize) -> Option<u32> {
    Some(u32::from_le_bytes(
        bytes.get(off..off + 4)?.try_into().ok()?,
    ))
}

fn u64_at(bytes: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        bytes.get(off..off + 8)?.try_into().ok()?,
    ))
}

/// The checksum guarding one index slot and its record: the stored hash
/// is folded in so a flipped bit in the *index* (not just the record) is
/// also caught.
fn entry_checksum(hash: u64, record: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(8 + record.len());
    buf.extend_from_slice(&hash.to_le_bytes());
    buf.extend_from_slice(record);
    fnv1a_64(&buf)
}

/// One loaded mart entry.
#[derive(Debug, Clone)]
struct MartEntry {
    /// Index hash (normally `fnv1a_64(key)`; a forged index can differ —
    /// placement only, never identity).
    hash: u64,
    key: String,
    outcome: ServeOutcome,
}

/// A read-only, loaded design mart. Implements
/// [`DesignStore`] so it can be attached to a `SolveService` via
/// `with_mart`.
#[derive(Debug, Default)]
pub struct Mart {
    solver_version: u32,
    /// Sorted by `(hash, key)` for binary-search lookup.
    entries: Vec<MartEntry>,
    skipped: usize,
}

/// Point-in-time summary of a mart, printed by `gomil mart stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MartStats {
    /// Entries served.
    pub entries: usize,
    /// Corrupt or truncated entries skipped at load.
    pub skipped: usize,
    /// Solver version recorded in the header.
    pub solver_version: u32,
    /// Entries per verdict tier `[proved, tested, skipped, failed]`.
    pub verdicts: [usize; 4],
    /// Smallest and largest multiplier width covered (0,0 when empty).
    pub m_range: (usize, usize),
}

/// Per-file integrity audit, printed by `gomil mart verify`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Entries whose checksum, record encoding and outcome line all check
    /// out and whose index hash equals the FNV of their key.
    pub ok: usize,
    /// Entries dropped for a checksum/bounds/encoding failure.
    pub corrupt: usize,
    /// Well-formed entries whose index hash does *not* equal the FNV of
    /// their stored key (a forged or bit-rotted index): still served
    /// safely (the key compare is authoritative) but worth flagging.
    pub hash_mismatch: usize,
}

impl VerifyReport {
    /// Whether the file is pristine.
    pub fn clean(&self) -> bool {
        self.corrupt == 0 && self.hash_mismatch == 0
    }
}

impl Mart {
    /// Loads a mart file. Tolerant like the cache loader: truncated or
    /// corrupt entries are *skipped*, never fatal — only a file that
    /// positively is not a mart (wrong magic on a non-truncated prefix,
    /// or an unknown format version) errors.
    pub fn load(path: &Path) -> io::Result<Mart> {
        let bytes = std::fs::read(path)?;
        Mart::from_bytes(&bytes)
    }

    /// [`load`](Self::load) from an in-memory image.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Mart> {
        // Wrong magic = positively not a mart file; a short prefix *of*
        // the magic is indistinguishable from a torn header and loads as
        // an empty mart instead.
        let magic_len = bytes.len().min(MAGIC.len());
        if bytes[..magic_len] != MAGIC[..magic_len] {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a gomil mart file (bad magic)",
            ));
        }
        if bytes.len() < HEADER_LEN {
            return Ok(Mart::default()); // torn header: nothing trustworthy
        }
        let stored = u64_at(bytes, 40).expect("header length checked");
        if fnv1a_64(&bytes[..40]) != stored {
            return Ok(Mart::default()); // torn/corrupt header fields
        }
        let format = u32_at(bytes, 8).expect("header length checked");
        if format != FORMAT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "unsupported mart format version {format} (this build reads \
                     {FORMAT_VERSION}); rebuild it with `gomil mart build`"
                ),
            ));
        }
        let solver_version = u32_at(bytes, 12).expect("header length checked");
        let count = u64_at(bytes, 16).expect("header length checked") as usize;
        let index_off = u64_at(bytes, 24).expect("header length checked") as usize;

        let mut entries = Vec::with_capacity(count.min(1 << 20));
        let mut skipped = 0usize;
        for i in 0..count {
            let Some(slot) = index_off
                .checked_add(i * SLOT_LEN)
                .filter(|&s| s + SLOT_LEN <= bytes.len())
            else {
                // Index truncated: everything from here on is gone.
                skipped += count - i;
                break;
            };
            match Self::load_entry(bytes, slot) {
                Some(entry) => entries.push(entry),
                None => skipped += 1,
            }
        }
        // The writer sorts by (hash, key); re-sort defensively so lookup
        // stays correct even against a shuffled index.
        entries.sort_by(|a, b| (a.hash, a.key.as_str()).cmp(&(b.hash, b.key.as_str())));
        Ok(Mart {
            solver_version,
            entries,
            skipped,
        })
    }

    fn load_entry(bytes: &[u8], slot: usize) -> Option<MartEntry> {
        let hash = u64_at(bytes, slot)?;
        let record_off = u64_at(bytes, slot + 8)? as usize;
        let record_len = u64_at(bytes, slot + 16)? as usize;
        let checksum = u64_at(bytes, slot + 24)?;
        let record = bytes.get(record_off..record_off.checked_add(record_len)?)?;
        if entry_checksum(hash, record) != checksum {
            return None;
        }
        let key_len = u32_at(record, 0)? as usize;
        let key = std::str::from_utf8(record.get(4..4 + key_len)?).ok()?;
        let line_len = u32_at(record, 4 + key_len)? as usize;
        let line_off = 8 + key_len;
        let line = std::str::from_utf8(record.get(line_off..line_off + line_len)?).ok()?;
        let outcome = ServeOutcome::from_line(line)?;
        Some(MartEntry {
            hash,
            key: key.to_string(),
            outcome,
        })
    }

    /// Entries skipped at load because they were truncated or corrupt.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Solver version recorded in the mart header.
    pub fn solver_version(&self) -> u32 {
        self.solver_version
    }

    /// Iterates `(canonical key, outcome)` in `(hash, key)` order — the
    /// refresh builder walks this to decide which entries to carry over
    /// and which to re-solve.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &ServeOutcome)> {
        self.entries.iter().map(|e| (e.key.as_str(), &e.outcome))
    }

    /// First index position whose hash is `hash`.
    fn hash_start(&self, hash: u64) -> usize {
        self.entries.partition_point(|e| e.hash < hash)
    }

    /// Summarizes the mart.
    pub fn stats(&self) -> MartStats {
        let mut verdicts = [0usize; 4];
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for e in &self.entries {
            let idx = match e.outcome.verdict {
                VerdictTier::Proved => 0,
                VerdictTier::Tested => 1,
                VerdictTier::Skipped => 2,
                VerdictTier::Failed => 3,
            };
            verdicts[idx] += 1;
            lo = lo.min(e.outcome.m);
            hi = hi.max(e.outcome.m);
        }
        MartStats {
            entries: self.entries.len(),
            skipped: self.skipped,
            solver_version: self.solver_version,
            verdicts,
            m_range: if self.entries.is_empty() {
                (0, 0)
            } else {
                (lo, hi)
            },
        }
    }

    /// Strict integrity audit of a mart file: re-checks every checksum
    /// and record encoding and flags index hashes that do not match the
    /// FNV of their key.
    pub fn verify_file(path: &Path) -> io::Result<VerifyReport> {
        let bytes = std::fs::read(path)?;
        let mart = Mart::from_bytes(&bytes)?;
        let mut report = VerifyReport {
            corrupt: mart.skipped,
            ..VerifyReport::default()
        };
        for e in &mart.entries {
            if e.hash == fnv1a_64(e.key.as_bytes()) {
                report.ok += 1;
            } else {
                report.hash_mismatch += 1;
            }
        }
        Ok(report)
    }
}

impl DesignStore for Mart {
    fn get(&self, key: &SolveKey) -> Option<ServeOutcome> {
        let hash = key.hash64();
        self.entries[self.hash_start(hash)..]
            .iter()
            .take_while(|e| e.hash == hash)
            .find(|e| e.key == key.canonical())
            .map(|e| e.outcome.clone())
    }

    fn find_by_hash(&self, hash: u64) -> Option<(String, ServeOutcome)> {
        self.entries[self.hash_start(hash)..]
            .iter()
            .take_while(|e| e.hash == hash)
            .map(|e| (e.key.clone(), e.outcome.clone()))
            .next()
    }

    fn find_by_hash_checked(
        &self,
        hash: u64,
        expected_key: Option<&str>,
    ) -> Option<(String, ServeOutcome)> {
        self.entries[self.hash_start(hash)..]
            .iter()
            .take_while(|e| e.hash == hash)
            .find(|e| expected_key.is_none_or(|k| k == e.key))
            .map(|e| (e.key.clone(), e.outcome.clone()))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Accumulates entries and writes a mart file atomically.
#[derive(Debug)]
pub struct MartBuilder {
    solver_version: u32,
    /// key → (index hash, outcome line). Keyed by canonical key so
    /// re-inserting a key replaces the entry.
    entries: BTreeMap<String, (u64, String)>,
}

impl MartBuilder {
    /// A builder stamping `solver_version` into the header.
    pub fn new(solver_version: u32) -> MartBuilder {
        MartBuilder {
            solver_version,
            entries: BTreeMap::new(),
        }
    }

    /// Inserts (or replaces) the outcome for `key`.
    pub fn insert(&mut self, key: &SolveKey, outcome: &ServeOutcome) {
        self.insert_raw(key.hash64(), key.canonical(), outcome);
    }

    /// Test/audit escape hatch: stores `outcome` under an *arbitrary*
    /// index hash, allowing a forced hash collision (two keys, one hash)
    /// that real FNV inputs cannot practically produce. Readers must stay
    /// correct anyway: the index hash only places an entry, the key
    /// compare decides identity.
    pub fn insert_raw(&mut self, hash: u64, canonical: &str, outcome: &ServeOutcome) {
        self.entries
            .insert(canonical.to_string(), (hash, outcome.to_line()));
    }

    /// Entries accumulated so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries were inserted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the mart image (header + sorted index + records).
    pub fn to_bytes(&self) -> Vec<u8> {
        // Sort by (hash, key) — the lookup order.
        let mut sorted: Vec<(&String, &(u64, String))> = self.entries.iter().collect();
        sorted.sort_by(|a, b| (a.1 .0, a.0.as_str()).cmp(&(b.1 .0, b.0.as_str())));

        let count = sorted.len();
        let records_off = HEADER_LEN + count * SLOT_LEN;
        let mut index = Vec::with_capacity(count * SLOT_LEN);
        let mut records = Vec::new();
        for (key, (hash, line)) in sorted {
            let mut record = Vec::with_capacity(8 + key.len() + line.len());
            record.extend_from_slice(&(key.len() as u32).to_le_bytes());
            record.extend_from_slice(key.as_bytes());
            record.extend_from_slice(&(line.len() as u32).to_le_bytes());
            record.extend_from_slice(line.as_bytes());
            index.extend_from_slice(&hash.to_le_bytes());
            index.extend_from_slice(&((records_off + records.len()) as u64).to_le_bytes());
            index.extend_from_slice(&(record.len() as u64).to_le_bytes());
            index.extend_from_slice(&entry_checksum(*hash, &record).to_le_bytes());
            records.extend_from_slice(&record);
        }

        let mut out = Vec::with_capacity(records_off + records.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.solver_version.to_le_bytes());
        out.extend_from_slice(&(count as u64).to_le_bytes());
        out.extend_from_slice(&(HEADER_LEN as u64).to_le_bytes());
        out.extend_from_slice(&(records_off as u64).to_le_bytes());
        let header_sum = fnv1a_64(&out[..40]);
        out.extend_from_slice(&header_sum.to_le_bytes());
        out.extend_from_slice(&index);
        out.extend_from_slice(&records);
        out
    }

    /// Writes the mart atomically — temp file in the same directory,
    /// flushed and fsynced, then renamed over `path` — so a crash
    /// mid-write can never tear an existing mart. Returns the entry count.
    pub fn write(&self, path: &Path) -> io::Result<usize> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let result = self.write_to_tmp(&tmp, path);
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result
    }

    fn write_to_tmp(&self, tmp: &Path, path: &Path) -> io::Result<usize> {
        let bytes = self.to_bytes();
        let mut file = std::fs::File::create(tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        std::fs::rename(tmp, path)?;
        Ok(self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomil_serve::{DesignMetrics, PpgKind, SolveCounters};

    fn outcome(m: usize, ppg: PpgKind) -> ServeOutcome {
        ServeOutcome {
            name: format!("M-{}-{}", ppg.label(), m),
            m,
            ppg,
            metrics: DesignMetrics {
                area: m as f64 * 3.5,
                delay: 2.25,
                power: 1.5,
            },
            gates: 4 * m,
            verified: true,
            strategy: "target-search".into(),
            objective: m as f64 * 3.5,
            degraded: false,
            vs_counts: vec![2; 2 * m - 1],
            solver_gap: 0.0,
            verdict: VerdictTier::Proved,
            counters: SolveCounters {
                solver_nodes: 100 + m as u64,
                solver_lp_iters: 4_000,
                verify_vectors: 65_536,
                verify_us: 1_200,
                ..SolveCounters::default()
            },
            improvements: vec![(100, m as f64 * 4.0), (900, m as f64 * 3.5)],
        }
    }

    fn sample_builder() -> (MartBuilder, Vec<(SolveKey, ServeOutcome)>) {
        let mut b = MartBuilder::new(3);
        let mut expected = Vec::new();
        for (m, ppg) in [
            (4, PpgKind::And),
            (4, PpgKind::Booth4),
            (8, PpgKind::And),
            (8, PpgKind::BaughWooley),
        ] {
            let key = SolveKey::new(m, ppg, "w=8;test");
            let o = outcome(m, ppg);
            b.insert(&key, &o);
            expected.push((key, o));
        }
        (b, expected)
    }

    #[test]
    fn roundtrip_is_byte_exact() {
        let (b, expected) = sample_builder();
        let mart = Mart::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(mart.len(), 4);
        assert_eq!(mart.skipped(), 0);
        assert_eq!(mart.solver_version(), 3);
        for (key, o) in &expected {
            assert_eq!(mart.get(key).as_ref(), Some(o), "exact for {key}");
            let (canonical, found) = mart.find_by_hash(key.hash64()).unwrap();
            assert_eq!(canonical, key.canonical());
            assert_eq!(&found, o);
        }
        assert!(mart
            .get(&SolveKey::new(16, PpgKind::And, "w=8;test"))
            .is_none());
        assert!(mart.find_by_hash(0xdead_beef).is_none());
    }

    #[test]
    fn write_is_atomic_and_loads_back() {
        let dir = std::env::temp_dir().join(format!("gomil-mart-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("designs.mart");
        let (b, expected) = sample_builder();
        assert_eq!(b.write(&path).unwrap(), 4);
        let residue: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(residue.is_empty(), "temp files must be renamed away");
        let mart = Mart::load(&path).unwrap();
        assert_eq!(mart.len(), 4);
        assert_eq!(mart.get(&expected[0].0).as_ref(), Some(&expected[0].1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Torn-write resilience, mirroring the cache v2 loader test:
    /// truncating the image at *every* byte offset must load cleanly —
    /// fewer entries, never a wrong or partial one, never a panic.
    #[test]
    fn truncation_at_every_offset_loads_cleanly_or_skips() {
        let (b, expected) = sample_builder();
        let bytes = b.to_bytes();
        for cut in 0..bytes.len() {
            let mart = match Mart::from_bytes(&bytes[..cut]) {
                Ok(m) => m,
                Err(e) => panic!("truncation at {cut} must not error: {e}"),
            };
            assert!(mart.len() <= expected.len());
            for (key, o) in &expected {
                if let Some(served) = mart.get(key) {
                    assert_eq!(&served, o, "cut at {cut}: a served entry must be exact");
                }
            }
        }
        // The untouched image still serves everything.
        assert_eq!(Mart::from_bytes(&bytes).unwrap().len(), expected.len());
    }

    /// Flipping any single byte must never change a served outcome: the
    /// affected entry is dropped (checksum) or the load errors (magic /
    /// format) — anything still served is byte-exact.
    #[test]
    fn single_byte_corruption_never_serves_a_wrong_design() {
        let (b, expected) = sample_builder();
        let bytes = b.to_bytes();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x41;
            let Ok(mart) = Mart::from_bytes(&bad) else {
                continue; // magic/format corruption: refused outright
            };
            for (key, o) in &expected {
                if let Some(served) = mart.get(key) {
                    assert_eq!(&served, o, "flip at {pos}: served entry must be exact");
                }
            }
        }
    }

    /// A forged index can place two different keys under one 64-bit hash
    /// — the scenario a real FNV collision would produce. The key compare
    /// must stay authoritative: the checked lookup returns exactly the
    /// requested design and `get` never crosses keys.
    #[test]
    fn forced_hash_collision_resolves_by_full_key() {
        let shared = 0x1234_5678_9abc_def0u64;
        let a = SolveKey::new(4, PpgKind::And, "w=8;test");
        let b_key = SolveKey::new(8, PpgKind::And, "w=8;test");
        let oa = outcome(4, PpgKind::And);
        let ob = outcome(8, PpgKind::And);
        let mut builder = MartBuilder::new(1);
        builder.insert_raw(shared, a.canonical(), &oa);
        builder.insert_raw(shared, b_key.canonical(), &ob);
        let mart = Mart::from_bytes(&builder.to_bytes()).unwrap();
        assert_eq!(mart.len(), 2);

        let (ka, found_a) = mart
            .find_by_hash_checked(shared, Some(a.canonical()))
            .unwrap();
        assert_eq!(ka, a.canonical());
        assert_eq!(found_a, oa);
        let (kb, found_b) = mart
            .find_by_hash_checked(shared, Some(b_key.canonical()))
            .unwrap();
        assert_eq!(kb, b_key.canonical());
        assert_eq!(found_b, ob);
        assert!(
            mart.find_by_hash_checked(shared, Some("v1;m=16;ppg=AND;w=8;test"))
                .is_none(),
            "a third key under the same hash must miss, not mis-serve"
        );
        // The unchecked lookup still returns *a* design with its true key
        // attached, so callers can detect the ambiguity.
        let (k, _) = mart.find_by_hash(shared).unwrap();
        assert!(k == a.canonical() || k == b_key.canonical());
        // `get` computes the true FNV hash, which differs from the forged
        // index hash, so by-key lookup misses rather than guessing.
        assert!(mart.get(&a).is_none());
        // The auditor flags the forged placement.
        let dir = std::env::temp_dir().join(format!("gomil-mart-forged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("forged.mart");
        builder.write(&path).unwrap();
        let report = Mart::verify_file(&path).unwrap();
        assert_eq!(report.hash_mismatch, 2);
        assert!(!report.clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_and_verify_summarize_the_store() {
        let (mut b, _) = sample_builder();
        // One more entry with a lower verdict tier.
        let key = SolveKey::new(12, PpgKind::And, "w=8;test");
        let mut tested = outcome(12, PpgKind::And);
        tested.verdict = VerdictTier::Tested;
        b.insert(&key, &tested);
        let mart = Mart::from_bytes(&b.to_bytes()).unwrap();
        let stats = mart.stats();
        assert_eq!(stats.entries, 5);
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.solver_version, 3);
        assert_eq!(stats.verdicts, [4, 1, 0, 0]);
        assert_eq!(stats.m_range, (4, 12));
        // Refresh iteration sees every key with its outcome.
        let below_proved: Vec<&str> = mart
            .entries()
            .filter(|(_, o)| o.verdict < VerdictTier::Proved)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(below_proved, vec![key.canonical()]);

        let dir = std::env::temp_dir().join(format!("gomil-mart-stats-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("designs.mart");
        b.write(&path).unwrap();
        let report = Mart::verify_file(&path).unwrap();
        assert_eq!(report.ok, 5);
        assert!(report.clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_magic_and_future_format_are_refused() {
        assert!(Mart::from_bytes(b"NOTAMART________").is_err());
        let (b, _) = sample_builder();
        // A future format is refused, and so is format 1, which stamped
        // each entry with its solver version.
        for version in [99u8, 1] {
            let mut bytes = b.to_bytes();
            bytes[8] = version;
            // Re-stamp the header checksum so only the version is "wrong".
            let sum = fnv1a_64(&bytes[..40]);
            bytes[40..48].copy_from_slice(&sum.to_le_bytes());
            let err = Mart::from_bytes(&bytes).unwrap_err().to_string();
            assert!(err.contains("format version"), "{err}");
            assert!(err.contains("gomil mart build"), "{err}");
        }
    }
}
