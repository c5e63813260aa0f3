//! # gomil-mart — a precomputed design mart for zero-solve serving
//!
//! A cache hit costs orders of magnitude less than a cold solve, so the
//! scaling answer for the hot part of the (m, PPG kind, config) lattice is
//! to make warmth the default: sweep the lattice through the full
//! solver/ladder/verify pipeline **offline**, persist the certified
//! outcomes in a checksummed, read-only file, and
//! let [`SolveService`](gomil_serve::SolveService) consult that store
//! before the LRU cache and the solver. A mart-covered request is then a
//! key lookup — zero solver invocations, zero admission permits — and
//! solver capacity is reserved for the long tail. This is the
//! design-library amortization move (Arm RTL-Books style): pay for exact
//! ILP solves once, serve them forever.
//!
//! ## On-disk format
//!
//! A mart file is the cache's design line file
//! ([`write_design_lines`]): the [`PERSIST_HEADER`] line, then one
//! `canonical key \t outcome \t #FNV-1a` line per design. [`Mart::write`]
//! writes it atomically (temp file, fsync, rename) and in key order, so
//! two writes of the same designs give the same bytes. [`Mart::load`]
//! reads it with the cache's reader ([`read_design_lines`]): a torn or
//! corrupt line — a failed checksum, bytes that are not UTF-8, an outcome
//! for another (m, PPG) than its key names — is skipped and counted,
//! never served. A file whose first line is not the header (an empty
//! file, a torn header, another version, or the binary format of older
//! builds) is refused with an error that says to rebuild it with
//! `gomil mart build`. A saved cache file loads as a mart.
//!
//! ## Solver versions
//!
//! The canonical key carries the solver version that produced the entry
//! (the `gomil` crate puts it in the solve fingerprint), so an entry built
//! by another solver version matches no request.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gomil_serve::{
    fnv1a_64, read_design_lines, write_design_lines, DesignStore, ServeOutcome, SolveKey,
    VerdictTier, PERSIST_HEADER,
};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// A design mart: the designs of one line file by canonical key, with
/// the count of lines skipped when it was loaded. `gomil mart build`
/// fills one with [`insert`](Self::insert) and persists it with
/// [`write`](Self::write); [`load`](Self::load) reads it back, and its
/// [`DesignStore`] implementation attaches it read-only to a
/// `SolveService` via `with_mart`.
#[derive(Debug, Default)]
pub struct Mart {
    entries: BTreeMap<String, ServeOutcome>,
    skipped: usize,
}

/// Point-in-time summary of a mart, printed by `gomil mart stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MartStats {
    /// Entries served.
    pub entries: usize,
    /// Corrupt or truncated lines skipped at load.
    pub skipped: usize,
    /// Entries per verdict tier `[proved, tested, skipped, failed]`.
    pub verdicts: [usize; 4],
    /// Smallest and largest multiplier width covered (0,0 when empty).
    pub m_range: (usize, usize),
}

impl Mart {
    /// Loads a mart file. Torn or corrupt lines are skipped and counted
    /// ([`skipped`](Self::skipped)), never fatal.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, and refuses with `InvalidData` a file whose
    /// first line is not [`PERSIST_HEADER`].
    pub fn load(path: &Path) -> io::Result<Mart> {
        let lines = read_design_lines(path)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "not a design mart (its first line is not `{PERSIST_HEADER}`); \
                     rebuild it with `gomil mart build`"
                ),
            )
        })?;
        let entries = lines
            .entries
            .into_iter()
            .map(|(key, outcome)| (key.canonical().to_string(), outcome))
            .collect();
        Ok(Mart {
            entries,
            skipped: lines.skipped,
        })
    }

    /// Inserts (or replaces) the outcome for `key`.
    pub fn insert(&mut self, key: &SolveKey, outcome: &ServeOutcome) {
        self.entries
            .insert(key.canonical().to_string(), outcome.clone());
    }

    /// Writes the mart to `path` atomically, in key order. Returns the
    /// entry count.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> io::Result<usize> {
        write_design_lines(path, self.entries.iter().map(|(k, o)| (k.as_str(), o)))
    }

    /// Lines skipped at load because they were truncated or corrupt.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Summarizes the mart.
    pub fn stats(&self) -> MartStats {
        let mut verdicts = [0usize; 4];
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for outcome in self.entries.values() {
            let idx = match outcome.verdict {
                VerdictTier::Proved => 0,
                VerdictTier::Tested => 1,
                VerdictTier::Skipped => 2,
                VerdictTier::Failed => 3,
            };
            verdicts[idx] += 1;
            lo = lo.min(outcome.m);
            hi = hi.max(outcome.m);
        }
        MartStats {
            entries: self.entries.len(),
            skipped: self.skipped,
            verdicts,
            m_range: if self.entries.is_empty() {
                (0, 0)
            } else {
                (lo, hi)
            },
        }
    }
}

impl DesignStore for Mart {
    fn get(&self, key: &SolveKey) -> Option<ServeOutcome> {
        self.entries.get(key.canonical()).cloned()
    }

    fn find_by_hash(&self, hash: u64) -> Option<(String, ServeOutcome)> {
        self.entries
            .iter()
            .find(|(key, _)| fnv1a_64(key.as_bytes()) == hash)
            .map(|(key, outcome)| (key.clone(), outcome.clone()))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomil_serve::{DesignMetrics, PpgKind, ShardedCache, SolveCounters};
    use std::path::PathBuf;

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

    const LATTICE: [(usize, PpgKind); 4] = [
        (4, PpgKind::And),
        (4, PpgKind::Booth4),
        (8, PpgKind::And),
        (8, PpgKind::BaughWooley),
    ];

    fn sample() -> (Mart, Vec<(SolveKey, ServeOutcome)>) {
        let mut mart = Mart::default();
        let mut expected = Vec::new();
        for (m, ppg) in LATTICE {
            let key = SolveKey::new(m, ppg, "w=8;test");
            let o = outcome(m, ppg);
            mart.insert(&key, &o);
            expected.push((key, o));
        }
        (mart, expected)
    }

    /// A fresh directory for one test's files.
    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gomil-mart-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A design line for `content` (`key \t outcome`), stamped with its
    /// checksum.
    fn stamped(content: &str) -> String {
        format!("{content}\t#{:016x}\n", fnv1a_64(content.as_bytes()))
    }

    /// Loads `path` through both loaders, checks that the cache never
    /// errors and that each loader serves only exact designs, and returns
    /// the mart (or its refusal) and the number of designs the cache
    /// loaded.
    fn load_both(
        path: &Path,
        expected: &[(SolveKey, ServeOutcome)],
        what: &str,
    ) -> (io::Result<Mart>, usize) {
        let cache = ShardedCache::new(4, 16);
        let (loaded, _) = cache
            .load(path)
            .unwrap_or_else(|e| panic!("{what}: the cache loader must not error: {e}"));
        let mart = Mart::load(path);
        for (key, o) in expected {
            if let Some(served) = cache.probe(key) {
                assert_eq!(&served, o, "{what}: the cache served a wrong design");
            }
            if let Ok(mart) = &mart {
                if let Some(served) = mart.get(key) {
                    assert_eq!(&served, o, "{what}: the mart served a wrong design");
                }
            }
        }
        assert_eq!(loaded, cache.len(), "{what}: nothing bogus may be loaded");
        (mart, loaded)
    }

    #[test]
    fn roundtrip_is_byte_exact() {
        let dir = scratch("roundtrip");
        let path = dir.join("designs.mart");
        let (built, expected) = sample();
        assert_eq!(built.write(&path).unwrap(), 4);
        let mart = Mart::load(&path).unwrap();
        assert_eq!(mart.len(), 4);
        assert_eq!(mart.skipped(), 0);
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
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The write is atomic (no temp file is left behind) and in key
    /// order: the same designs inserted in another order give the same
    /// bytes.
    #[test]
    fn write_is_atomic_and_deterministic() {
        let dir = scratch("write");
        let (built, expected) = sample();
        assert_eq!(built.write(&dir.join("a.mart")).unwrap(), 4);
        let mut reversed = Mart::default();
        for (key, o) in expected.iter().rev() {
            reversed.insert(key, o);
        }
        reversed.write(&dir.join("b.mart")).unwrap();
        assert_eq!(
            std::fs::read(dir.join("a.mart")).unwrap(),
            std::fs::read(dir.join("b.mart")).unwrap()
        );
        let residue: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(residue.is_empty(), "temp files must be renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One format: a saved cache file loads as a mart with every design.
    #[test]
    fn a_saved_cache_loads_as_a_mart() {
        let dir = scratch("cache-as-mart");
        let path = dir.join("cache.tsv");
        let (_, expected) = sample();
        let cache = ShardedCache::new(2, 16);
        for (key, o) in &expected {
            cache.insert(key, o.clone());
        }
        assert_eq!(cache.save(&path).unwrap(), 4);
        let mart = Mart::load(&path).unwrap();
        assert_eq!((mart.len(), mart.skipped()), (4, 0));
        for (key, o) in &expected {
            assert_eq!(mart.get(key).as_ref(), Some(o));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Torn-write resilience: a file cut at *every* byte offset loads
    /// through both loaders — fewer designs, never a wrong or partial
    /// one, never a panic. The cache never errors; the mart refuses only
    /// a cut inside the header line.
    #[test]
    fn truncation_at_every_offset_serves_only_exact_designs() {
        let dir = scratch("truncation");
        let (built, expected) = sample();
        let full_path = dir.join("full.mart");
        built.write(&full_path).unwrap();
        let bytes = std::fs::read(&full_path).unwrap();
        let path = dir.join("cut.mart");
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let what = format!("cut at {cut}");
            let (mart, loaded) = load_both(&path, &expected, &what);
            if cut < PERSIST_HEADER.len() {
                let err = mart.expect_err(&what);
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
                assert_eq!(loaded, 0, "{what}");
                continue;
            }
            let mart = mart.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(mart.len(), loaded, "{what}: one reader, one answer");
            assert!(mart.skipped() <= 1, "{what}: only the cut line is torn");
        }
        let (mart, loaded) = load_both(&full_path, &expected, "untouched");
        assert_eq!(
            (mart.unwrap().len(), loaded),
            (expected.len(), expected.len())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flipping any single byte, with `^ 0x41` (another ASCII byte) or
    /// `^ 0x80` (a byte that breaks UTF-8), never serves a wrong design:
    /// a flip in the header line makes the mart refuse the file and the
    /// cache load cold, and a flip anywhere else drops the damaged line,
    /// which both loaders skip alike.
    #[test]
    fn single_byte_flips_never_serve_a_wrong_design() {
        let dir = scratch("flips");
        let (built, expected) = sample();
        let full_path = dir.join("full.mart");
        built.write(&full_path).unwrap();
        let bytes = std::fs::read(&full_path).unwrap();
        let path = dir.join("flipped.mart");
        for mask in [0x41u8, 0x80] {
            for pos in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[pos] ^= mask;
                std::fs::write(&path, &bad).unwrap();
                let what = format!("flip {mask:#04x} at {pos}");
                let (mart, loaded) = load_both(&path, &expected, &what);
                if pos <= PERSIST_HEADER.len() {
                    assert!(mart.is_err(), "{what}: a damaged header is refused");
                    assert_eq!(loaded, 0, "{what}");
                    continue;
                }
                let mart = mart.unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(mart.len(), loaded, "{what}: one reader, one answer");
                assert!(mart.len() < expected.len(), "{what}: the line is dropped");
                assert!(mart.skipped() >= 1, "{what}: and counted");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A line that is not UTF-8 is one corrupt line: the cache loads the
    /// good line beside it (it used to fail to start), and the mart
    /// counts it.
    #[test]
    fn a_non_utf8_line_is_skipped_and_counted() {
        let dir = scratch("utf8");
        let path = dir.join("designs.tsv");
        let (_, expected) = sample();
        let (key, o) = &expected[0];
        let cache = ShardedCache::new(1, 8);
        cache.insert(key, o.clone());
        cache.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"bogus\xff line\t#0000000000000000\n");
        std::fs::write(&path, &bytes).unwrap();

        let reloaded = ShardedCache::new(1, 8);
        assert_eq!(reloaded.load(&path).unwrap(), (1, 1));
        assert_eq!(reloaded.probe(key).as_ref(), Some(o));
        let mart = Mart::load(&path).unwrap();
        assert_eq!((mart.len(), mart.skipped()), (1, 1));
        assert_eq!(mart.get(key).as_ref(), Some(o));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A line whose outcome belongs to another (m, PPG) than its key is
    /// corrupt, even with a valid checksum: lines whose keys were swapped
    /// and re-stamped, one across widths and one across PPGs, are skipped
    /// and counted, and the good line beside them still loads.
    #[test]
    fn a_line_whose_outcome_is_for_another_key_is_skipped() {
        let dir = scratch("swap");
        let path = dir.join("designs.tsv");
        let (_, expected) = sample();
        let line = |key: &SolveKey, o: &ServeOutcome| {
            stamped(&format!("{}\t{}", key.canonical(), o.to_line()))
        };
        let [(and4, o_and4), (mbe4, _), (and8, o_and8), (bw8, o_bw8)] = &expected[..] else {
            unreachable!("the sample has four designs")
        };
        let text = format!(
            "{PERSIST_HEADER}\n{}{}{}",
            line(and4, o_and8),
            line(mbe4, o_and4),
            line(bw8, o_bw8),
        );
        std::fs::write(&path, text).unwrap();

        let cache = ShardedCache::new(1, 8);
        assert_eq!(cache.load(&path).unwrap(), (1, 2));
        assert!(cache.probe(and4).is_none() && cache.probe(mbe4).is_none());
        assert_eq!(cache.probe(bw8).as_ref(), Some(o_bw8));
        let mart = Mart::load(&path).unwrap();
        assert_eq!((mart.len(), mart.skipped()), (1, 2));
        assert!(mart.get(and4).is_none() && mart.get(mbe4).is_none());
        assert!(mart.get(and8).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A one-design mart in the binary format older builds wrote (format
    /// 2: a 48-byte header, one 32-byte index slot, one record), as that
    /// format's builder produced it.
    const BINARY_MART: &[u8] = b"GOMLMART\x02\x00\x00\x00\x03\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x000\x00\x00\x00\x00\x00\x00\x00P\x00\x00\x00\x00\x00\x00\x00*\xb6\xe7x\xc7z\x96\xc85\xcb\x0c\xd5L\xed\x87;P\x00\x00\x00\x00\x00\x00\x00\x11\x01\x00\x00\x00\x00\x00\x00\x90\xb4\x1dBz\x8a\xd1\xe3\x17\x00\x00\x00v1;m=4;ppg=AND;w=8;test\xf2\x00\x00\x00M-AND-4\t4\tAND\t14\t2.25\t1.5\t16\ttrue\ttarget-search\t14\tfalse\t2,2,2,2,2,2,2\t0\tproved\t\tsolver_nodes=0\tsolver_lp_iters=0\tsolver_warm_attempts=0\tsolver_warm_hits=0\tsolver_refactors=0\tverify_vectors=0\tverify_us=0\troot_us=0\troot_lp_iters=0\tcuts_added=0";

    /// A file without the header line is not a mart: the binary format,
    /// an empty file, a torn header and another version are each refused
    /// with an error naming the rebuild, and the cache loads them cold.
    #[test]
    fn files_without_the_header_are_refused() {
        let dir = scratch("refusal");
        let (built, expected) = sample();
        let path = dir.join("designs.mart");
        built.write(&path).unwrap();
        let v2 = std::fs::read_to_string(&path).unwrap().replacen(
            PERSIST_HEADER,
            "gomil-serve-cache v2",
            1,
        );
        let cases: [(&str, &[u8]); 4] = [
            ("binary format", BINARY_MART),
            ("empty file", b""),
            ("torn header", &PERSIST_HEADER.as_bytes()[..6]),
            ("v2 header", v2.as_bytes()),
        ];
        for (what, bytes) in cases {
            std::fs::write(&path, bytes).unwrap();
            let (mart, loaded) = load_both(&path, &expected, what);
            let err = mart.expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(
                err.to_string().contains("gomil mart build"),
                "{what}: {err}"
            );
            assert_eq!(loaded, 0, "{what}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_summarize_the_store() {
        let (mut mart, _) = sample();
        // One more entry with a lower verdict tier.
        let key = SolveKey::new(12, PpgKind::And, "w=8;test");
        let mut tested = outcome(12, PpgKind::And);
        tested.verdict = VerdictTier::Tested;
        mart.insert(&key, &tested);
        let stats = mart.stats();
        assert_eq!(stats.entries, 5);
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.verdicts, [4, 1, 0, 0]);
        assert_eq!(stats.m_range, (4, 12));
        assert_eq!(Mart::default().stats().m_range, (0, 0));
    }
}
