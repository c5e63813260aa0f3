//! Sharded LRU result cache with optional on-disk persistence.
//!
//! Shard selection uses the key's stable FNV hash, so contention between
//! worker threads splits across `shards` independent mutexes instead of
//! one global lock. Each shard holds an LRU-ordered map bounded at
//! `capacity / shards` entries; recency is a monotone tick shared by all
//! shards (an `AtomicU64`), so eviction is a cheap min-scan of the full
//! shard — fine at the few-thousand-entry capacities this service runs.
//!
//! Persistence is the design line file of [`crate::persist`], which the
//! precomputed mart shares. Corrupted lines are skipped, not fatal: a
//! damaged cache file degrades to a partial (or cold) cache.

use crate::key::SolveKey;
use crate::outcome::ServeOutcome;
use crate::persist::{read_design_lines, write_design_lines};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Entry {
    value: ServeOutcome,
    last_used: u64,
}

type Shard = HashMap<String, Entry>;

/// A sharded, bounded, persistable map from [`SolveKey`] to
/// [`ServeOutcome`]. All methods take `&self`; internal mutexes make it
/// shareable across worker threads.
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ShardedCache {
    /// A cache with `shards` shards holding at most ~`capacity` entries in
    /// total (each shard is bounded at `ceil(capacity / shards)`, minimum
    /// one entry).
    pub fn new(shards: usize, capacity: usize) -> ShardedCache {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &SolveKey) -> &Mutex<Shard> {
        &self.shards[key.shard(self.shards.len())]
    }

    fn lock(&self, key: &SolveKey) -> std::sync::MutexGuard<'_, Shard> {
        // A panic while holding a shard lock poisons only that shard;
        // recover the data rather than cascading the panic across workers.
        self.shard(key).lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Looks `key` up, refreshing its recency. Records a hit or miss.
    pub fn get(&self, key: &SolveKey) -> Option<ServeOutcome> {
        let hit = self.probe(key);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Like [`get`](Self::get) but *silent on a miss*: a hit refreshes
    /// recency and counts, a miss counts nothing. Used by the HTTP fast
    /// path, which probes the cache before deciding whether a request
    /// must pass admission control — a probe miss is not a lookup miss,
    /// because the same request is immediately looked up again inside the
    /// solve path.
    pub fn probe(&self, key: &SolveKey) -> Option<ServeOutcome> {
        let hit = self.peek(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Like [`get`](Self::get) but counting nothing, hit or miss: a hit
    /// only refreshes recency. Used for a second look at a key whose
    /// lookup has already been counted.
    pub(crate) fn peek(&self, key: &SolveKey) -> Option<ServeOutcome> {
        let mut shard = self.lock(key);
        let e = shard.get_mut(key.canonical())?;
        e.last_used = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        Some(e.value.clone())
    }

    /// Finds an entry whose canonical key hashes (stable FNV-1a) to
    /// `hash`: a read-only linear scan across the shards, no recency
    /// refresh, no hit/miss accounting. `O(entries)` — fine at the
    /// few-thousand-entry capacities this cache runs, and only used by
    /// the `GET /design/{fingerprint}` endpoint.
    ///
    /// Returns the *canonical key alongside the outcome*: a 64-bit hash is
    /// an index hint, not an identity — two distinct keys can collide — so
    /// the caller must surface the key for its own client to compare.
    pub fn find_by_hash(&self, hash: u64) -> Option<(String, ServeOutcome)> {
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|p| p.into_inner());
            for (canonical, entry) in shard.iter() {
                if crate::key::fnv1a_64(canonical.as_bytes()) == hash {
                    return Some((canonical.clone(), entry.value.clone()));
                }
            }
        }
        None
    }

    /// Inserts (or refreshes) `key → value`, evicting the shard's
    /// least-recently-used entry if the shard is full.
    pub fn insert(&self, key: &SolveKey, value: ServeOutcome) {
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.lock(key);
        if shard.len() >= self.per_shard_capacity && !shard.contains_key(key.canonical()) {
            if let Some(lru) = shard
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(key.canonical().to_string(), Entry { value, last_used });
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits recorded by [`get`](Self::get).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses recorded by [`get`](Self::get).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU policy.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Writes every entry to `path` as design lines, atomically (see
    /// [`write_design_lines`]). Returns the number of entries written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<usize> {
        // Snapshot first, so no shard stays locked while the file is
        // written.
        let mut entries = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|p| p.into_inner());
            entries.extend(shard.iter().map(|(k, e)| (k.clone(), e.value.clone())));
        }
        write_design_lines(path, entries.iter().map(|(k, o)| (k.as_str(), o)))
    }

    /// Loads entries persisted by [`save`](Self::save), inserting them with
    /// cold recency. Corrupt lines are skipped and counted, and a file of
    /// another format or version loads nothing (a damaged file means a
    /// colder cache, not a failed service). Returns the number of entries
    /// loaded and the number of lines skipped.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (other than the file simply not
    /// existing, which loads zero entries).
    pub fn load(&self, path: &Path) -> io::Result<(usize, usize)> {
        let lines = match read_design_lines(path) {
            Ok(Some(lines)) => lines,
            Ok(None) => return Ok((0, 0)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((0, 0)),
            Err(e) => return Err(e),
        };
        let loaded = lines.entries.len();
        for (key, outcome) in lines.entries {
            self.insert(&key, outcome);
        }
        Ok((loaded, lines.skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PERSIST_HEADER;
    use gomil_arith::PpgKind;
    use gomil_netlist::DesignMetrics;

    fn outcome(m: usize, tag: &str) -> ServeOutcome {
        ServeOutcome {
            name: format!("D-{tag}-{m}"),
            m,
            ppg: PpgKind::And,
            metrics: DesignMetrics {
                area: m as f64 * 1.5,
                delay: 3.25,
                power: 0.5,
            },
            gates: 10 * m,
            verified: true,
            strategy: "target-search".into(),
            objective: 100.0 + m as f64,
            degraded: false,
            vs_counts: vec![1, 2],
            solver_gap: 0.0,
            verdict: gomil_netlist::VerdictTier::Proved,
            counters: crate::SolveCounters {
                solver_nodes: 1,
                solver_lp_iters: 7,
                verify_vectors: 256,
                verify_us: 12,
                root_us: 800,
                root_lp_iters: 9,
                ..Default::default()
            },
            improvements: vec![(25, 110.0 + m as f64), (80, 100.0 + m as f64)],
        }
    }

    fn key(m: usize) -> SolveKey {
        SolveKey::new(m, PpgKind::And, "w=8")
    }

    #[test]
    fn get_after_insert_hits_and_counts() {
        let c = ShardedCache::new(4, 16);
        assert!(c.get(&key(8)).is_none());
        c.insert(&key(8), outcome(8, "a"));
        assert_eq!(c.get(&key(8)).unwrap().name, "D-a-8");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        // One shard of capacity 2 makes the eviction order observable.
        let c = ShardedCache::new(1, 2);
        c.insert(&key(1), outcome(1, "a"));
        c.insert(&key(2), outcome(2, "a"));
        let _ = c.get(&key(1)); // refresh 1; 2 becomes LRU
        c.insert(&key(3), outcome(3, "a"));
        assert_eq!(c.evictions(), 1);
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(2)).is_none(), "stalest entry must be evicted");
        assert!(c.get(&key(3)).is_some());
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let dir = std::env::temp_dir().join("gomil-serve-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.cache");
        let c = ShardedCache::new(4, 16);
        for m in [4usize, 6, 8] {
            c.insert(&key(m), outcome(m, "p"));
        }
        assert_eq!(c.save(&path).unwrap(), 3);

        let d = ShardedCache::new(2, 16); // different shard count is fine
        assert_eq!(d.load(&path).unwrap(), (3, 0));
        for m in [4usize, 6, 8] {
            assert_eq!(d.get(&key(m)).unwrap(), outcome(m, "p"));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn probe_hits_without_counting_misses() {
        let c = ShardedCache::new(2, 8);
        assert!(c.probe(&key(8)).is_none());
        assert_eq!(c.misses(), 0, "a probe miss is not a lookup miss");
        c.insert(&key(8), outcome(8, "p"));
        assert_eq!(c.probe(&key(8)).unwrap().name, "D-p-8");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 0);
        // A peek counts nothing either way.
        assert!(c.peek(&key(9)).is_none());
        assert_eq!(c.peek(&key(8)).unwrap().name, "D-p-8");
        assert_eq!((c.hits(), c.misses()), (1, 0));
    }

    #[test]
    fn find_by_hash_scans_all_shards_without_touching_counters() {
        let c = ShardedCache::new(4, 16);
        for m in [4usize, 5, 6, 7] {
            c.insert(&key(m), outcome(m, "h"));
        }
        let k = key(6);
        let (canonical, found) = c.find_by_hash(k.hash64()).unwrap();
        assert_eq!(canonical, k.canonical());
        assert_eq!(found, outcome(6, "h"));
        assert!(c.find_by_hash(k.hash64() ^ 1).is_none());
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
    }

    /// The crash simulation behind the atomic-persistence contract: a
    /// writer dying mid-save leaves only a temp file (the real path keeps
    /// its previous complete contents), and even if a torn file somehow
    /// reached the real path — a crashed pre-hardening writer, a copy cut
    /// short — loading it can never corrupt the cache: every byte-level
    /// truncation of a valid file loads some prefix of the saved entries,
    /// each bit-exact, and never errors or panics.
    #[test]
    fn torn_writes_can_never_corrupt_the_load_path() {
        let dir = std::env::temp_dir().join(format!("gomil-serve-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");
        let c = ShardedCache::new(2, 16);
        for m in [4usize, 6, 8, 10] {
            c.insert(&key(m), outcome(m, "t"));
        }
        assert_eq!(c.save(&path).unwrap(), 4);
        let full = std::fs::read(&path).unwrap();

        // A stray temp file from a crashed writer must not affect loads.
        std::fs::write(dir.join("cache.tsv.tmp.12345"), b"half a hea").unwrap();

        let torn_path = dir.join("torn.tsv");
        for cut in 0..=full.len() {
            std::fs::write(&torn_path, &full[..cut]).unwrap();
            let d = ShardedCache::new(4, 16);
            let (loaded, _) = d.load(&torn_path).expect("a torn file is not an I/O error");
            assert_eq!(loaded, d.len());
            // Every entry that did survive the tear is bit-exact.
            let mut found = 0;
            for m in [4usize, 6, 8, 10] {
                if let Some(v) = d.probe(&key(m)) {
                    assert_eq!(v.to_line(), outcome(m, "t").to_line());
                    found += 1;
                }
            }
            assert_eq!(found, loaded, "nothing bogus may be loaded");
            if cut == full.len() {
                assert_eq!(loaded, 4, "the untorn file loads everything");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_the_old_file_atomically_not_in_place() {
        let dir = std::env::temp_dir().join(format!("gomil-serve-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");
        let c = ShardedCache::new(1, 8);
        c.insert(&key(4), outcome(4, "a"));
        assert_eq!(c.save(&path).unwrap(), 1);
        c.insert(&key(5), outcome(5, "a"));
        assert_eq!(c.save(&path).unwrap(), 2);
        // No temp residue after a successful save.
        let residue: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(residue.is_empty(), "temp files must be renamed away");
        let d = ShardedCache::new(1, 8);
        assert_eq!(d.load(&path).unwrap(), (2, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_corrupt_files_load_cold() {
        let c = ShardedCache::new(2, 8);
        let missing = std::env::temp_dir().join("gomil-serve-does-not-exist.cache");
        assert_eq!(c.load(&missing).unwrap(), (0, 0));

        let dir = std::env::temp_dir().join("gomil-serve-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("corrupt.cache");
        std::fs::write(&bad, "wrong header\njunk\n").unwrap();
        assert_eq!(c.load(&bad).unwrap(), (0, 0));
        std::fs::write(&bad, format!("{PERSIST_HEADER}\nnot-a-valid-entry\n")).unwrap();
        assert_eq!(c.load(&bad).unwrap(), (0, 1), "the corrupt line is counted");
        // A file of an older format version loads nothing, even when its
        // lines are well formed.
        let good = ShardedCache::new(1, 8);
        good.insert(&key(4), outcome(4, "v"));
        good.save(&bad).unwrap();
        let saved = std::fs::read_to_string(&bad).unwrap();
        for old in ["gomil-serve-cache v1", "gomil-serve-cache v2"] {
            std::fs::write(&bad, saved.replacen(PERSIST_HEADER, old, 1)).unwrap();
            assert_eq!(c.load(&bad).unwrap(), (0, 0), "{old}");
        }
        std::fs::remove_file(&bad).unwrap();
    }
}
