//! The concurrent solve service: worker pool + cache + singleflight +
//! warm-start hand-off.

use crate::cache::ShardedCache;
use crate::key::SolveKey;
use crate::metrics::{MetricsReport, ServiceMetrics};
use crate::outcome::ServeOutcome;
use crate::singleflight::SingleFlight;
use gomil_arith::PpgKind;
use gomil_budget::Budget;
use gomil_netlist::VerdictTier;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One multiplier-generation request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SolveRequest {
    /// Word length.
    pub m: usize,
    /// Partial product generator.
    pub ppg: PpgKind,
}

impl fmt::Display for SolveRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{} {}", self.m, self.m, self.ppg.label())
    }
}

/// Why a request could not be served.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The solve pipeline returned an error (message from the underlying
    /// `GomilError`).
    Solve(String),
    /// The emitted netlist failed equivalence verification: the request
    /// errors out and nothing is cached, served onward, or offered as a
    /// warm start. The message carries the counterexample.
    Verification(String),
    /// The solver panicked; the panic was contained to this request and
    /// the worker kept serving the batch.
    Panic(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Solve(m) => write!(f, "solve failed: {m}"),
            ServeError::Verification(m) => write!(f, "verification rejected the netlist: {m}"),
            ServeError::Panic(m) => write!(f, "solver panicked: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A completed neighbor solve's incumbent, offered as a warm start to
/// later requests (see [`SolveService`] docs for the neighbor relation).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmHint {
    /// Word length of the donor solve.
    pub m: usize,
    /// PPG of the donor solve.
    pub ppg: PpgKind,
    /// The donor's final BCV column counts (LSB first, entries 1 or 2).
    pub counts: Vec<u32>,
}

/// The solver injected into a [`SolveService`]: runs one full pipeline for
/// `request`, optionally seeded with a neighbor's incumbent profile and
/// bounded by a caller-supplied per-request [`Budget`].
///
/// Must be pure up to the warm start: the same request must yield an
/// equivalent certified result regardless of the hint (hints may only
/// change *how fast* branch and bound closes, never what is optimal). The
/// budget is a latency bound with shared cancellation — the HTTP layer
/// cancels it when a client disconnects or the server drains, and the
/// solver must then unwind promptly (degrading down its fallback ladder
/// rather than erroring, so joined duplicate requests still get an
/// answer). `None` means the service imposes no per-request bound.
pub type SolverFn = dyn Fn(&SolveRequest, Option<&WarmHint>, Option<&Budget>) -> Result<ServeOutcome, ServeError>
    + Send
    + Sync;

/// A read-only precomputed design store consulted *before* the LRU cache
/// and the solver (the lookup order is mart → cache → solve). The
/// `gomil-mart` crate provides the production implementation — an
/// offline-built, pinned copy of the cache's design line file over the
/// hot (m, PPG, config) lattice — while tests inject synthetic maps.
///
/// Contract: [`get`](Self::get) is identity-exact (the store compares the
/// *full canonical key*, never just its 64-bit hash), the store is
/// immutable for the life of the service, and lookups are cheap enough
/// to sit on the request fast path. Store hits are recency-neutral: they
/// never touch the LRU cache, so a mart deployment cannot distort
/// eviction order for the long tail.
pub trait DesignStore: Send + Sync {
    /// The outcome stored for `key`, compared by full canonical key.
    fn get(&self, key: &SolveKey) -> Option<ServeOutcome>;
    /// Resolves a 64-bit key hash to `(canonical key, outcome)` — the
    /// key comes back so callers can detect hash collisions.
    fn find_by_hash(&self, hash: u64) -> Option<(String, ServeOutcome)>;
    /// Number of designs in the store.
    fn len(&self) -> usize;
    /// Whether the store holds no designs.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Tuning knobs of a [`SolveService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads serving a batch (`--jobs`).
    pub jobs: usize,
    /// Cache shards (more shards, less lock contention).
    pub shards: usize,
    /// Total cached entries before LRU eviction.
    pub cache_capacity: usize,
    /// When set, the cache is loaded from this file at construction and
    /// [`SolveService::persist`] writes back to it.
    pub cache_path: Option<PathBuf>,
    /// Offer completed incumbents to neighbor requests as warm starts.
    pub warm_start: bool,
    /// Minimum equivalence-verdict tier an outcome must carry to be
    /// admitted into the cache and warm-hint pool. The default `Skipped`
    /// preserves the historical contract (anything non-failed may be
    /// cached); a strict deployment sets `Tested` or `Proved` so
    /// unverified outcomes are served once but never pinned.
    pub min_verdict: VerdictTier,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            jobs: 4,
            shards: 8,
            cache_capacity: 4096,
            cache_path: None,
            warm_start: true,
            min_verdict: VerdictTier::Skipped,
        }
    }
}

/// Donor hints kept for warm-start hand-off; small because only the most
/// recent few neighborhoods matter in a batch.
const WARM_POOL_CAP: usize = 64;

/// A concurrent multiplier-generation service.
///
/// Request flow, per request:
///
/// 1. **cache** — the canonical key is looked up in the sharded LRU; a hit
///    answers in `O(1)` with a byte-identical clone of the stored result;
/// 2. **singleflight** — on a miss, concurrent duplicates coalesce: one
///    leader solves, joiners block and share its result;
/// 3. **solve** — the leader runs the injected [`SolverFn`], optionally
///    seeded with a completed *neighbor* solve's incumbent (same `m` with
///    a different PPG, or `m ± 1` — profiles close enough that the
///    steered schedule generator can adapt them);
/// 4. **publish** — certified, non-degraded outcomes whose equivalence
///    verdict clears [`ServeConfig::min_verdict`] enter the cache and the
///    warm-hint pool; degraded or under-verified outcomes are returned to
///    their requester only, so budget-starved batches and unverified
///    netlists never poison the cache.
///
/// The service is driven batch-at-a-time by [`run_batch`] (`jobs` worker
/// threads taking the batch's requests in order); all state — cache,
/// flight table, metrics, warm pool — persists across batches, so a
/// long-lived process behaves like a server accepting request waves.
///
/// [`run_batch`]: SolveService::run_batch
pub struct SolveService {
    fingerprint: String,
    solver: Box<SolverFn>,
    config: ServeConfig,
    cache: ShardedCache,
    mart: Option<std::sync::Arc<dyn DesignStore>>,
    flights: SingleFlight<Result<ServeOutcome, ServeError>>,
    warm: Mutex<VecDeque<WarmHint>>,
    metrics: ServiceMetrics,
}

impl SolveService {
    /// Builds a service around `solver`. `fingerprint` is the canonical
    /// encoding of the solver's configuration (see [`SolveKey::new`]);
    /// if [`ServeConfig::cache_path`] is set, previously persisted entries
    /// are loaded immediately.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from reading an existing cache file.
    pub fn new(
        fingerprint: String,
        solver: Box<SolverFn>,
        config: ServeConfig,
    ) -> io::Result<SolveService> {
        let cache = ShardedCache::new(config.shards, config.cache_capacity);
        if let Some(path) = &config.cache_path {
            cache.load(path)?;
        }
        Ok(SolveService {
            fingerprint,
            solver,
            config,
            cache,
            mart: None,
            flights: SingleFlight::new(),
            warm: Mutex::new(VecDeque::new()),
            metrics: ServiceMetrics::default(),
        })
    }

    /// Attaches a read-only precomputed design store: every request is
    /// checked against it before the LRU cache and the solver, so a
    /// mart-covered request is served with zero solver invocations (and,
    /// in the HTTP layer, zero admission permits).
    pub fn with_mart(mut self, mart: std::sync::Arc<dyn DesignStore>) -> SolveService {
        self.mart = Some(mart);
        self
    }

    /// Number of designs in the attached mart (0 without one).
    pub fn mart_len(&self) -> usize {
        self.mart.as_ref().map_or(0, |m| m.len())
    }

    /// Mart fast path: a hit is counted (`mart_hits`, `mart-hit` latency
    /// row) and served recency-neutrally — the LRU cache is not touched.
    fn mart_lookup(&self, key: &SolveKey, t0: Instant) -> Option<ServeOutcome> {
        let hit = self.mart.as_ref()?.get(key)?;
        self.metrics.mart_hits.fetch_add(1, Ordering::Relaxed);
        self.metrics.record_latency("mart-hit", t0.elapsed());
        Some(hit)
    }

    /// The cache key for `request` under this service's configuration.
    pub fn key_for(&self, request: &SolveRequest) -> SolveKey {
        SolveKey::new(request.m, request.ppg, &self.fingerprint)
    }

    /// Serves a batch: `jobs` workers take the requests in order, each the
    /// next one nobody has taken yet. Results come back in request order;
    /// one failed request is one `Err` entry, never a failed batch.
    pub fn run_batch(&self, requests: &[SolveRequest]) -> Vec<Result<ServeOutcome, ServeError>> {
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<Result<ServeOutcome, ServeError>>>> =
            requests.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.config.jobs.max(1) {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = requests.get(idx) else { break };
                    let result = self.serve_one(req);
                    *results[idx].lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("every request produces a result")
            })
            .collect()
    }

    /// Serves one request through cache → singleflight → solver.
    pub fn serve_one(&self, request: &SolveRequest) -> Result<ServeOutcome, ServeError> {
        self.serve_with(request, None)
    }

    /// [`serve_one`](Self::serve_one) bounded by a per-request [`Budget`].
    ///
    /// When concurrent duplicates coalesce through singleflight, the
    /// *leader's* budget governs the shared solve: cancelling it (client
    /// disconnect, server drain) degrades the result for every joiner
    /// rather than failing them, and a degraded result is never cached —
    /// so one impatient client cannot poison the cache for the rest.
    pub fn serve_with(
        &self,
        request: &SolveRequest,
        budget: Option<&Budget>,
    ) -> Result<ServeOutcome, ServeError> {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let key = self.key_for(request);
        let t0 = Instant::now();
        if let Some(hit) = self.mart_lookup(&key, t0) {
            return Ok(hit);
        }
        if let Some(cached) = self.cache.get(&key) {
            self.metrics.record_latency("cache-hit", t0.elapsed());
            return Ok(cached);
        }
        let (result, _led) = self.flights.run(key.canonical(), || {
            self.solve_and_publish(request, &key, budget)
        });
        result
    }

    /// A mart/cache-only probe: answers (and counts a request + hit) iff
    /// the result is precomputed or already cached, touching neither the
    /// miss counter nor the singleflight table. The HTTP layer uses this
    /// as its fast path so precomputed and cached answers bypass admission
    /// control entirely — a full mart or cache must stay servable even
    /// while the solve queue is shedding.
    pub fn cached(&self, request: &SolveRequest) -> Option<ServeOutcome> {
        let key = self.key_for(request);
        let t0 = Instant::now();
        if let Some(hit) = self.mart_lookup(&key, t0) {
            self.metrics.requests.fetch_add(1, Ordering::Relaxed);
            return Some(hit);
        }
        let hit = self.cache.probe(&key)?;
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.record_latency("cache-hit", t0.elapsed());
        Some(hit)
    }

    /// Looks a precomputed or cached outcome up by the 64-bit fingerprint
    /// of its canonical key (the `fingerprint` field of the HTTP solve
    /// reply) — mart first, then a linear scan over the cache shards,
    /// read-only and recency-neutral. `None` is the HTTP layer's 404.
    ///
    /// Returns the *canonical key alongside the outcome*: a 64-bit hash is
    /// not an identity (two keys can collide), so the key travels with the
    /// reply for clients to compare.
    pub fn lookup_fingerprint(&self, fingerprint: u64) -> Option<(String, ServeOutcome)> {
        if let Some(found) = self.mart.as_ref().and_then(|m| m.find_by_hash(fingerprint)) {
            return Some(found);
        }
        self.cache.find_by_hash(fingerprint)
    }

    /// Leader path: run the solver (panic-contained), then publish the
    /// result to the cache and warm pool if it is trustworthy.
    fn solve_and_publish(
        &self,
        request: &SolveRequest,
        key: &SolveKey,
        budget: Option<&Budget>,
    ) -> Result<ServeOutcome, ServeError> {
        // Double-check the cache: a previous flight for this key may have
        // completed between our miss and our flight registration. The miss
        // is already counted, so this second look counts nothing.
        if let Some(cached) = self.cache.peek(key) {
            return Ok(cached);
        }
        let hint = if self.config.warm_start {
            self.neighbor_hint(request)
        } else {
            None
        };
        if hint.is_some() {
            self.metrics.warm_hints.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.solves.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            (self.solver)(request, hint.as_ref(), budget)
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(ServeError::Panic(msg))
        });
        let took = t0.elapsed();
        match &result {
            Ok(outcome) => {
                self.metrics.record_latency(&outcome.strategy, took);
                self.metrics.record_solver(&outcome.counters);
                self.metrics.record_verdict(outcome.verdict);
                if outcome.degraded {
                    self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                } else if outcome.verified && outcome.verdict.admits(self.config.min_verdict) {
                    self.cache.insert(key, outcome.clone());
                    self.offer_hint(WarmHint {
                        m: outcome.m,
                        ppg: outcome.ppg,
                        counts: outcome.vs_counts.clone(),
                    });
                } else {
                    // The verdict gate: unverified or under-tier outcomes
                    // answer their requester but are never pinned.
                    self.metrics.verify_rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                self.metrics.record_latency("error", took);
            }
        }
        result
    }

    /// A donor hint for `request`: same `m` with a different PPG, or
    /// `m ± 1` with any PPG — most recent donor first.
    fn neighbor_hint(&self, request: &SolveRequest) -> Option<WarmHint> {
        let pool = self.warm.lock().unwrap_or_else(|p| p.into_inner());
        pool.iter()
            .rev()
            .find(|h| {
                (h.m == request.m && h.ppg != request.ppg)
                    || h.m + 1 == request.m
                    || request.m + 1 == h.m
            })
            .cloned()
    }

    fn offer_hint(&self, hint: WarmHint) {
        let mut pool = self.warm.lock().unwrap_or_else(|p| p.into_inner());
        pool.retain(|h| !(h.m == hint.m && h.ppg == hint.ppg));
        pool.push_back(hint);
        while pool.len() > WARM_POOL_CAP {
            pool.pop_front();
        }
    }

    /// Writes the cache to [`ServeConfig::cache_path`]; no-op (0 entries)
    /// when no path is configured.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn persist(&self) -> io::Result<usize> {
        match &self.config.cache_path {
            Some(path) => self.cache.save(path),
            None => Ok(0),
        }
    }

    /// Entries currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Raw metrics counters (live).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// A point-in-time metrics summary.
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            requests: self.metrics.requests.load(Ordering::Relaxed),
            hits: self.cache.hits(),
            misses: self.cache.misses(),
            evictions: self.cache.evictions(),
            dedup_joins: self.flights.joins(),
            solves: self.metrics.solves.load(Ordering::Relaxed),
            degraded: self.metrics.degraded.load(Ordering::Relaxed),
            errors: self.metrics.errors.load(Ordering::Relaxed),
            warm_hints: self.metrics.warm_hints.load(Ordering::Relaxed),
            solver: self.metrics.solver_totals(),
            verdict_proved: self.metrics.verdict_proved.load(Ordering::Relaxed),
            verdict_tested: self.metrics.verdict_tested.load(Ordering::Relaxed),
            verdict_failed: self.metrics.verdict_failed.load(Ordering::Relaxed),
            verdict_skipped: self.metrics.verdict_skipped.load(Ordering::Relaxed),
            verify_rejected: self.metrics.verify_rejected.load(Ordering::Relaxed),
            shed: self.metrics.shed.load(Ordering::Relaxed),
            deadline_cancelled: self.metrics.deadline_cancelled.load(Ordering::Relaxed),
            mart_hits: self.metrics.mart_hits.load(Ordering::Relaxed),
            mart_entries: self.mart_len(),
            cache_len: self.cache.len(),
            per_rung: self.metrics.latency_snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::SolveCounters;
    use gomil_netlist::DesignMetrics;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    fn outcome_for(req: &SolveRequest, degraded: bool) -> ServeOutcome {
        ServeOutcome {
            name: format!("T-{}-{}", req.ppg.label(), req.m),
            m: req.m,
            ppg: req.ppg,
            metrics: DesignMetrics {
                area: req.m as f64,
                delay: 1.0,
                power: 1.0,
            },
            gates: req.m,
            verified: true,
            strategy: "target-search".into(),
            objective: req.m as f64,
            degraded,
            vs_counts: vec![1; 2 * req.m - 1],
            solver_gap: 0.0,
            verdict: VerdictTier::Tested,
            counters: SolveCounters {
                solver_nodes: 5,
                solver_lp_iters: 40,
                verify_vectors: 1_024,
                verify_us: 150,
                ..SolveCounters::default()
            },
            improvements: vec![(40, req.m as f64 + 1.0), (90, req.m as f64)],
        }
    }

    /// A synthetic solver that counts invocations and sleeps briefly so
    /// concurrent duplicates overlap.
    fn counting_service(delay: Duration, degraded: bool) -> (SolveService, Arc<AtomicUsize>) {
        let solves = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&solves);
        let solver: Box<SolverFn> = Box::new(move |req, _hint, _budget| {
            counter.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(delay);
            Ok(outcome_for(req, degraded))
        });
        let svc = SolveService::new(
            "w=8;test".into(),
            solver,
            ServeConfig {
                jobs: 8,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        (svc, solves)
    }

    #[test]
    fn repeated_batches_hit_the_cache() {
        let (svc, solves) = counting_service(Duration::ZERO, false);
        let reqs = vec![
            SolveRequest {
                m: 8,
                ppg: PpgKind::And,
            },
            SolveRequest {
                m: 8,
                ppg: PpgKind::Booth4,
            },
        ];
        let first = svc.run_batch(&reqs);
        let second = svc.run_batch(&reqs);
        assert_eq!(solves.load(Ordering::SeqCst), 2, "second batch is all hits");
        assert_eq!(first, second, "cached results equal fresh results");
        let r = svc.report();
        assert_eq!(r.hits, 2);
        assert_eq!(r.solves, 2);
        assert_eq!(r.requests, 4);
    }

    #[test]
    fn a_solved_request_counts_one_cache_miss() {
        let (svc, solves) = counting_service(Duration::ZERO, false);
        svc.serve_one(&SolveRequest {
            m: 8,
            ppg: PpgKind::And,
        })
        .unwrap();
        assert_eq!(solves.load(Ordering::SeqCst), 1);
        let r = svc.report();
        assert_eq!((r.misses, r.hits), (1, 0), "{r}");
    }

    #[test]
    fn degraded_outcomes_are_served_but_not_cached() {
        let (svc, solves) = counting_service(Duration::ZERO, true);
        let req = SolveRequest {
            m: 6,
            ppg: PpgKind::And,
        };
        assert!(svc.serve_one(&req).unwrap().degraded);
        assert!(svc.serve_one(&req).unwrap().degraded);
        assert_eq!(solves.load(Ordering::SeqCst), 2, "nothing was cached");
        assert_eq!(svc.cache_len(), 0);
        assert_eq!(svc.report().degraded, 2);
    }

    #[test]
    fn failed_verdicts_never_enter_the_cache_or_warm_pool() {
        let solver: Box<SolverFn> = Box::new(|req, _, _| {
            let mut o = outcome_for(req, false);
            o.verdict = VerdictTier::Failed;
            o.verified = false;
            Ok(o)
        });
        let svc = SolveService::new("t".into(), solver, ServeConfig::default()).unwrap();
        let req = SolveRequest {
            m: 8,
            ppg: PpgKind::And,
        };
        let out = svc.serve_one(&req).unwrap();
        assert_eq!(out.verdict, VerdictTier::Failed);
        assert_eq!(svc.cache_len(), 0, "a failed netlist must never be cached");
        // A second identical request must re-solve — nothing was pinned —
        // and must not be seeded by the failed outcome's profile.
        svc.serve_one(&SolveRequest {
            m: 9,
            ppg: PpgKind::And,
        })
        .unwrap();
        let r = svc.report();
        assert_eq!(r.solves, 2);
        assert_eq!(r.verdict_failed, 2, "both solves carried a failed verdict");
        assert_eq!(r.verify_rejected, 2, "both under-gate outcomes rejected");
        assert_eq!(
            r.warm_hints, 0,
            "a rejected outcome must not donate a warm hint"
        );
    }

    #[test]
    fn strict_min_verdict_rejects_tested_outcomes() {
        let solver: Box<SolverFn> = Box::new(|req, _, _| Ok(outcome_for(req, false)));
        let svc = SolveService::new(
            "t".into(),
            solver,
            ServeConfig {
                min_verdict: VerdictTier::Proved,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let req = SolveRequest {
            m: 8,
            ppg: PpgKind::And,
        };
        // outcome_for carries a Tested verdict — below the Proved floor.
        assert_eq!(svc.serve_one(&req).unwrap().verdict, VerdictTier::Tested);
        assert_eq!(svc.cache_len(), 0);
        svc.serve_one(&req).unwrap();
        let r = svc.report();
        assert_eq!(r.solves, 2, "nothing was cached under the strict floor");
        assert_eq!(r.verdict_tested, 2);
        assert_eq!(r.verify_rejected, 2);
        // The verify histogram saw both samples (verify_us = 150 > 0).
        assert!(r
            .per_rung
            .iter()
            .any(|(k, h)| k == "verify" && h.count == 2));
    }

    #[test]
    fn worker_panics_are_contained_per_request() {
        let solver: Box<SolverFn> = Box::new(|req, _, _| {
            if req.m == 13 {
                panic!("unlucky width");
            }
            Ok(outcome_for(req, false))
        });
        let svc = SolveService::new("t".into(), solver, ServeConfig::default()).unwrap();
        let out = svc.run_batch(&[
            SolveRequest {
                m: 13,
                ppg: PpgKind::And,
            },
            SolveRequest {
                m: 8,
                ppg: PpgKind::And,
            },
        ]);
        assert!(matches!(out[0], Err(ServeError::Panic(ref m)) if m.contains("unlucky")));
        assert!(out[1].is_ok(), "the panic must not take down the batch");
        assert_eq!(svc.report().errors, 1);
    }

    #[test]
    fn neighbor_hints_flow_to_same_m_and_adjacent_m() {
        let hints_seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&hints_seen);
        let solver: Box<SolverFn> = Box::new(move |req, hint, _budget| {
            log.lock().unwrap().push((req.clone(), hint.cloned()));
            Ok(outcome_for(req, false))
        });
        let svc = SolveService::new(
            "t".into(),
            solver,
            ServeConfig {
                jobs: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        svc.run_batch(&[
            SolveRequest {
                m: 8,
                ppg: PpgKind::And,
            },
            SolveRequest {
                m: 8,
                ppg: PpgKind::Booth4,
            }, // same m, other PPG
            SolveRequest {
                m: 9,
                ppg: PpgKind::And,
            }, // m ± 1
            SolveRequest {
                m: 20,
                ppg: PpgKind::And,
            }, // no neighbor
        ]);
        let seen = hints_seen.lock().unwrap();
        assert!(seen[0].1.is_none(), "first solve has no donor");
        assert_eq!(seen[1].1.as_ref().map(|h| h.m), Some(8));
        assert!(seen[2].1.is_some(), "m=9 borrows from m=8");
        assert!(seen[3].1.is_none(), "m=20 has no neighbor");
        assert_eq!(svc.report().warm_hints, 2);
    }

    /// An in-memory [`DesignStore`] for exercising the mart layer without
    /// the on-disk format.
    struct MapStore {
        entries: Vec<(SolveKey, ServeOutcome)>,
    }

    impl DesignStore for MapStore {
        fn get(&self, key: &SolveKey) -> Option<ServeOutcome> {
            self.entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, o)| o.clone())
        }

        fn find_by_hash(&self, hash: u64) -> Option<(String, ServeOutcome)> {
            self.entries
                .iter()
                .find(|(k, _)| k.hash64() == hash)
                .map(|(k, o)| (k.canonical().to_string(), o.clone()))
        }

        fn len(&self) -> usize {
            self.entries.len()
        }
    }

    fn mart_for(svc: &SolveService, reqs: &[SolveRequest]) -> Arc<MapStore> {
        let entries = reqs
            .iter()
            .map(|req| {
                let mut o = outcome_for(req, false);
                o.strategy = "mart".into();
                (svc.key_for(req), o)
            })
            .collect();
        Arc::new(MapStore { entries })
    }

    #[test]
    fn mart_hits_bypass_solver_and_stay_recency_neutral() {
        let (svc, solves) = counting_service(Duration::ZERO, false);
        let covered = SolveRequest {
            m: 8,
            ppg: PpgKind::And,
        };
        let uncovered = SolveRequest {
            m: 10,
            ppg: PpgKind::And,
        };
        let mart = mart_for(&svc, std::slice::from_ref(&covered));
        let svc = svc.with_mart(mart);
        let hit = svc.serve_one(&covered).unwrap();
        assert_eq!(hit.strategy, "mart", "served from the mart, not solved");
        assert_eq!(solves.load(Ordering::SeqCst), 0, "zero solver invocations");
        assert_eq!(svc.cache_len(), 0, "mart hits never touch the LRU cache");
        // The probe fast path answers from the mart too.
        assert_eq!(svc.cached(&covered).unwrap().strategy, "mart");
        // Uncovered requests still flow to the solver as before.
        assert!(svc.cached(&uncovered).is_none());
        svc.serve_one(&uncovered).unwrap();
        assert_eq!(solves.load(Ordering::SeqCst), 1);
        let r = svc.report();
        assert_eq!(r.mart_hits, 2);
        assert_eq!(r.mart_entries, 1);
        // serve_one(covered) + cached(covered) + serve_one(uncovered); a
        // missed probe is not an accepted request.
        assert_eq!(r.requests, 3);
        assert!((r.mart_coverage() - 2.0 / 3.0).abs() < 1e-12);
        assert!(
            r.per_rung
                .iter()
                .any(|(rung, h)| rung == "mart-hit" && h.count == 2),
            "mart hits get their own latency row"
        );
    }

    /// The mart is consulted *before* the LRU cache, so a key present in
    /// both is answered from the mart (the precomputed store is the
    /// authoritative, highest-quality tier).
    #[test]
    fn lookup_order_is_mart_before_cache() {
        let (svc, solves) = counting_service(Duration::ZERO, false);
        let req = SolveRequest {
            m: 8,
            ppg: PpgKind::And,
        };
        svc.serve_one(&req).unwrap(); // populate the cache
        assert_eq!(svc.cache_len(), 1);
        let mart = mart_for(&svc, std::slice::from_ref(&req));
        let svc = svc.with_mart(mart);
        assert_eq!(svc.serve_one(&req).unwrap().strategy, "mart");
        assert_eq!(solves.load(Ordering::SeqCst), 1, "no re-solve");
        assert_eq!(svc.report().mart_hits, 1);
    }

    /// `lookup_fingerprint` answers from the mart, and returns the full
    /// canonical key with the design so a client can confirm identity.
    #[test]
    fn lookup_fingerprint_answers_from_the_mart_with_the_full_key() {
        let (svc, _) = counting_service(Duration::ZERO, false);
        let req = SolveRequest {
            m: 8,
            ppg: PpgKind::And,
        };
        let key = svc.key_for(&req);
        let mart = mart_for(&svc, &[req]);
        let svc = svc.with_mart(mart);
        let (canonical, outcome) = svc.lookup_fingerprint(key.hash64()).unwrap();
        assert_eq!(canonical, key.canonical());
        assert_eq!(outcome.strategy, "mart");
        assert!(svc.lookup_fingerprint(key.hash64() ^ 1).is_none());
    }
}
