//! Service observability: counters and per-rung latency histograms.

use crate::outcome::SolveCounters;
use gomil_netlist::VerdictTier;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// *Inclusive* upper edges (milliseconds) of the latency histogram
/// buckets, Prometheus `le` style: a sample lands in the first bucket
/// whose edge it does not exceed. The last bucket is open-ended.
pub const LATENCY_BUCKETS: [u64; 5] = [10, 100, 1_000, 10_000, u64::MAX];

/// A latency histogram for one degradation-ladder rung (or the synthetic
/// `cache-hit` row).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RungLatency {
    /// Sample counts per [`LATENCY_BUCKETS`] bucket.
    pub buckets: [u64; 5],
    /// Total samples.
    pub count: u64,
    /// Sum of sample durations in microseconds (for the mean).
    pub total_us: u64,
}

impl RungLatency {
    fn record(&mut self, took: Duration) {
        let ms = took.as_millis() as u64;
        // Prometheus `le` convention: edges are inclusive upper bounds,
        // so an exactly-10ms sample counts in the ≤10ms bucket.
        let idx = LATENCY_BUCKETS
            .iter()
            .position(|&edge| ms <= edge)
            .unwrap_or(LATENCY_BUCKETS.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_us += took.as_micros() as u64;
    }

    /// Mean latency over all samples.
    pub fn mean(&self) -> Duration {
        match self.total_us.checked_div(self.count) {
            Some(us) => Duration::from_micros(us),
            None => Duration::ZERO,
        }
    }
}

/// Thread-safe counters a [`SolveService`](crate::SolveService) maintains
/// while draining batches.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Requests accepted.
    pub requests: AtomicU64,
    /// Solves actually executed (ILP pipeline runs) — cache hits and
    /// singleflight joins do not count.
    pub solves: AtomicU64,
    /// Solves that came back degraded (budget-shaped or failure-absorbing).
    pub degraded: AtomicU64,
    /// Requests that failed outright.
    pub errors: AtomicU64,
    /// Solves that were offered a neighbor's incumbent as a warm start.
    pub warm_hints: AtomicU64,
    /// Peak depth of the bounded job queue.
    pub queue_peak: AtomicU64,
    /// Solves whose netlist equivalence was proved exhaustively.
    pub verdict_proved: AtomicU64,
    /// Solves whose netlist passed the sampled equivalence check.
    pub verdict_tested: AtomicU64,
    /// Solves whose netlist failed equivalence (these error out and are
    /// never cached or served).
    pub verdict_failed: AtomicU64,
    /// Solves that skipped equivalence verification (disabled, or an
    /// approximate/rectangular design).
    pub verdict_skipped: AtomicU64,
    /// Outcomes the admission gate refused to cache because their verdict
    /// tier fell below [`ServeConfig::min_verdict`](crate::ServeConfig).
    pub verify_rejected: AtomicU64,
    /// Requests refused by HTTP admission control (429 load shedding).
    /// Bumped by the `gomil-httpd` layer, not by the in-process service.
    pub shed: AtomicU64,
    /// Requests whose solve was cancelled because the per-request deadline
    /// passed or the client disconnected. Bumped by the HTTP layer.
    pub deadline_cancelled: AtomicU64,
    /// Requests answered from the precomputed design mart (recency-neutral:
    /// these never touch the LRU cache or the solver).
    pub mart_hits: AtomicU64,
    solver: Mutex<SolveCounters>,
    latency: Mutex<BTreeMap<String, RungLatency>>,
}

impl ServiceMetrics {
    /// Records one latency sample for `rung` (a `Rung::label` string, or
    /// `cache-hit` for served-from-cache requests).
    pub fn record_latency(&self, rung: &str, took: Duration) {
        let mut map = self.latency.lock().unwrap_or_else(|p| p.into_inner());
        map.entry(rung.to_string()).or_default().record(took);
    }

    /// Raises the recorded queue-depth peak to at least `depth`.
    pub fn note_queue_depth(&self, depth: usize) {
        self.queue_peak.fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Adds one executed solve's counters to the service-wide totals, and
    /// its equivalence check's wall-clock to the `verify` latency row.
    pub fn record_solver(&self, counters: &SolveCounters) {
        self.solver
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .absorb(counters);
        if let Some(took) = counters.verify_time() {
            self.record_latency("verify", took);
        }
    }

    /// The counters summed over every executed solve.
    pub fn solver_totals(&self) -> SolveCounters {
        *self.solver.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Counts one solve's equivalence verdict toward the per-tier totals.
    pub fn record_verdict(&self, tier: VerdictTier) {
        let counter = match tier {
            VerdictTier::Proved => &self.verdict_proved,
            VerdictTier::Tested => &self.verdict_tested,
            VerdictTier::Failed => &self.verdict_failed,
            VerdictTier::Skipped => &self.verdict_skipped,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the per-rung latency histograms.
    pub fn latency_snapshot(&self) -> Vec<(String, RungLatency)> {
        self.latency
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// A point-in-time summary of one service's counters, renderable as the
/// CLI's metrics table.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Requests accepted.
    pub requests: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Singleflight joins (deduplicated concurrent requests).
    pub dedup_joins: u64,
    /// Solves executed.
    pub solves: u64,
    /// Degraded solves (served, not cached).
    pub degraded: u64,
    /// Failed requests.
    pub errors: u64,
    /// Solves offered a warm-start hint.
    pub warm_hints: u64,
    /// Peak job-queue depth.
    pub queue_peak: u64,
    /// The solve counters summed over every executed solve.
    pub solver: SolveCounters,
    /// Solves with an exhaustively proved equivalence verdict.
    pub verdict_proved: u64,
    /// Solves with a sampled (tested) equivalence verdict.
    pub verdict_tested: u64,
    /// Solves whose netlist failed equivalence verification.
    pub verdict_failed: u64,
    /// Solves that skipped equivalence verification.
    pub verdict_skipped: u64,
    /// Outcomes refused by the verdict admission gate (not cached).
    pub verify_rejected: u64,
    /// Requests shed by HTTP admission control (429).
    pub shed: u64,
    /// Solves cancelled on deadline or client disconnect.
    pub deadline_cancelled: u64,
    /// Requests answered from the precomputed design mart.
    pub mart_hits: u64,
    /// Entries available in the attached mart (0 when none is attached).
    pub mart_entries: usize,
    /// Entries currently cached.
    pub cache_len: usize,
    /// Per-rung latency histograms, alphabetical by rung.
    pub per_rung: Vec<(String, RungLatency)>,
}

impl MetricsReport {
    /// Cache hit rate over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Fraction of accepted requests answered straight from the mart
    /// (0 when no requests were accepted).
    pub fn mart_coverage(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.mart_hits as f64 / self.requests as f64
        }
    }

    /// Renders the report in the Prometheus text exposition format
    /// (version 0.0.4), served by `GET /metrics`. Counters become
    /// `gomil_*_total` (each solve counter `gomil_<name>_total`), gauges
    /// keep their name, and each per-rung histogram becomes a
    /// `gomil_rung_latency_ms` histogram family with a
    /// `rung` label — [`LATENCY_BUCKETS`] already uses Prometheus's
    /// inclusive-`le` convention, so the cumulative buckets here are a
    /// running sum, with the final open bucket rendered as `le="+Inf"`.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter("gomil_requests_total", "Requests accepted.", self.requests);
        counter(
            "gomil_shed_total",
            "Requests shed by admission control (HTTP 429).",
            self.shed,
        );
        counter(
            "gomil_deadline_cancelled_total",
            "Solves cancelled on deadline or client disconnect.",
            self.deadline_cancelled,
        );
        counter("gomil_solves_total", "Solves executed.", self.solves);
        counter(
            "gomil_degraded_total",
            "Degraded solves (served, never cached).",
            self.degraded,
        );
        counter("gomil_errors_total", "Failed requests.", self.errors);
        counter(
            "gomil_mart_hits_total",
            "Requests answered from the precomputed design mart.",
            self.mart_hits,
        );
        counter("gomil_cache_hits_total", "Cache hits.", self.hits);
        counter("gomil_cache_misses_total", "Cache misses.", self.misses);
        counter(
            "gomil_cache_evictions_total",
            "LRU evictions.",
            self.evictions,
        );
        counter(
            "gomil_dedup_joins_total",
            "Singleflight joins (deduplicated concurrent requests).",
            self.dedup_joins,
        );
        counter(
            "gomil_warm_hints_total",
            "Solves offered a warm-start hint.",
            self.warm_hints,
        );
        for (name, help, value) in self.solver.iter() {
            counter(&format!("gomil_{name}_total"), help, value);
        }
        counter(
            "gomil_verify_rejected_total",
            "Outcomes refused by the verdict admission gate.",
            self.verify_rejected,
        );
        let _ = writeln!(
            out,
            "# HELP gomil_verdicts_total Equivalence verdicts by tier."
        );
        let _ = writeln!(out, "# TYPE gomil_verdicts_total counter");
        for (tier, value) in [
            ("proved", self.verdict_proved),
            ("tested", self.verdict_tested),
            ("failed", self.verdict_failed),
            ("skipped", self.verdict_skipped),
        ] {
            let _ = writeln!(out, "gomil_verdicts_total{{tier=\"{tier}\"}} {value}");
        }
        let _ = writeln!(out, "# HELP gomil_cache_entries Entries currently cached.");
        let _ = writeln!(out, "# TYPE gomil_cache_entries gauge");
        let _ = writeln!(out, "gomil_cache_entries {}", self.cache_len);
        let _ = writeln!(
            out,
            "# HELP gomil_mart_entries Entries available in the attached design mart."
        );
        let _ = writeln!(out, "# TYPE gomil_mart_entries gauge");
        let _ = writeln!(out, "gomil_mart_entries {}", self.mart_entries);
        let _ = writeln!(
            out,
            "# HELP gomil_mart_coverage Fraction of requests answered from the mart."
        );
        let _ = writeln!(out, "# TYPE gomil_mart_coverage gauge");
        let _ = writeln!(out, "gomil_mart_coverage {}", self.mart_coverage());
        let _ = writeln!(out, "# HELP gomil_queue_peak Peak job-queue depth.");
        let _ = writeln!(out, "# TYPE gomil_queue_peak gauge");
        let _ = writeln!(out, "gomil_queue_peak {}", self.queue_peak);
        let _ = writeln!(
            out,
            "# HELP gomil_rung_latency_ms Request latency by degradation rung."
        );
        let _ = writeln!(out, "# TYPE gomil_rung_latency_ms histogram");
        for (rung, h) in &self.per_rung {
            let mut cumulative = 0u64;
            for (i, &edge) in LATENCY_BUCKETS.iter().enumerate() {
                cumulative += h.buckets[i];
                let le = if edge == u64::MAX {
                    "+Inf".to_string()
                } else {
                    edge.to_string()
                };
                let _ = writeln!(
                    out,
                    "gomil_rung_latency_ms_bucket{{rung=\"{rung}\",le=\"{le}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "gomil_rung_latency_ms_sum{{rung=\"{rung}\"}} {}",
                h.total_us as f64 / 1_000.0
            );
            let _ = writeln!(
                out,
                "gomil_rung_latency_ms_count{{rung=\"{rung}\"}} {}",
                h.count
            );
        }
        out
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "── service metrics ────────────────────────────────────────"
        )?;
        writeln!(
            f,
            "requests {:>6}   solves {:>6}   errors {:>6}   degraded {:>4}",
            self.requests, self.solves, self.errors, self.degraded
        )?;
        writeln!(
            f,
            "hits     {:>6}   misses {:>6}   hit-rate {:>5.1}%  evictions {:>3}",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.evictions
        )?;
        writeln!(
            f,
            "dedup joins {:>3}   warm-start hints {:>3}   queue peak {:>4}   cached {:>4}",
            self.dedup_joins, self.warm_hints, self.queue_peak, self.cache_len
        )?;
        for (_, help, value) in self.solver.iter() {
            writeln!(f, "{value:>12}  {help}")?;
        }
        writeln!(
            f,
            "{:>12.1}  pivots per node; warm restarts {:.1}% hit",
            self.solver.pivots_per_node(),
            100.0 * self.solver.warm_hit_rate()
        )?;
        writeln!(
            f,
            "verdicts: proved {:>5}  tested {:>5}  skipped {:>5}  failed {:>3}  gate-rejected {:>3}",
            self.verdict_proved,
            self.verdict_tested,
            self.verdict_skipped,
            self.verdict_failed,
            self.verify_rejected
        )?;
        writeln!(
            f,
            "admission: shed {:>6}   deadline-cancelled {:>6}",
            self.shed, self.deadline_cancelled
        )?;
        writeln!(
            f,
            "mart: hits {:>6}   entries {:>6}   coverage {:>5.1}%",
            self.mart_hits,
            self.mart_entries,
            100.0 * self.mart_coverage()
        )?;
        writeln!(
            f,
            "{:<14} {:>6} {:>9} | {:>6} {:>7} {:>6} {:>6} {:>6}",
            "latency/rung", "count", "mean", "≤10ms", "≤100ms", "≤1s", "≤10s", ">10s"
        )?;
        for (rung, h) in &self.per_rung {
            writeln!(
                f,
                "{:<14} {:>6} {:>9.1?} | {:>6} {:>7} {:>6} {:>6} {:>6}",
                rung,
                h.count,
                h.mean(),
                h.buckets[0],
                h.buckets[1],
                h.buckets[2],
                h.buckets[3],
                h.buckets[4]
            )?;
        }
        write!(
            f,
            "───────────────────────────────────────────────────────────"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_magnitude() {
        let mut h = RungLatency::default();
        h.record(Duration::from_millis(1));
        h.record(Duration::from_millis(50));
        h.record(Duration::from_millis(500));
        h.record(Duration::from_secs(5));
        h.record(Duration::from_secs(50));
        assert_eq!(h.buckets, [1, 1, 1, 1, 1]);
        assert_eq!(h.count, 5);
        assert!(h.mean() > Duration::from_secs(10));
    }

    #[test]
    fn histogram_edges_are_inclusive_upper_bounds() {
        // Prometheus `le` convention: a sample exactly on an edge belongs
        // to that edge's bucket, and the first strictly-above value rolls
        // into the next one.
        let mut h = RungLatency::default();
        h.record(Duration::from_millis(10));
        h.record(Duration::from_millis(11));
        h.record(Duration::from_millis(100));
        h.record(Duration::from_millis(101));
        h.record(Duration::from_millis(1_000));
        h.record(Duration::from_millis(1_001));
        h.record(Duration::from_millis(10_000));
        h.record(Duration::from_millis(10_001));
        assert_eq!(h.buckets, [1, 2, 2, 2, 1]);
        assert_eq!(h.count, 8);
    }

    /// Counters with a distinct value each, set by name.
    fn distinct_counters(base: u64) -> SolveCounters {
        let mut c = SolveCounters::default();
        for (i, (name, _, _)) in SolveCounters::default().iter().enumerate() {
            assert!(c.set(name, base + i as u64));
        }
        c
    }

    #[test]
    fn solver_counters_accumulate_across_solves() {
        let m = ServiceMetrics::default();
        let (a, b) = (distinct_counters(100), distinct_counters(7));
        m.record_solver(&a);
        m.record_solver(&b);
        let totals = m.solver_totals();
        for ((name, _, total), ((_, _, x), (_, _, y))) in totals.iter().zip(a.iter().zip(b.iter()))
        {
            assert_eq!(total, x + y, "{name}");
        }
        // Each solve's verification time is one `verify` latency sample.
        assert!(m
            .latency_snapshot()
            .iter()
            .any(|(rung, h)| rung == "verify" && h.count == 2));
    }

    #[test]
    fn verdict_counters_route_by_tier() {
        let m = ServiceMetrics::default();
        m.record_verdict(VerdictTier::Proved);
        m.record_verdict(VerdictTier::Proved);
        m.record_verdict(VerdictTier::Tested);
        m.record_verdict(VerdictTier::Skipped);
        m.record_verdict(VerdictTier::Failed);
        assert_eq!(m.verdict_proved.load(Ordering::Relaxed), 2);
        assert_eq!(m.verdict_tested.load(Ordering::Relaxed), 1);
        assert_eq!(m.verdict_skipped.load(Ordering::Relaxed), 1);
        assert_eq!(m.verdict_failed.load(Ordering::Relaxed), 1);
        assert_eq!(m.verify_rejected.load(Ordering::Relaxed), 0);
    }

    fn sample_report(per_rung: Vec<(String, RungLatency)>) -> MetricsReport {
        MetricsReport {
            requests: 10,
            hits: 4,
            misses: 6,
            evictions: 1,
            dedup_joins: 2,
            solves: 6,
            degraded: 1,
            errors: 0,
            warm_hints: 3,
            queue_peak: 7,
            solver: distinct_counters(1_000),
            verdict_proved: 4,
            verdict_tested: 1,
            verdict_failed: 0,
            verdict_skipped: 1,
            verify_rejected: 1,
            shed: 9,
            deadline_cancelled: 2,
            mart_hits: 3,
            mart_entries: 12,
            cache_len: 5,
            per_rung,
        }
    }

    #[test]
    fn report_renders_every_counter() {
        let m = ServiceMetrics::default();
        m.record_latency("joint-ilp", Duration::from_millis(3));
        m.record_latency("cache-hit", Duration::from_micros(20));
        m.note_queue_depth(7);
        m.note_queue_depth(3); // must not lower the peak
        assert_eq!(m.queue_peak.load(Ordering::Relaxed), 7);
        let report = sample_report(m.latency_snapshot());
        assert!((report.mart_coverage() - 0.3).abs() < 1e-12);
        assert!((report.hit_rate() - 0.4).abs() < 1e-12);
        let text = report.to_string();
        for needle in [
            "hits",
            "dedup joins",
            "joint-ilp",
            "cache-hit",
            "queue peak",
            "pivots per node",
            "warm restarts",
            "verdicts:",
            "gate-rejected",
            "admission:",
            "deadline-cancelled",
            "mart:",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        for (name, help, value) in report.solver.iter() {
            let row = format!("{value:>12}  {help}");
            assert!(
                text.contains(&row),
                "missing {name} row {row:?} in:\n{text}"
            );
        }
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_labelled() {
        let m = ServiceMetrics::default();
        m.record_latency("joint-ilp", Duration::from_millis(3));
        m.record_latency("joint-ilp", Duration::from_millis(50));
        m.record_latency("joint-ilp", Duration::from_secs(50));
        let report = sample_report(m.latency_snapshot());
        let text = report.to_prometheus();
        for needle in [
            "gomil_requests_total 10",
            "gomil_shed_total 9",
            "gomil_deadline_cancelled_total 2",
            "gomil_verdicts_total{tier=\"proved\"} 4",
            "gomil_cache_entries 5",
            "gomil_mart_hits_total 3",
            "gomil_mart_entries 12",
            "gomil_mart_coverage 0.3",
            "# TYPE gomil_solver_nodes_total counter",
            // Cumulative buckets: 1 sample ≤10ms, 2 ≤100ms, still 2 at
            // ≤1000/≤10000, all 3 at +Inf.
            "gomil_rung_latency_ms_bucket{rung=\"joint-ilp\",le=\"10\"} 1",
            "gomil_rung_latency_ms_bucket{rung=\"joint-ilp\",le=\"100\"} 2",
            "gomil_rung_latency_ms_bucket{rung=\"joint-ilp\",le=\"10000\"} 2",
            "gomil_rung_latency_ms_bucket{rung=\"joint-ilp\",le=\"+Inf\"} 3",
            "gomil_rung_latency_ms_count{rung=\"joint-ilp\"} 3",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        for (name, _, value) in report.solver.iter() {
            let line = format!("gomil_{name}_total {value}\n");
            assert!(text.contains(&line), "missing {line:?} in:\n{text}");
        }
        // Every non-comment line is `name{labels} value` with a parseable
        // float value — the shape a Prometheus scraper requires.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line}");
        }
    }
}
