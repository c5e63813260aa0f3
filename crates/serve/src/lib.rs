//! # gomil-serve — a concurrent multiplier-generation service
//!
//! The ROADMAP's north star is a system that serves heavy multiplier
//! traffic; this crate supplies the serving substrate. A GOMIL solve is a
//! deterministic function of `(m, PPG kind, solve-relevant config)`, which
//! makes the workload ideal for caching and request coalescing:
//!
//! * [`SolveKey`] — a canonical, order-independent cache key (stable FNV-1a
//!   hash over a canonical string) for one solve request;
//! * [`ShardedCache`] — a sharded LRU result cache with optional on-disk
//!   persistence, so repeated and restarted workloads hit in `O(1)`;
//! * [`write_design_lines`] / [`read_design_lines`] — the one file format
//!   for persisted designs, checksummed line by line, which the cache and
//!   the precomputed mart of `gomil-mart` share;
//! * [`SingleFlight`] — request coalescing: `N` concurrent requests for
//!   the same key trigger exactly one solve, the rest block and share the
//!   leader's result;
//! * [`SolveService`] — a fixed worker pool (std threads taking the next
//!   request of a batch) that drains request batches, deduplicates via
//!   singleflight, offers completed incumbents to later *neighbor*
//!   requests as warm starts, and records [`ServiceMetrics`];
//! * [`MetricsReport`] — hits/misses/evictions/dedup joins and a per-rung
//!   latency histogram, rendered as a summary table or as
//!   Prometheus text exposition ([`MetricsReport::to_prometheus`]) for the
//!   `gomil-httpd` network layer.
//!
//! The crate is deliberately **solver-agnostic**: the actual GOMIL
//! pipeline is injected as a [`SolverFn`] closure (the `gomil` crate
//! provides the standard adapter, [`gomil::serve_service`]), so the
//! service layer has no dependency cycle with the optimizer and can be
//! unit-tested with synthetic solvers.
//!
//! [`gomil::serve_service`]: https://docs.rs/gomil
//!
//! ## Caching contract
//!
//! Only *certified, full-quality* results enter the cache: outcomes whose
//! degradation ladder absorbed a failure or ran out of budget
//! ([`ServeOutcome::degraded`]) are returned to their requester but never
//! cached, so a batch run under a dead budget cannot poison later lookups.
//! Budgets are therefore deliberately excluded from [`SolveKey`].
//!
//! On top of that, every outcome carries an equivalence verdict
//! ([`ServeOutcome::verdict`], a [`VerdictTier`]): a `Failed` netlist
//! never reaches the cache or the warm-hint pool (the production solver
//! errors out with [`ServeError::Verification`] before an outcome even
//! exists), and [`ServeConfig::min_verdict`] lets strict deployments
//! demand `Tested` or `Proved` before an outcome may be pinned.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod key;
mod metrics;
mod outcome;
mod persist;
mod service;
mod singleflight;

pub use cache::ShardedCache;
pub use key::{fnv1a_64, SolveKey};
pub use metrics::{MetricsReport, RungLatency, ServiceMetrics, LATENCY_BUCKETS};
pub use outcome::{json_string, ServeOutcome, SolveCounters};
pub use persist::{read_design_lines, write_design_lines, DesignLines, PERSIST_HEADER};
pub use service::{
    DesignStore, ServeConfig, ServeError, SolveRequest, SolveService, SolverFn, WarmHint,
};
pub use singleflight::SingleFlight;

// Re-export the request vocabulary the service speaks.
pub use gomil_arith::PpgKind;
pub use gomil_netlist::{DesignMetrics, VerdictTier};
