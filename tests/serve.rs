//! Integration tests of the `gomil-serve` layer against the real GOMIL
//! pipeline: cache-key determinism, singleflight dedup under heavy thread
//! fan-in, the degraded-results-are-never-cached contract, byte-equality
//! of cached versus fresh solves across persistence, and every solve
//! counter's trip through the reply, the cache, the mart and `/metrics`.

use gomil::{
    build_gomil, serve_service, DesignMetrics, DesignStore, GomilConfig, PpgKind, SelectStyle,
    ServeConfig, ServeError, ServeOutcome, SolveCounters, SolveKey, SolveRequest, SolveService,
    SolverFn, VerdictTier, VerifyConfig, VerifyMode, SOLVER_VERSION,
};
use gomil_httpd::Json;
use gomil_netlist::GateKind;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Cache-key determinism (the regression surface of the caching contract).
// ---------------------------------------------------------------------

#[test]
fn identical_configs_produce_identical_keys() {
    let a = GomilConfig::default();
    let b = GomilConfig::default();
    for ppg in PpgKind::all() {
        let ka = SolveKey::new(16, ppg, &a.solve_fingerprint());
        let kb = SolveKey::new(16, ppg, &b.solve_fingerprint());
        assert_eq!(ka, kb);
        assert_eq!(ka.canonical(), kb.canonical());
        assert_eq!(ka.hash64(), kb.hash64());
        // The canonical string is the wire format: it must roundtrip.
        assert_eq!(SolveKey::from_canonical(ka.canonical().to_string()), ka);
    }
}

#[test]
fn every_solve_relevant_field_changes_the_key() {
    let base = GomilConfig::default();
    let key = |cfg: &GomilConfig| SolveKey::new(16, PpgKind::And, &cfg.solve_fingerprint());
    let variants = [
        GomilConfig {
            w: 9.0,
            ..GomilConfig::default()
        },
        GomilConfig {
            l: 11,
            ..GomilConfig::default()
        },
        GomilConfig {
            alpha: 4.0,
            ..GomilConfig::default()
        },
        GomilConfig {
            beta: 1.0,
            ..GomilConfig::default()
        },
        GomilConfig {
            select_style: SelectStyle::Ripple,
            ..GomilConfig::default()
        },
        GomilConfig {
            arrival_aware: false,
            ..GomilConfig::default()
        },
        GomilConfig {
            power_vectors: 64,
            ..GomilConfig::default()
        },
        GomilConfig {
            verify: VerifyMode::Off,
            ..GomilConfig::default()
        },
    ];
    for (i, v) in variants.iter().enumerate() {
        assert_ne!(key(&base), key(v), "variant {i} must change the key");
    }
    // Word length and PPG are part of the key too.
    assert_ne!(
        SolveKey::new(16, PpgKind::And, &base.solve_fingerprint()),
        SolveKey::new(17, PpgKind::And, &base.solve_fingerprint()),
    );
    assert_ne!(
        SolveKey::new(16, PpgKind::And, &base.solve_fingerprint()),
        SolveKey::new(16, PpgKind::Booth4, &base.solve_fingerprint()),
    );
}

#[test]
fn budgets_do_not_change_the_key() {
    let base = GomilConfig::default();
    let budgeted = GomilConfig {
        solver_budget: Duration::from_millis(7),
        pipeline_budget: Some(Duration::from_millis(13)),
        ..GomilConfig::default()
    };
    assert_eq!(
        SolveKey::new(32, PpgKind::Booth4, &base.solve_fingerprint()),
        SolveKey::new(32, PpgKind::Booth4, &budgeted.solve_fingerprint()),
    );
}

// ---------------------------------------------------------------------
// Singleflight under thread fan-in.
// ---------------------------------------------------------------------

fn synthetic_outcome(req: &SolveRequest) -> ServeOutcome {
    ServeOutcome {
        name: format!("SYN-{}-{}", req.ppg.label(), req.m),
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
        degraded: false,
        vs_counts: vec![2; 2 * req.m - 1],
        solver_gap: 0.0,
        verdict: VerdictTier::Tested,
        counters: distinct_counters(),
        improvements: vec![(40, req.m as f64 + 2.0), (90, req.m as f64)],
    }
}

/// Every declared counter set, by name, to a value no other counter has.
fn distinct_counters() -> SolveCounters {
    let mut counters = SolveCounters::default();
    for (i, (name, _, _)) in SolveCounters::default().iter().enumerate() {
        assert!(counters.set(name, 1_000 + 37 * i as u64));
    }
    counters
}

#[test]
fn thirty_two_threads_on_four_keys_solve_exactly_four_times() {
    let invocations = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&invocations);
    let solver: Box<SolverFn> = Box::new(move |req, _, _| {
        counter.fetch_add(1, Ordering::SeqCst);
        // Long enough that all duplicates of a key are in flight together.
        std::thread::sleep(Duration::from_millis(50));
        Ok(synthetic_outcome(req))
    });
    let svc = SolveService::new(
        "fan-in-test".into(),
        solver,
        ServeConfig {
            jobs: 32,
            queue_capacity: 32,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // 32 concurrent requests over 4 distinct keys.
    let requests: Vec<SolveRequest> = (0..32)
        .map(|i| SolveRequest {
            m: 8 + (i % 4),
            ppg: PpgKind::And,
        })
        .collect();
    let results = svc.run_batch(&requests);
    assert!(results.iter().all(Result::is_ok));

    assert_eq!(
        invocations.load(Ordering::SeqCst),
        4,
        "exactly one solver invocation per distinct key"
    );
    let report = svc.report();
    assert_eq!(report.solves, 4);
    assert_eq!(
        report.dedup_joins + report.hits,
        28,
        "the other 28 requests joined a flight or hit the cache"
    );
}

// ---------------------------------------------------------------------
// Singleflight holds across the network path too: concurrent identical
// HTTP requests over real sockets coalesce to one solver invocation.
// ---------------------------------------------------------------------

#[test]
fn concurrent_identical_http_posts_coalesce_to_one_solve() {
    let invocations = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&invocations);
    let solver: Box<SolverFn> = Box::new(move |req, _, _| {
        counter.fetch_add(1, Ordering::SeqCst);
        // Long enough that every client is in flight before the leader
        // finishes: latecomers must join the flight, not re-solve.
        std::thread::sleep(Duration::from_millis(300));
        Ok(synthetic_outcome(req))
    });
    let svc = SolveService::new(
        "http-fan-in".into(),
        solver,
        ServeConfig {
            jobs: 8,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server = gomil_httpd::Server::bind(
        Arc::new(svc),
        "127.0.0.1:0",
        gomil_httpd::HttpdConfig {
            max_inflight: 8,
            max_queue: 16,
            ..gomil_httpd::HttpdConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let clients: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                gomil_httpd::client::post_json(&addr, "/solve", r#"{"m": 12, "ppg": "and"}"#)
                    .expect("transport must not fail")
            })
        })
        .collect();
    let bodies: Vec<String> = clients
        .into_iter()
        .map(|c| {
            let resp = c.join().unwrap();
            assert_eq!(resp.status, 200, "{}", resp.text());
            resp.text()
        })
        .collect();
    for body in &bodies {
        assert_eq!(
            body, &bodies[0],
            "all eight clients receive byte-identical replies"
        );
    }
    assert_eq!(
        invocations.load(Ordering::SeqCst),
        1,
        "the network path must preserve singleflight: one solve for eight sockets"
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

// ---------------------------------------------------------------------
// Degraded results are served but never poison the cache (real pipeline).
// ---------------------------------------------------------------------

#[test]
fn dead_budget_batch_degrades_per_request_without_poisoning_the_cache() {
    let dir = std::env::temp_dir().join(format!("gomil-serve-poison-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_file = dir.join("cache.tsv");

    let starved = GomilConfig {
        pipeline_budget: Some(Duration::ZERO),
        ..GomilConfig::fast()
    };
    let svc = serve_service(
        &starved,
        ServeConfig {
            jobs: 2,
            cache_path: Some(cache_file.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let requests = [
        SolveRequest {
            m: 4,
            ppg: PpgKind::And,
        },
        SolveRequest {
            m: 5,
            ppg: PpgKind::And,
        },
    ];
    for res in svc.run_batch(&requests) {
        let outcome = res.expect("a dead budget degrades, it does not fail");
        assert!(
            outcome.degraded,
            "zero budget must mark the result degraded"
        );
        assert!(
            outcome.verified,
            "even degraded results are correct multipliers"
        );
    }
    assert_eq!(
        svc.cache_len(),
        0,
        "degraded results must not enter the cache"
    );
    assert_eq!(svc.persist().unwrap(), 0, "nothing to persist");

    // A healthy service over the same cache file starts cold: the starved
    // batch left nothing behind to be mistaken for an optimum.
    let healthy = serve_service(
        &GomilConfig::fast(),
        ServeConfig {
            jobs: 2,
            cache_path: Some(cache_file),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert_eq!(healthy.cache_len(), 0);
    let fresh = healthy
        .serve_one(&SolveRequest {
            m: 4,
            ppg: PpgKind::And,
        })
        .unwrap();
    assert!(!fresh.degraded);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Cached results are byte-equal to fresh solves, including across
// persistence (real pipeline).
// ---------------------------------------------------------------------

#[test]
fn cached_results_are_byte_equal_to_fresh_solves_across_persistence() {
    let dir = std::env::temp_dir().join(format!("gomil-serve-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_file = dir.join("cache.tsv");
    let cfg = GomilConfig::fast();
    let req = SolveRequest {
        m: 6,
        ppg: PpgKind::And,
    };

    let first = serve_service(
        &cfg,
        ServeConfig {
            jobs: 1,
            cache_path: Some(cache_file.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let fresh = first.serve_one(&req).unwrap();
    let hit = first.serve_one(&req).unwrap();
    assert_eq!(fresh, hit);
    assert_eq!(
        fresh.to_line(),
        hit.to_line(),
        "in-memory hit is byte-equal"
    );
    assert_eq!(first.persist().unwrap(), 1);

    // A new service process loads the persisted entry and answers without
    // a single new solve, byte-for-byte identically.
    let second = serve_service(
        &cfg,
        ServeConfig {
            jobs: 1,
            cache_path: Some(cache_file),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert_eq!(second.cache_len(), 1);
    let reloaded = second.serve_one(&req).unwrap();
    assert_eq!(
        reloaded.to_line(),
        fresh.to_line(),
        "persisted hit is byte-equal"
    );
    assert_eq!(second.report().solves, 0, "no new ILP solve after reload");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// The equivalence gate blocks corrupted netlists end to end: a typed
// verification error surfaces to the requester and nothing is cached.
// ---------------------------------------------------------------------

#[test]
fn corrupted_netlists_surface_typed_verification_errors_and_stay_uncached() {
    // A saboteur solver: build the real design with the construction-time
    // gate disabled, flip one gate, then run the same verdict path the
    // production solver uses — simulating a netlist corrupted after the
    // optimizer but before publication.
    let solver: Box<SolverFn> = Box::new(|req, _, _| {
        let cfg = GomilConfig {
            verify: VerifyMode::Off,
            ..GomilConfig::fast()
        };
        let mut design =
            build_gomil(req.m, req.ppg, &cfg).map_err(|e| ServeError::Solve(e.to_string()))?;
        let idx = design
            .build
            .netlist
            .cells()
            .iter()
            .position(|c| c.kind == GateKind::Xor2)
            .expect("a multiplier contains XOR gates");
        design.build.netlist.inject_cell_kind(idx, GateKind::Xnor2);
        let (verdict, failure) = design.build.render_verdict(&VerifyConfig::fast());
        assert_eq!(
            verdict.tier(),
            VerdictTier::Failed,
            "the flipped gate must be caught"
        );
        Err(ServeError::Verification(
            gomil::GomilError::from(failure.expect("a failed verdict carries a typed failure"))
                .to_string(),
        ))
    });
    let svc = SolveService::new("sabotage".into(), solver, ServeConfig::default()).unwrap();
    let req = SolveRequest {
        m: 4,
        ppg: PpgKind::And,
    };
    let err = svc.serve_one(&req).unwrap_err();
    assert!(
        matches!(err, ServeError::Verification(_)),
        "typed verification error must surface: {err:?}"
    );
    assert!(
        err.to_string().contains('×'),
        "the error must carry the counterexample: {err}"
    );
    assert_eq!(svc.cache_len(), 0, "a failed netlist must never be cached");
    let r = svc.report();
    assert_eq!(r.errors, 1);
    assert_eq!(r.solves, 1);
    assert_eq!(r.warm_hints, 0, "no warm hint may be donated");
}

// ---------------------------------------------------------------------
// The solve counters: declared once, every one reaches each consumer.
// ---------------------------------------------------------------------

/// The keys of the `outcome` object every `/solve` and `/design` reply
/// carried before the counters were declared as one record.
const OUTCOME_KEYS: [&str; 25] = [
    "name",
    "m",
    "ppg",
    "area",
    "delay",
    "power",
    "gates",
    "verified",
    "strategy",
    "objective",
    "degraded",
    "vs_counts",
    "solver_nodes",
    "solver_lp_iters",
    "solver_gap",
    "solver_warm_attempts",
    "solver_warm_hits",
    "solver_refactors",
    "verdict",
    "verify_vectors",
    "verify_us",
    "root_us",
    "root_lp_iters",
    "cuts_added",
    "improvements",
];

/// A service whose synthetic solver counts its invocations and answers
/// [`synthetic_outcome`], under `fingerprint`, persisting to `cache_file`.
fn synthetic_service(
    fingerprint: String,
    cache_file: &std::path::Path,
) -> (SolveService, Arc<AtomicUsize>) {
    let invocations = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&invocations);
    let solver: Box<SolverFn> = Box::new(move |req, _, _| {
        counter.fetch_add(1, Ordering::SeqCst);
        Ok(synthetic_outcome(req))
    });
    let config = ServeConfig {
        cache_path: Some(cache_file.to_path_buf()),
        ..ServeConfig::default()
    };
    let svc = SolveService::new(fingerprint, solver, config).unwrap();
    (svc, invocations)
}

#[test]
fn every_declared_counter_reaches_the_reply_cache_mart_and_metrics() {
    let dir = std::env::temp_dir().join(format!("gomil-serve-counters-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_file = dir.join("cache.tsv");
    let req = SolveRequest {
        m: 8,
        ppg: PpgKind::And,
    };
    let expected = distinct_counters();
    let (svc, _) = synthetic_service("counters".into(), &cache_file);
    let svc = Arc::new(svc);
    let server = gomil_httpd::Server::bind(
        Arc::clone(&svc),
        "127.0.0.1:0",
        gomil_httpd::HttpdConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    // The JSON reply: one member per counter, and today's keys besides.
    let reply = gomil_httpd::client::post_json(&addr, "/solve", r#"{"m": 8, "ppg": "and"}"#)
        .expect("transport must not fail");
    assert_eq!(reply.status, 200, "{}", reply.text());
    let body = gomil_httpd::parse_json(&reply.text()).unwrap();
    let Some(Json::Obj(outcome)) = body.get("outcome") else {
        panic!("reply has no outcome object: {}", reply.text());
    };
    let keys: BTreeSet<&str> = outcome.keys().map(String::as_str).collect();
    let names: BTreeSet<&str> = expected.iter().map(|(name, _, _)| name).collect();
    assert!(
        keys.is_superset(&OUTCOME_KEYS.into_iter().collect()),
        "a reply key went missing: {keys:?}"
    );
    assert!(
        keys.iter()
            .all(|k| OUTCOME_KEYS.contains(k) || names.contains(k)),
        "only a declared counter may add a reply key: {keys:?}"
    );
    for (name, _, value) in expected.iter() {
        assert_eq!(outcome[name].as_u64(), Some(value), "reply {name}");
    }

    // `/metrics`: one solve, so each total is that solve's value.
    let metrics = gomil_httpd::client::request(&addr, "GET", "/metrics", &[], b"")
        .unwrap()
        .text();
    for (name, _, value) in expected.iter() {
        let line = format!("gomil_{name}_total {value}");
        assert!(
            metrics.lines().any(|l| l == line),
            "missing {line} in:\n{metrics}"
        );
    }
    handle.shutdown();
    join.join().unwrap().unwrap();

    // The cache file: a fresh service loads the record and answers it
    // without solving.
    assert_eq!(svc.persist().unwrap(), 1);
    let (reloaded, invocations) = synthetic_service("counters".into(), &cache_file);
    let hit = reloaded
        .cached(&req)
        .expect("the persisted record is served");
    assert_eq!(hit.counters, expected);
    assert_eq!(invocations.load(Ordering::SeqCst), 0);

    // The mart: written by the builder, read back by `Mart::load`.
    let key = svc.key_for(&req);
    let mart_file = dir.join("designs.mart");
    let mut builder = gomil_mart::MartBuilder::new(SOLVER_VERSION);
    builder.insert(&key, &hit);
    builder.write(&mart_file).unwrap();
    let mart = gomil_mart::Mart::load(&mart_file).unwrap();
    assert_eq!(mart.get(&key).expect("mart entry").counters, expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// The solver version is part of every key: a persisted record written
/// under another solver version is never served, and the request solves.
#[test]
fn a_cached_record_from_another_solver_version_is_never_served() {
    let dir = std::env::temp_dir().join(format!("gomil-serve-version-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_file = dir.join("cache.tsv");
    let req = SolveRequest {
        m: 4,
        ppg: PpgKind::And,
    };
    let fingerprint = GomilConfig::default().solve_fingerprint();
    let current = format!("solver={SOLVER_VERSION}");
    assert!(fingerprint.ends_with(&current), "{fingerprint}");
    let older = fingerprint.replace(&current, &format!("solver={}", SOLVER_VERSION - 1));

    let (old, _) = synthetic_service(older, &cache_file);
    old.serve_one(&req).unwrap();
    assert_eq!(old.persist().unwrap(), 1);

    let (svc, invocations) = synthetic_service(fingerprint, &cache_file);
    assert_eq!(svc.cache_len(), 1, "the v3 file itself loads");
    assert!(svc.cached(&req).is_none(), "but its record matches no key");
    svc.serve_one(&req).unwrap();
    assert_eq!(invocations.load(Ordering::SeqCst), 1, "the request solves");
    std::fs::remove_dir_all(&dir).ok();
}
