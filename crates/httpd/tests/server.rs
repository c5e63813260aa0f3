//! End-to-end tests of the HTTP layer over real sockets, with a
//! synthetic (sleeping) solver so shedding, deadlines, streaming, and
//! drain are deterministic and fast.

use gomil_httpd::{client, HttpdConfig, Server};
use gomil_mart::Mart;
use gomil_serve::{
    DesignMetrics, PpgKind, ServeConfig, ServeOutcome, SolveCounters, SolveService, VerdictTier,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn outcome_for(m: usize) -> ServeOutcome {
    ServeOutcome {
        name: format!("HTTPD-{m}"),
        m,
        ppg: PpgKind::And,
        metrics: DesignMetrics {
            area: m as f64 * 2.0,
            delay: 4.0,
            power: 1.0,
        },
        gates: 12 * m,
        verified: true,
        strategy: "joint-ilp".into(),
        objective: 100.0 + m as f64,
        degraded: false,
        vs_counts: vec![1, 2, 1],
        solver_gap: 0.0,
        verdict: VerdictTier::Proved,
        counters: SolveCounters {
            solver_nodes: 5,
            solver_lp_iters: 50,
            verify_vectors: 256,
            verify_us: 10,
            root_us: 100,
            root_lp_iters: 5,
            ..SolveCounters::default()
        },
        improvements: vec![(1_000, 110.0), (5_000, 100.0 + m as f64)],
    }
}

/// A server whose solver sleeps `solve_ms` per request (cancellation-
/// aware) and counts invocations.
fn start_server(
    solve_ms: u64,
    httpd: HttpdConfig,
) -> (
    String,
    gomil_httpd::ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
    Arc<AtomicU64>,
) {
    let invocations = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&invocations);
    let service = SolveService::new(
        "httpd-test".into(),
        Box::new(move |req, _hint, budget| {
            counter.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_millis(solve_ms);
            let mut cancelled = false;
            while Instant::now() < deadline {
                if let Some(b) = budget {
                    if b.check().is_err() {
                        cancelled = true;
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let mut outcome = outcome_for(req.m);
            if cancelled {
                outcome.degraded = true;
                outcome.strategy = "dadda".into();
            }
            Ok(outcome)
        }),
        ServeConfig {
            jobs: 1,
            warm_start: false,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server = Server::bind(Arc::new(service), "127.0.0.1:0", httpd).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join, invocations)
}

#[test]
fn solve_healthz_metrics_design_and_drain_work_end_to_end() {
    let (addr, handle, join, invocations) = start_server(5, HttpdConfig::default());

    let health = client::request(&addr, "GET", "/healthz", &[], b"").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "ok\n");

    let solve = client::post_json(&addr, "/solve", r#"{"m": 8, "ppg": "and"}"#).unwrap();
    assert_eq!(solve.status, 200, "{}", solve.text());
    let body = solve.text();
    assert!(body.contains("\"name\":\"HTTPD-8\""), "{body}");
    assert!(body.contains("\"verdict\":\"proved\""), "{body}");
    assert!(body.contains("\"fingerprint\":\""), "{body}");

    // Same request again: served from cache, no second invocation.
    let again = client::post_json(&addr, "/solve", r#"{"m": 8, "ppg": "and"}"#).unwrap();
    assert_eq!(again.status, 200);
    assert_eq!(invocations.load(Ordering::SeqCst), 1);

    // The fingerprint in the reply resolves through GET /design/.
    let fp = body
        .split("\"fingerprint\":\"")
        .nth(1)
        .unwrap()
        .split('"')
        .next()
        .unwrap()
        .to_string();
    let design = client::request(&addr, "GET", &format!("/design/{fp}"), &[], b"").unwrap();
    assert_eq!(design.status, 200);
    assert!(design.text().contains("\"name\":\"HTTPD-8\""));
    let missing = client::request(&addr, "GET", "/design/ffffffffffffffff", &[], b"").unwrap();
    assert_eq!(missing.status, 404);
    let malformed = client::request(&addr, "GET", "/design/not-hex", &[], b"").unwrap();
    assert_eq!(malformed.status, 400);

    // Metrics are Prometheus-parseable and carry the request counters.
    let metrics = client::request(&addr, "GET", "/metrics", &[], b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("gomil_requests_total"), "{text}");
    assert!(text.contains("gomil_shed_total 0"), "{text}");
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').expect("metric line");
        assert!(value.parse::<f64>().is_ok(), "unparseable {line}");
    }

    // Malformed solve bodies are 400s.
    for bad in [
        "not json",
        "{}",
        r#"{"m": 1}"#,
        r#"{"m": 8, "ppg": "quantum"}"#,
        r#"{"m": 8, "budget_ms": -2}"#,
    ] {
        let resp = client::post_json(&addr, "/solve", bad).unwrap();
        assert_eq!(resp.status, 400, "{bad} → {}", resp.text());
    }
    let bad_header = client::request(
        &addr,
        "POST",
        "/solve",
        &[("X-Gomil-Deadline-Ms", "soon")],
        br#"{"m": 8}"#,
    )
    .unwrap();
    assert_eq!(bad_header.status, 400);

    // Graceful drain: POST /shutdown, run() returns, healthz goes away.
    let down = client::post_json(&addr, "/shutdown", "").unwrap();
    assert_eq!(down.status, 200);
    assert!(handle.is_draining());
    join.join().unwrap().unwrap();
    assert!(client::request(&addr, "GET", "/healthz", &[], b"").is_err());
}

#[test]
fn bursts_past_the_queue_shed_with_429_and_retry_after() {
    // One permit, zero queue, slow solver: any concurrent second request
    // must shed.
    let (addr, handle, join, invocations) = start_server(
        300,
        HttpdConfig {
            max_inflight: 1,
            max_queue: 0,
            ..HttpdConfig::default()
        },
    );

    let addr2 = addr.clone();
    let slow =
        std::thread::spawn(move || client::post_json(&addr2, "/solve", r#"{"m": 10}"#).unwrap());
    std::thread::sleep(Duration::from_millis(100)); // let the leader start
    assert_eq!(invocations.load(Ordering::SeqCst), 1, "leader is in flight");

    // A *different* request (same key would coalesce via singleflight).
    let shed = client::post_json(&addr, "/solve", r#"{"m": 12}"#).unwrap();
    assert_eq!(shed.status, 429, "{}", shed.text());
    let retry: u64 = shed
        .header("retry-after")
        .expect("shed reply carries Retry-After")
        .parse()
        .expect("Retry-After is integral seconds");
    assert!((1..=60).contains(&retry));

    let ok = slow.join().unwrap();
    assert_eq!(ok.status, 200);
    assert!(!ok.text().contains("\"degraded\":true"));

    // The shed is visible in /metrics; the admitted request completed.
    let metrics = client::request(&addr, "GET", "/metrics", &[], b"").unwrap();
    assert!(
        metrics.text().contains("gomil_shed_total 1"),
        "{}",
        metrics.text()
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `POST /lp` solves an uploaded LP-format model with the real branch
/// and bound (no synthetic solver in this path) and reports model
/// outcomes — optimal, infeasible — as 200s with a status field.
#[test]
fn post_lp_solves_uploaded_models() {
    let (addr, handle, join, invocations) = start_server(1, HttpdConfig::default());

    let knap = "Maximize\n obj: +3 a +4 b +2 c\n\
                Subject To\n weight: +2 a +3 b +1 c <= 4\n\
                Binaries\n a b c\nEnd\n";
    let resp = client::request(&addr, "POST", "/lp", &[], knap.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let body = resp.text();
    assert!(body.contains("\"status\":\"optimal\""), "{body}");
    assert!(body.contains("\"objective\":6"), "{body}");
    assert!(body.contains("\"certified\":true"), "{body}");
    assert!(body.contains("\"b\":1"), "{body}");

    // An infeasible model is an answer, not an error.
    let infeasible = "Minimize\n obj: x\nSubject To\n lo: x >= 2\n hi: x <= 1\nEnd\n";
    let resp = client::request(&addr, "POST", "/lp", &[], infeasible.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("\"status\":\"infeasible\""));

    // Unparseable text and empty bodies are client errors.
    let bad = client::request(&addr, "POST", "/lp", &[], b"this is not an lp file").unwrap();
    assert_eq!(bad.status, 400, "{}", bad.text());
    assert!(bad.text().contains("error"));
    // A non-ASCII identifier is a parse error, not a dropped connection.
    let accented = "minimize\n obj: é\nend";
    let bad = client::request(&addr, "POST", "/lp", &[], accented.as_bytes()).unwrap();
    assert_eq!(bad.status, 400, "{}", bad.text());
    // So is a coefficient that overflows to infinity.
    let huge = "Minimize\n obj: x\nSubject To\n c: 1e400 x >= 1\nEnd\n";
    let bad = client::request(&addr, "POST", "/lp", &[], huge.as_bytes()).unwrap();
    assert_eq!(bad.status, 400, "{}", bad.text());
    assert!(bad.text().contains("line 4"), "{}", bad.text());
    let empty = client::request(&addr, "POST", "/lp", &[], b"").unwrap();
    assert_eq!(empty.status, 400);
    let wrong_method = client::request(&addr, "GET", "/lp", &[], b"").unwrap();
    assert_eq!(wrong_method.status, 405);

    // /lp never touches the design pipeline or its cache.
    assert_eq!(invocations.load(Ordering::SeqCst), 0);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `POST /lp` competes for the same slots as `POST /solve`: with the only
/// slot held by a slow design solve and no waiting room, an uploaded
/// model sheds with 429 and a `Retry-After`, and the shed is counted.
#[test]
fn lp_posts_shed_while_a_solve_holds_the_only_slot() {
    let (addr, handle, join, invocations) = start_server(
        300,
        HttpdConfig {
            max_inflight: 1,
            max_queue: 0,
            ..HttpdConfig::default()
        },
    );
    let addr2 = addr.clone();
    let slow =
        std::thread::spawn(move || client::post_json(&addr2, "/solve", r#"{"m": 10}"#).unwrap());
    while invocations.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }

    let knap = "Maximize\n obj: +3 a +4 b +2 c\n\
                Subject To\n weight: +2 a +3 b +1 c <= 4\n\
                Binaries\n a b c\nEnd\n";
    let shed = client::request(&addr, "POST", "/lp", &[], knap.as_bytes()).unwrap();
    assert_eq!(shed.status, 429, "{}", shed.text());
    let retry: u64 = shed
        .header("retry-after")
        .expect("shed reply carries Retry-After")
        .parse()
        .expect("Retry-After is integral seconds");
    assert!((1..=60).contains(&retry), "Retry-After {retry}");

    assert_eq!(slow.join().unwrap().status, 200);
    let metrics = client::request(&addr, "GET", "/metrics", &[], b"").unwrap();
    assert!(
        metrics.text().contains("gomil_shed_total 1"),
        "{}",
        metrics.text()
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A request covered by the precomputed design mart must be served with
/// zero solver invocations and zero admission permits — even while the
/// queue is actively shedding — and the hit must show up in `/metrics`.
#[test]
fn mart_hits_bypass_admission_while_the_queue_sheds() {
    // Build a tiny mart covering m=8 on disk, exactly as `gomil mart
    // build` would.
    let dir = std::env::temp_dir().join(format!("gomil-httpd-mart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mart_path = dir.join("designs.mart");
    let probe = SolveService::new(
        "httpd-test".into(),
        Box::new(|req, _, _| Ok(outcome_for(req.m))),
        ServeConfig::default(),
    )
    .unwrap();
    let covered_key = probe.key_for(&gomil_serve::SolveRequest {
        m: 8,
        ppg: PpgKind::And,
    });
    let mut precomputed = outcome_for(8);
    precomputed.name = "MART-8".into();
    let mut mart = Mart::default();
    mart.insert(&covered_key, &precomputed);
    mart.write(&mart_path).unwrap();

    // One permit, zero queue, slow solver — same shedding setup as the
    // 429 test, but with the mart attached.
    let invocations = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&invocations);
    let service = SolveService::new(
        "httpd-test".into(),
        Box::new(move |req, _hint, _budget| {
            counter.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(300));
            Ok(outcome_for(req.m))
        }),
        ServeConfig {
            jobs: 1,
            warm_start: false,
            ..ServeConfig::default()
        },
    )
    .unwrap()
    .with_mart(Arc::new(Mart::load(&mart_path).unwrap()));
    let server = Server::bind(
        Arc::new(service),
        "127.0.0.1:0",
        HttpdConfig {
            max_inflight: 1,
            max_queue: 0,
            ..HttpdConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    // Occupy the only permit with a slow solve.
    let addr2 = addr.clone();
    let slow =
        std::thread::spawn(move || client::post_json(&addr2, "/solve", r#"{"m": 10}"#).unwrap());
    while invocations.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // An uncovered request sheds: the queue really is full.
    let shed = client::post_json(&addr, "/solve", r#"{"m": 12}"#).unwrap();
    assert_eq!(shed.status, 429, "{}", shed.text());

    // The mart-covered request is served *now*, despite zero available
    // permits, with zero extra solver invocations.
    let hit = client::post_json(&addr, "/solve", r#"{"m": 8, "ppg": "and"}"#).unwrap();
    assert_eq!(hit.status, 200, "{}", hit.text());
    let body = hit.text();
    assert!(body.contains("\"name\":\"MART-8\""), "{body}");
    assert!(
        body.contains(&format!("\"key\":\"{}\"", covered_key.canonical())),
        "solve reply echoes the canonical key: {body}"
    );
    assert_eq!(
        invocations.load(Ordering::SeqCst),
        1,
        "only the slow leader ever reached the solver"
    );

    // The hit resolves through GET /design/ too, key echoed.
    let fp = format!("{:016x}", covered_key.hash64());
    let design = client::request(&addr, "GET", &format!("/design/{fp}"), &[], b"").unwrap();
    assert_eq!(design.status, 200);
    assert!(
        design.text().contains("\"name\":\"MART-8\""),
        "{}",
        design.text()
    );
    assert!(
        design
            .text()
            .contains(&format!("\"key\":\"{}\"", covered_key.canonical())),
        "design reply echoes the canonical key: {}",
        design.text()
    );

    let slow_resp = slow.join().unwrap();
    assert_eq!(slow_resp.status, 200);

    // Mart serving is visible in /metrics.
    let metrics = client::request(&addr, "GET", "/metrics", &[], b"").unwrap();
    let text = metrics.text();
    assert!(text.contains("gomil_mart_entries 1"), "{text}");
    let hits: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("gomil_mart_hits_total "))
        .expect("gomil_mart_hits_total exported")
        .parse()
        .unwrap();
    assert!(hits >= 1, "the covered solve hit the mart, got {hits}");
    let coverage: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("gomil_mart_coverage "))
        .expect("gomil_mart_coverage exported")
        .parse()
        .unwrap();
    assert!(coverage > 0.0, "{text}");

    handle.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deadlines_cancel_the_solve_and_count_in_metrics() {
    let (addr, handle, join, _invocations) = start_server(5_000, HttpdConfig::default());
    let t0 = Instant::now();
    let resp = client::request(
        &addr,
        "POST",
        "/solve",
        &[("X-Gomil-Deadline-Ms", "100")],
        br#"{"m": 9}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "deadline must cut the 5s solve short, took {:?}",
        t0.elapsed()
    );
    assert!(
        resp.text().contains("\"degraded\":true"),
        "a deadline-cut solve is degraded: {}",
        resp.text()
    );
    let metrics = client::request(&addr, "GET", "/metrics", &[], b"").unwrap();
    assert!(
        metrics.text().contains("gomil_deadline_cancelled_total 1"),
        "{}",
        metrics.text()
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn streaming_solves_emit_heartbeats_incumbents_and_done() {
    let (addr, handle, join, _invocations) = start_server(600, HttpdConfig::default());
    let resp = client::post_json(&addr, "/solve?stream=1", r#"{"m": 7}"#).unwrap();
    assert_eq!(resp.status, 200);
    let events = resp.text();
    assert!(events.contains("\"event\":\"heartbeat\""), "{events}");
    assert!(events.contains("\"event\":\"incumbent\""), "{events}");
    assert!(events.contains("\"at_us\":1000"), "{events}");
    let done = events.lines().last().expect("stream has a final line");
    assert!(done.contains("\"event\":\"done\""), "{events}");
    assert!(done.contains("\"name\":\"HTTPD-7\""), "{events}");

    // A cached streaming request answers with just the done event.
    let cached = client::post_json(&addr, "/solve?stream=1", r#"{"m": 7}"#).unwrap();
    let events = cached.text();
    assert!(!events.contains("heartbeat"), "{events}");
    assert!(events.contains("\"event\":\"done\""), "{events}");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn drain_cancels_inflight_work_within_the_budget_and_persists() {
    let dir = std::env::temp_dir().join(format!("gomil-httpd-drain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_path = dir.join("cache.tsv");

    let invocations = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&invocations);
    let service = SolveService::new(
        "httpd-drain".into(),
        Box::new(move |req, _hint, budget| {
            counter.fetch_add(1, Ordering::SeqCst);
            // "Infinite" solve: only cancellation ends it.
            let budget = budget.expect("server always passes a budget registry entry");
            while budget.check().is_ok() {
                std::thread::sleep(Duration::from_millis(2));
            }
            let mut outcome = outcome_for(req.m);
            outcome.degraded = true;
            Ok(outcome)
        }),
        ServeConfig {
            jobs: 1,
            warm_start: false,
            cache_path: Some(cache_path.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // Pre-seed one cacheable entry via a direct insert-equivalent: solve
    // is never non-degraded here, so persistence proving ground is the
    // empty-but-written file plus a clean exit.
    let server = Server::bind(
        Arc::new(service),
        "127.0.0.1:0",
        HttpdConfig {
            drain_budget: Duration::from_millis(400),
            ..HttpdConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let addr2 = addr.clone();
    let inflight =
        std::thread::spawn(move || client::post_json(&addr2, "/solve", r#"{"m": 11}"#).unwrap());
    while invocations.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Shut down while the solve is "stuck": drain must cancel it, the
    // client must still get its degraded answer, and run() must return
    // within the drain budget (plus unwind grace), not hang.
    let t0 = Instant::now();
    handle.shutdown();
    join.join().unwrap().unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "drain took {:?}",
        t0.elapsed()
    );
    let resp = inflight.join().unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("\"degraded\":true"), "{}", resp.text());

    // The cache file was flushed on drain (header-only: degraded results
    // are never cached).
    assert!(cache_path.exists(), "drain must persist the cache");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn socket_level_singleflight_coalesces_identical_requests() {
    let (addr, handle, join, invocations) = start_server(200, HttpdConfig::default());
    let mut clients = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        clients.push(std::thread::spawn(move || {
            client::post_json(&addr, "/solve", r#"{"m": 6}"#).unwrap()
        }));
    }
    let bodies: Vec<String> = clients
        .into_iter()
        .map(|c| {
            let resp = c.join().unwrap();
            assert_eq!(resp.status, 200);
            resp.text()
        })
        .collect();
    for body in &bodies {
        assert_eq!(body, &bodies[0], "all replies identical");
    }
    // Coalescing bound: the 8 concurrent identical requests trigger far
    // fewer solves (typically 1; cache race can allow a stray).
    assert!(
        invocations.load(Ordering::SeqCst) <= 2,
        "expected coalescing, got {} invocations",
        invocations.load(Ordering::SeqCst)
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}
