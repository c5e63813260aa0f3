//! End-to-end benchmark of the GOMIL generator and its HTTP solve service.
//!
//! ```text
//! gomil-e2ebench --gomil PATH --workload gen-ilp|serve-zipf
//!                --seed N --seconds S --trace 0|1
//! gomil-e2ebench --regime-map
//! ```
//!
//! Prints one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, taken from spans around the benchmark's own calls into
//! each layer's public entry points. Details (tail percentile and sample
//! count, host probe readings, errors) go to standard error. See
//! `README.md` beside this file.

mod gen;
mod serve;
mod stats;
mod trace;

use gen::{Tally, Traced};
use gomil_serve::json_string;
use serve::Session;
use stats::{median, share};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    gomil: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        gomil: PathBuf::from(value("--gomil")?),
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

/// Metric name, value, unit — printed in this order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Largest share of the replayed designs' time the spans may leave
/// unattributed before a traced run counts as incorrect.
const GAP_LIMIT: f64 = 0.01;

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--regime-map") {
        gen::print_regime_map();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let mut tally = Tally::default();
    let mut detail = Vec::new();
    let mut mismatches = Vec::new();
    let metrics = match (args.workload.as_str(), args.trace) {
        ("gen-ilp", false) => {
            let r = gen::run(&gen::gen_ilp(), args.seed, gen::passes(args.seconds));
            tally = r.tally;
            detail.push(format!("\"pass_s\":{}", json_nums(&r.pass_s)));
            detail.push(host_detail(&r.host_ms));
            let rss = stats::peak_rss_mb("self").unwrap_or(f64::NAN);
            end_to_end(&tally, r.busy_s, &r.setup_s, rss, &mut detail)
        }
        ("gen-ilp", true) => {
            let spec = gen::gen_ilp();
            let mut layers = Traced::default();
            let mut host = gen::run_traced(&spec, args.seed, args.seconds, &mut layers, &mut tally);
            let session = serve_session(&serve::serve_probe(), args, &mut tally)?;
            host.push(stats::host_probe_ms());
            detail.push(host_detail(&host));
            traced(&layers, &session, &host, &mut tally, &mut mismatches)
        }
        ("serve-zipf", _) => {
            let spec = serve::serve_zipf(args.seconds);
            let mut host = vec![stats::host_probe_ms()];
            let session = serve_session(&spec, args, &mut tally)?;
            host.push(stats::host_probe_ms());
            detail.push(format!("\"misses\":{}", session.misses.len()));
            detail.push(host_detail(&host));
            if args.trace {
                // The solver runs inside the server; its layers are
                // measured by replaying fixed keys in this process. The
                // server may have answered them from a warm hint, so the
                // cold replays are checked in a tally of their own.
                let mut layers = Traced::default();
                let mut replayed = Tally::default();
                let replay = gen::serve_replay(spec.replay_keys());
                let refs = gen::References::build(&replay.pass, &replay.cfg);
                for &key in &replay.pass {
                    gen::traced_design(&mut layers, &mut replayed, key, &replay, &refs);
                }
                tally.absorb(replayed);
                traced(&layers, &session, &host, &mut tally, &mut mismatches)
            } else {
                let (wall, rss) = (session.wall_s, session.peak_rss_mb);
                end_to_end(&tally, wall, &session.setup_s, rss, &mut detail)
            }
        }
        (other, _) => return Err(format!("unknown workload {other:?}")),
    };

    let errors: Vec<String> = tally
        .errors
        .iter()
        .chain(&mismatches)
        .map(|e| json_string(e))
        .collect();
    detail.push(format!("\"errors\":[{}]", errors.join(",")));
    eprintln!(
        "{{\"workload\":{},\"seed\":{},{}}}",
        json_string(&args.workload),
        args.seed,
        detail.join(",")
    );

    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = tally.failed == 0 && mismatches.is_empty() && finite && tally.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed + mismatches.len() as u64,
        body.join(",")
    ))
}

/// One serve session in a scratch directory that is removed afterwards.
fn serve_session(
    spec: &serve::SessionSpec,
    args: &Args,
    tally: &mut Tally,
) -> Result<Session, String> {
    if !args.gomil.is_file() {
        return Err(format!("no gomil binary at {}", args.gomil.display()));
    }
    let dir = serve::scratch_dir()?;
    let session = serve::run(spec, args.seed, &args.gomil, &dir, args.trace, tally);
    serve::remove_scratch(&dir);
    session
}

/// Per-layer metrics of a traced run. When none of the run's own designs
/// reached the joint ILP, one traced (3, AND) design measures that layer.
/// A replay whose spans leave more than [`GAP_LIMIT`] of its time
/// unattributed counts as a mismatch.
fn traced(
    layers: &Traced,
    session: &Session,
    host_ms: &[f64],
    tally: &mut Tally,
    mismatches: &mut Vec<String>,
) -> Metrics {
    let mut probe = Traced::default();
    if layers.ilp.solves == 0 {
        let spec = gen::gen_ilp();
        let refs = gen::References::build(&[spec.warmup], &spec.cfg);
        gen::traced_design(&mut probe, tally, spec.warmup, &spec, &refs);
    }
    for t in [layers, &probe] {
        mismatches.extend(t.mismatches.iter().cloned());
        if t.gap_share() > GAP_LIMIT {
            mismatches.push(format!(
                "spans leave {:.3} of the replayed time unattributed",
                t.gap_share()
            ));
        }
    }
    per_layer(layers, &probe, session, host_ms)
}

fn end_to_end(
    tally: &Tally,
    busy_s: f64,
    setup_s: &[f64],
    rss_mb: f64,
    detail: &mut Vec<String>,
) -> Metrics {
    let n = tally.attempted as f64;
    let lat = &tally.latencies_ms;
    let (tail_pct, tail) = stats::tail(lat);
    detail.push(format!(
        "\"latency_samples\":{},\"tail_percentile\":{},\"setup_s\":{},\"failed_share\":{},\"degraded_share\":{},\"proved_share\":{}",
        lat.len(),
        json_num(tail_pct),
        json_nums(setup_s),
        json_num(share(tally.failed as f64, n)),
        json_num(share(tally.degraded as f64, n)),
        json_num(share(tally.proved as f64, n)),
    ));
    let [objective, area, delay, pdp] = tally.quality.geo_means();
    vec![
        ("latency_p50_ms", median(lat), "ms"),
        ("latency_tail_ms", tail, "ms"),
        ("throughput_per_s", share(lat.len() as f64, busy_s), "1/s"),
        ("setup_s", median(setup_s), "s"),
        ("peak_rss_mb", rss_mb, "MiB"),
        ("ok_share", 1.0 - share(tally.failed as f64, n), "share"),
        (
            "undegraded_share",
            1.0 - share(tally.degraded as f64, n),
            "share",
        ),
        ("verdict_tier_mean", share(tally.tier_sum as f64, n), "tier"),
        ("objective_ratio_gm", objective, "ratio"),
        ("area_ratio_gm", area, "ratio"),
        ("delay_ratio_gm", delay, "ratio"),
        ("pdp_ratio_gm", pdp, "ratio"),
    ]
}

/// Per-layer metrics. Generator-side layers come from `layers`; the ILP
/// layer from `layers` when its designs ran the joint ILP, otherwise from
/// `probe`; the serve, HTTP and mart layers from `session`.
fn per_layer(layers: &Traced, probe: &Traced, session: &Session, host_ms: &[f64]) -> Metrics {
    let tr = &layers.trace;
    let d = layers.designs.max(1) as f64;
    let per_design = |name: &str| tr.total_ms(name) / d;
    let ilp_src = if layers.ilp.solves > 0 { layers } else { probe };
    let it = &ilp_src.trace;
    let c = &ilp_src.ilp;
    let solves = c.solves.max(1) as f64;
    let solve_ms = it.total_ms("ilp.solve");
    let per_call = |t: &trace::Trace, name: &str| share(t.total_ms(name), t.count(name) as f64);

    let p = &session.prometheus;
    let prom = |name: &str| p.get(name).copied().unwrap_or(0.0);
    let requests = prom("gomil_requests_total");
    let solves_served = prom("gomil_solves_total");
    let hit_ms = serve::rung_mean_ms(p, &["cache-hit", "mart-hit"]);

    vec![
        ("arith.ppg_ms", per_design("arith.ppg"), "ms"),
        ("arith.realize_ms", per_design("arith.realize"), "ms"),
        ("core.ladder_ms", per_design("core.ladder"), "ms"),
        (
            "core.target_search_ms",
            per_design("core.target_search"),
            "ms",
        ),
        (
            "core.joint_build_ms",
            per_call(it, "core.joint_build"),
            "ms",
        ),
        (
            "core.joint_score_ms",
            per_call(it, "core.joint_score"),
            "ms",
        ),
        ("core.ilp_ran_share", layers.ilp.solves as f64 / d, "share"),
        ("core.ilp_won_share", layers.ilp_won as f64 / d, "share"),
        ("ilp.solve_ms", solve_ms / solves, "ms"),
        ("ilp.presolve_ms", c.presolve_ms / solves, "ms"),
        ("ilp.root_lp_ms", c.root_lp_ms / solves, "ms"),
        ("ilp.cuts_ms", c.cuts_ms / solves, "ms"),
        (
            "ilp.tree_ms",
            (solve_ms - c.presolve_ms - c.root_lp_ms - c.cuts_ms) / solves,
            "ms",
        ),
        ("ilp.nodes", c.nodes as f64 / solves, "count"),
        (
            "ilp.lp_iterations",
            c.lp_iterations as f64 / solves,
            "count",
        ),
        ("ilp.refactors", c.refactors as f64 / solves, "count"),
        (
            "ilp.iters_per_ms",
            share(c.lp_iterations as f64, solve_ms),
            "1/ms",
        ),
        (
            "ilp.warm_hit_rate",
            share(c.warm_hits as f64, c.warm_attempts as f64),
            "share",
        ),
        (
            "ilp.hyper_rate",
            share(c.kernel_hyper as f64, c.kernel_calls as f64),
            "share",
        ),
        ("ilp.proved_share", c.proved as f64 / solves, "share"),
        ("prefix.dp_ms", per_call(tr, "prefix.dp"), "ms"),
        ("prefix.cpa_ms", per_design("prefix.cpa"), "ms"),
        ("netlist.prune_ms", per_design("netlist.prune"), "ms"),
        ("netlist.verify_ms", per_design("netlist.verify"), "ms"),
        (
            "netlist.verify_vectors",
            layers.verify_vectors as f64 / d,
            "count",
        ),
        (
            "netlist.sta_power_ms",
            per_design("netlist.sta_power"),
            "ms",
        ),
        ("netlist.verilog_ms", per_design("netlist.verilog"), "ms"),
        ("netlist.gates", layers.gates as f64 / d, "count"),
        (
            "serve.mart_hit_share",
            share(prom("gomil_mart_hits_total"), requests),
            "share",
        ),
        (
            "serve.cache_hit_share",
            share(prom("gomil_cache_hits_total"), requests),
            "share",
        ),
        ("serve.solve_share", share(solves_served, requests), "share"),
        (
            "serve.dedup_join_share",
            share(prom("gomil_dedup_joins_total"), requests),
            "share",
        ),
        (
            "serve.warm_hint_share",
            share(prom("gomil_warm_hints_total"), solves_served),
            "share",
        ),
        (
            "serve.solve_ms",
            serve::rung_mean_ms(
                p,
                &[
                    "joint-ilp",
                    "truncated-ilp",
                    "target-search",
                    "dadda-prefix",
                ],
            ),
            "ms",
        ),
        ("serve.hit_ms", hit_ms, "ms"),
        ("httpd.overhead_ms", median(&session.hit_ms) - hit_ms, "ms"),
        (
            "httpd.keepalive_hit_ms",
            median(&session.keepalive_ms),
            "ms",
        ),
        (
            "httpd.shed_share",
            share(
                session.shed as f64,
                session.hit_ms.len() as f64 + session.misses.len() as f64,
            ),
            "share",
        ),
        ("mart.build_s", median(&session.mart_build_s), "s"),
        ("serve.boot_ms", median(&session.boot_ms), "ms"),
        ("host.ref_ms", median(host_ms), "ms"),
        ("trace.overhead_ms", median(&layers.overhead_ms), "ms"),
        ("trace.gap_share", layers.gap_share(), "share"),
    ]
}

fn host_detail(host_ms: &[f64]) -> String {
    format!("\"host_ref_ms\":{}", json_nums(host_ms))
}

fn json_nums(xs: &[f64]) -> String {
    let v: Vec<String> = xs.iter().map(|x| json_num(*x)).collect();
    format!("[{}]", v.join(","))
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// keeps; non-finite values become `null`.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}
