//! `gomil` — command-line front end for the GOMIL reproduction.
//!
//! ```text
//! gomil gen <m> [and|mbe] [--out FILE] [--verify off|fast|strict] [--no-verify]
//!             [--budget-ms N] [--solver-jobs N]
//!             [--pricing dantzig|devex] [--cuts off|root]
//!             [--scaling on|off] [--reduce on|off]
//!                                                      generate + export Verilog
//! gomil compare <m>                                    Fig. 3-style table at one width
//! gomil batch <m,m,…> [--all-ppg] [--jobs N] [--repeat K]
//!             [--cache FILE|--no-cache-file] [--verify off|fast|strict]
//!             [--budget-ms N] [--solver-jobs N]
//!             [--pricing dantzig|devex] [--cuts off|root]
//!             [--scaling on|off] [--reduce on|off]
//!                                                      concurrent batch via gomil-serve
//! gomil serve --requests FILE [--jobs N] [--cache FILE|--no-cache-file]
//!             [--verify off|fast|strict] [--budget-ms N] [--solver-jobs N]
//!             [--pricing dantzig|devex] [--cuts off|root]
//!             [--scaling on|off] [--reduce on|off]
//!                                                      serve a request file
//! gomil serve --listen ADDR [--http-inflight N] [--http-queue N]
//!             [--drain-ms N] [--deadline-ms N] [serve flags as above]
//!                                                      HTTP solve service (gomil-httpd)
//! gomil mart build [--out FILE] [--ms m,m,…] [--refresh] [solver flags]
//!                                                      precompute the design mart
//! gomil mart stats <FILE>                              mart summary
//! gomil mart verify <FILE>                             mart integrity audit
//! gomil prefix <heights MSB-first…> [--w W]            optimize a prefix BCV
//! gomil trunc <m> <k>                                  truncated multiplier report
//! gomil info                                           defaults and versions
//! ```
//!
//! `--mart FILE` on `batch` and `serve` attaches a read-only precomputed
//! design mart: covered requests are served with zero solver invocations
//! (and, over HTTP, zero admission permits).
//!
//! `--jobs` sizes the *service* worker pool (requests in flight);
//! `--solver-jobs` sizes the *branch-and-bound* worker pool inside each
//! individual ILP solve. They compose: `--jobs 4 --solver-jobs 2` runs up
//! to four pipelines, each searching its tree with two threads.
//!
//! `--pricing` picks the simplex pricing rule (`devex` default; `dantzig`
//! for A/B comparison), `--cuts` toggles root-node cut separation
//! (`root` default), `--reduce` toggles the LP reduction presolve
//! (row/column elimination with a basis-lifting postsolve; `on` default),
//! and `--scaling` toggles geometric-mean power-of-two row equilibration
//! (`on` default). All are latency knobs: every setting proves the same
//! certified optima, so none of them enters the solve fingerprint.
//!
//! `--verify` selects the equivalence gate every emitted netlist must
//! pass: `fast` (default) proves small widths exhaustively and samples
//! corners + random vectors beyond; `strict` widens both budgets and
//! additionally demands at least a `tested` verdict before a serve-layer
//! result may be cached; `off` (alias `--no-verify`) disables the gate.

use gomil::{
    build_baseline, build_gomil, build_gomil_truncated, normalize, serve_service, solve_summary,
    BaselineKind, DesignReport, GomilConfig, PpgKind, ServeConfig, SolveRequest, VerdictTier,
    VerifyMode,
};
use gomil_prefix::{leaf_types, optimize_prefix_tree};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("mart") => cmd_mart(&args[1..]),
        Some("prefix") => cmd_prefix(&args[1..]),
        Some("trunc") => cmd_trunc(&args[1..]),
        Some("info") => cmd_info(),
        _ => {
            eprintln!(
                "usage: gomil <gen|compare|batch|serve|mart|prefix|trunc|info> …  (see --help in README)"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Parses shared optimizer flags: `--budget-ms N` bounds the whole
/// pipeline with a wall-clock deadline (expiry degrades the optimizer
/// down its fallback ladder instead of failing the command),
/// `--solver-jobs N` runs each branch-and-bound solve with `N` workers
/// (1, the default, searches deterministically on the calling thread),
/// `--pricing {dantzig,devex}` picks the simplex pricing rule,
/// `--cuts {off,root}` toggles root cut separation,
/// `--scaling {on,off}` / `--reduce {on,off}` toggle LP equilibration
/// scaling and the reduction presolve, and `--verify {off,fast,strict}`
/// picks the equivalence gate. The solver knobs are latency knobs: every
/// setting proves the same certified optima.
///
/// A flag given without a value, or with a value it does not accept, is
/// an error naming both, so a typo never runs with the default instead.
fn cfg_from_args(args: &[String]) -> Result<GomilConfig, String> {
    let mut cfg = GomilConfig::default();
    if let Some(ms) = parse_flag(args, "--budget-ms", |s| s.parse::<u64>().ok())? {
        cfg.pipeline_budget = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(jobs) = parse_flag(args, "--solver-jobs", |s| s.parse::<usize>().ok())? {
        cfg.solver_jobs = jobs.max(1);
    }
    if let Some(p) = parse_flag(args, "--pricing", gomil_ilp::Pricing::from_name)? {
        cfg.pricing = p;
    }
    if let Some(c) = parse_flag(args, "--cuts", gomil_ilp::CutMode::from_name)? {
        cfg.cuts = c;
    }
    if let Some(s) = parse_flag(args, "--scaling", on_off)? {
        cfg.scaling = s;
    }
    if let Some(r) = parse_flag(args, "--reduce", on_off)? {
        cfg.reduce = r;
    }
    // `--no-verify` predates the tiered gate and is kept as an alias for
    // `--verify off`; an explicit `--verify MODE` wins.
    if args.iter().any(|a| a == "--no-verify") {
        cfg.verify = VerifyMode::Off;
    }
    if let Some(mode) = parse_flag(args, "--verify", VerifyMode::from_name)? {
        cfg.verify = mode;
    }
    Ok(cfg)
}

/// The value of flag `name` through `parse`: `Ok(None)` when the flag is
/// absent, an error naming the flag when its value is missing or rejected.
fn parse_flag<T>(
    args: &[String],
    name: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args.get(i + 1).ok_or(format!("{name} needs a value"))?;
    parse(value)
        .map(Some)
        .ok_or(format!("invalid value `{value}` for {name}"))
}

/// Parses an `on`/`off` flag value (`true`/`false` accepted as aliases).
fn on_off(s: &str) -> Option<bool> {
    match s {
        "on" | "true" => Some(true),
        "off" | "false" => Some(false),
        _ => None,
    }
}

fn parse_m(args: &[String]) -> Result<usize, Box<dyn std::error::Error>> {
    args.first()
        .ok_or("missing word length argument")?
        .parse::<usize>()
        .map_err(|e| format!("bad word length: {e}").into())
}

fn cmd_gen(args: &[String]) -> CliResult {
    let m = parse_m(args)?;
    let ppg = if args.iter().any(|a| a == "mbe" || a == "booth") {
        PpgKind::Booth4
    } else {
        PpgKind::And
    };
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1));

    let cfg = cfg_from_args(args)?;
    // The equivalence gate runs inside build_gomil: a Failed netlist is a
    // hard error before this point, so reaching here means the verdict is
    // at worst Skipped (when the gate is off).
    let design = build_gomil(m, ppg, &cfg)?;
    eprintln!(
        "equivalence: {} — {}",
        design.build.name, design.solution.verdict
    );
    eprintln!(
        "V_s = {}  |  CT cost {}  |  prefix cost {}  [{}]",
        design.solution.vs,
        design.solution.ct_cost,
        design.solution.prefix_cost,
        design.solution.strategy
    );
    eprint!("{}", solve_summary(&design.solution));
    let verilog = design.build.netlist.to_verilog();
    match out {
        Some(path) => {
            std::fs::File::create(path)?.write_all(verilog.as_bytes())?;
            eprintln!("wrote {path} ({} gates)", design.build.netlist.num_gates());
        }
        None => print!("{verilog}"),
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> CliResult {
    let m = parse_m(args)?;
    let cfg = GomilConfig::default();
    let mut reports = Vec::new();
    for kind in BaselineKind::all() {
        reports.push(DesignReport::measure(
            &build_baseline(kind, m, &cfg),
            cfg.power_vectors,
        ));
    }
    for ppg in [PpgKind::And, PpgKind::Booth4] {
        let d = build_gomil(m, ppg, &cfg)?;
        reports.push(DesignReport::measure(&d.build, cfg.power_vectors));
    }
    for r in &reports {
        if !r.verified {
            return Err(format!("{} failed verification", r.name).into());
        }
        eprintln!("{r}");
    }
    println!(
        "\n{:<18} {:>8} {:>8} {:>8} {:>8}   (normalized to B-Wal-RCA)",
        "design", "delay", "area", "power", "pdp"
    );
    for row in normalize(&reports, "B-Wal-RCA") {
        println!(
            "{:<18} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            row.name, row.delay, row.area, row.power, row.pdp
        );
    }
    Ok(())
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
}

/// Parses the `gomil-serve` tuning flags shared by `batch` and `serve`.
/// The cache persists to `gomil-serve-cache.tsv` in the working directory
/// unless `--cache FILE` overrides the path or `--no-cache-file` disables
/// persistence.
fn serve_config_from_args(args: &[String]) -> ServeConfig {
    let mut sc = ServeConfig::default();
    if let Some(jobs) = flag_value(args, "--jobs").and_then(|s| s.parse().ok()) {
        sc.jobs = jobs;
    }
    sc.cache_path = if args.iter().any(|a| a == "--no-cache-file") {
        None
    } else {
        Some(
            flag_value(args, "--cache")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("gomil-serve-cache.tsv")),
        )
    };
    if args.iter().any(|a| a == "--no-warm-start") {
        sc.warm_start = false;
    }
    // Strict verification also tightens the admission gate: nothing may
    // be cached on a skipped verdict.
    if let Some(VerifyMode::Strict) =
        flag_value(args, "--verify").and_then(|s| VerifyMode::from_name(s))
    {
        sc.min_verdict = VerdictTier::Tested;
    }
    sc
}

/// Attaches the `--mart FILE` precomputed design store, when given: the
/// service then answers covered requests without touching the solver.
fn attach_mart(
    svc: gomil::SolveService,
    args: &[String],
) -> Result<gomil::SolveService, Box<dyn std::error::Error>> {
    let Some(path) = flag_value(args, "--mart") else {
        return Ok(svc);
    };
    let mart = gomil_mart::Mart::load(std::path::Path::new(path))
        .map_err(|e| format!("--mart {path}: {e}"))?;
    if mart.skipped() > 0 {
        eprintln!(
            "warning: {path}: skipped {} corrupt mart entries",
            mart.skipped()
        );
    }
    eprintln!(
        "mart: {} precomputed designs from {path} (solver version {})",
        gomil_serve::DesignStore::len(&mart),
        mart.solver_version()
    );
    Ok(svc.with_mart(std::sync::Arc::new(mart)))
}

/// Whether `build_gomil` accepts this (m, PPG) pair — mirrors its input
/// validation so `batch --all-ppg` can skip unsupported combinations
/// instead of printing per-request errors.
fn ppg_supported(m: usize, ppg: PpgKind) -> bool {
    if m < 2 {
        return false;
    }
    match ppg {
        PpgKind::Booth4 => m.is_multiple_of(2),
        PpgKind::Booth8 => m >= 3,
        _ => true,
    }
}

fn print_results(
    requests: &[SolveRequest],
    results: &[Result<gomil::ServeOutcome, gomil::ServeError>],
) {
    for (req, res) in requests.iter().zip(results) {
        match res {
            Ok(outcome) => println!("{outcome}"),
            Err(e) => println!("{req}: {e}"),
        }
    }
}

fn finish_service(svc: &gomil::SolveService) -> CliResult {
    let saved = svc.persist()?;
    if saved > 0 {
        eprintln!("persisted {saved} cache entries");
    }
    println!("\n{}", svc.report());
    Ok(())
}

fn cmd_batch(args: &[String]) -> CliResult {
    let ms: Vec<usize> = args
        .first()
        .ok_or("usage: gomil batch <m,m,…> [--all-ppg] [--jobs N] [--repeat K]")?
        .split(',')
        .map(|s| s.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad word-length list: {e}"))?;
    let all_ppg = args.iter().any(|a| a == "--all-ppg");
    let repeat = flag_value(args, "--repeat")
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(2)
        .max(1);
    let cfg = cfg_from_args(args)?;
    let svc = attach_mart(serve_service(&cfg, serve_config_from_args(args))?, args)?;

    let ppgs: &[PpgKind] = if all_ppg {
        &PpgKind::all()
    } else {
        &[PpgKind::And]
    };
    let base: Vec<SolveRequest> = ms
        .iter()
        .flat_map(|&m| ppgs.iter().map(move |&ppg| SolveRequest { m, ppg }))
        .filter(|r| ppg_supported(r.m, r.ppg))
        .collect();
    if base.is_empty() {
        return Err("no valid (m, PPG) requests in the batch".into());
    }
    // The duplicated request list: adjacent same-key duplicates overlap in
    // flight and coalesce through singleflight; the later waves (--repeat)
    // re-submit the whole list and are answered from the cache.
    let wave: Vec<SolveRequest> = base.iter().flat_map(|r| [r.clone(), r.clone()]).collect();
    for round in 0..repeat {
        let results = svc.run_batch(&wave);
        if round == 0 {
            // Print each request once (even indices are the first of each
            // duplicate pair).
            let firsts: Vec<_> = results.iter().step_by(2).cloned().collect();
            print_results(&base, &firsts);
        }
        let failed = results.iter().filter(|r| r.is_err()).count();
        if failed > 0 {
            eprintln!(
                "wave {}: {failed} of {} requests failed",
                round + 1,
                results.len()
            );
        }
    }
    finish_service(&svc)
}

/// `gomil serve --listen ADDR`: run the long-lived HTTP front end
/// (`gomil-httpd`) instead of a one-shot request file. Blocks until a
/// `POST /shutdown` drains the server, then exits 0.
fn cmd_serve_http(args: &[String], addr: &str) -> CliResult {
    let mut httpd = gomil_httpd::HttpdConfig::default();
    if let Some(n) = flag_value(args, "--http-inflight").and_then(|s| s.parse().ok()) {
        httpd.max_inflight = n;
    }
    if let Some(n) = flag_value(args, "--http-queue").and_then(|s| s.parse().ok()) {
        httpd.max_queue = n;
    }
    if let Some(ms) = flag_value(args, "--drain-ms").and_then(|s| s.parse::<u64>().ok()) {
        httpd.drain_budget = std::time::Duration::from_millis(ms);
    }
    if let Some(raw) = flag_value(args, "--deadline-ms") {
        let deadline = gomil_budget::parse_deadline_ms(raw).ok_or_else(|| {
            format!(
                "--deadline-ms: expected integral milliseconds ≤ {}, got {raw:?}",
                gomil_budget::MAX_DEADLINE_MS
            )
        })?;
        httpd.default_deadline = Some(deadline);
    }
    let cfg = cfg_from_args(args)?;
    let svc = std::sync::Arc::new(attach_mart(
        serve_service(&cfg, serve_config_from_args(args))?,
        args,
    )?);
    let server = gomil_httpd::Server::bind(std::sync::Arc::clone(&svc), addr, httpd)?;
    let local = server.local_addr()?;
    eprintln!("listening on http://{local}  (POST /shutdown to drain)");
    server.run()?;
    eprintln!("drained cleanly");
    println!("\n{}", svc.report());
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    if let Some(addr) = flag_value(args, "--listen") {
        return cmd_serve_http(args, addr);
    }
    let path = flag_value(args, "--requests")
        .ok_or("usage: gomil serve --requests FILE | --listen ADDR [--jobs N] [--cache FILE]")?;
    let text = std::fs::read_to_string(path)?;
    let mut requests = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let m = fields
            .next()
            .expect("non-empty line has a first field")
            .parse::<usize>()
            .map_err(|e| format!("{path}:{}: bad word length: {e}", idx + 1))?;
        let ppg = match fields.next() {
            None => PpgKind::And,
            Some(name) => PpgKind::from_name(name)
                .ok_or_else(|| format!("{path}:{}: unknown PPG {name:?}", idx + 1))?,
        };
        requests.push(SolveRequest { m, ppg });
    }
    if requests.is_empty() {
        return Err(format!("{path}: no requests (lines are `<m> [ppg]`)").into());
    }
    let cfg = cfg_from_args(args)?;
    let svc = attach_mart(serve_service(&cfg, serve_config_from_args(args))?, args)?;
    let results = svc.run_batch(&requests);
    print_results(&requests, &results);
    let failed = results.iter().filter(|r| r.is_err()).count();
    finish_service(&svc)?;
    if failed > 0 {
        return Err(format!("{failed} of {} requests failed", results.len()).into());
    }
    Ok(())
}

fn cmd_mart(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("build") => cmd_mart_build(&args[1..]),
        Some("stats") => cmd_mart_stats(&args[1..]),
        Some("verify") => cmd_mart_verify(&args[1..]),
        _ => Err("usage: gomil mart <build|stats|verify> …".into()),
    }
}

fn mart_path_arg(args: &[String]) -> Result<PathBuf, Box<dyn std::error::Error>> {
    args.iter()
        .find(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .ok_or_else(|| "missing mart file argument".into())
}

/// The strongest verdict tier the current verify mode could certify for
/// an `m × m` design — the refresh bar: a mart entry below it is worth
/// re-solving even if its solver version is current.
fn achievable_tier(m: usize, cfg: &GomilConfig) -> VerdictTier {
    match cfg.verify.config() {
        None => VerdictTier::Skipped,
        // Mirrors `verify_multiplier`'s exhaustive gate: `4^m` operand
        // pairs up to the mode's limit (hard-capped at 16), sampled past
        // it.
        Some(vc) => {
            if m <= vc.exhaustive_limit && m <= 16 {
                VerdictTier::Proved
            } else {
                VerdictTier::Tested
            }
        }
    }
}

/// `gomil mart build`: sweep the (m ∈ roster, PPG ∈ all, config) lattice
/// through the parallel solve/ladder/verify pipeline and persist every
/// certified outcome. With `--refresh` an existing mart at `--out` is
/// updated incrementally: entries whose recorded solver version is
/// current *and* whose verdict tier is already the best achievable are
/// carried over byte-for-byte; everything else is re-solved.
fn cmd_mart_build(args: &[String]) -> CliResult {
    let out = flag_value(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("gomil-designs.mart"));
    let ms: Vec<usize> = flag_value(args, "--ms")
        .map(String::as_str)
        .unwrap_or("4,8,16")
        .split(',')
        .map(|s| s.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad --ms list: {e}"))?;
    let refresh = args.iter().any(|a| a == "--refresh");
    let cfg = cfg_from_args(args)?;
    // The mart is its own persistence: the builder service runs without a
    // cache file so a stale TSV cannot leak into the store.
    let mut sc = serve_config_from_args(args);
    sc.cache_path = None;
    let svc = serve_service(&cfg, sc)?;

    let lattice: Vec<SolveRequest> = ms
        .iter()
        .flat_map(|&m| {
            PpgKind::all()
                .into_iter()
                .map(move |ppg| SolveRequest { m, ppg })
        })
        .filter(|r| ppg_supported(r.m, r.ppg))
        .collect();
    if lattice.is_empty() {
        return Err("no valid (m, PPG) pairs in the roster".into());
    }

    let existing = if refresh && out.exists() {
        Some(gomil_mart::Mart::load(&out)?)
    } else {
        None
    };
    let mut builder = gomil_mart::MartBuilder::new(gomil::SOLVER_VERSION);
    let mut to_solve = Vec::new();
    let mut carried = 0usize;
    for req in &lattice {
        let key = svc.key_for(req);
        let keep = existing.as_ref().and_then(|mart| {
            mart.entries()
                .find(|(k, _, _)| *k == key.canonical())
                .map(|(_, version, outcome)| (version, outcome.clone()))
        });
        match keep {
            Some((version, outcome))
                if version >= gomil::SOLVER_VERSION
                    && !outcome.degraded
                    && outcome.verdict >= achievable_tier(req.m, &cfg) =>
            {
                builder.insert_with_version(&key, &outcome, version);
                carried += 1;
            }
            _ => to_solve.push(req.clone()),
        }
    }

    let t0 = std::time::Instant::now();
    let results = svc.run_batch(&to_solve);
    let mut solved = 0usize;
    let mut rejected = 0usize;
    for (req, result) in to_solve.iter().zip(&results) {
        match result {
            Ok(outcome) if !outcome.degraded => {
                builder.insert(&svc.key_for(req), outcome);
                solved += 1;
            }
            Ok(_) => {
                eprintln!("warning: {req}: degraded outcome, not stored (raise --budget-ms)");
                rejected += 1;
            }
            Err(e) => {
                eprintln!("warning: {req}: {e}");
                rejected += 1;
            }
        }
    }
    let written = builder.write(&out)?;
    eprintln!(
        "mart: wrote {written} designs to {} ({} solved in {:?}, {carried} carried over, {rejected} rejected; solver version {})",
        out.display(),
        solved,
        t0.elapsed(),
        gomil::SOLVER_VERSION
    );
    if rejected > 0 {
        return Err(format!("{rejected} lattice points could not be certified").into());
    }
    Ok(())
}

fn cmd_mart_stats(args: &[String]) -> CliResult {
    let path = mart_path_arg(args)?;
    let mart = gomil_mart::Mart::load(&path)?;
    let stats = mart.stats(gomil::SOLVER_VERSION);
    println!("mart {}", path.display());
    println!(
        "entries {}   skipped {}   solver version {} (current {})",
        stats.entries,
        stats.skipped,
        stats.solver_version,
        gomil::SOLVER_VERSION
    );
    println!(
        "verdicts: proved {}  tested {}  skipped {}  failed {}",
        stats.verdicts[0], stats.verdicts[1], stats.verdicts[2], stats.verdicts[3]
    );
    println!(
        "stale (older solver version) {}   m range {}..={}",
        stats.stale, stats.m_range.0, stats.m_range.1
    );
    Ok(())
}

fn cmd_mart_verify(args: &[String]) -> CliResult {
    let path = mart_path_arg(args)?;
    let report = gomil_mart::Mart::verify_file(&path)?;
    println!(
        "{}: {} ok, {} corrupt, {} index-hash mismatches",
        path.display(),
        report.ok,
        report.corrupt,
        report.hash_mismatch
    );
    if !report.clean() {
        return Err("mart verification failed".into());
    }
    println!("mart verified clean");
    Ok(())
}

fn cmd_prefix(args: &[String]) -> CliResult {
    let w = args
        .iter()
        .position(|a| a == "--w")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse::<f64>())
        .transpose()?
        .unwrap_or(8.0);
    let mut heights: Vec<u32> = args
        .iter()
        .take_while(|a| *a != "--w")
        .map(|s| s.parse::<u32>())
        .collect::<Result<_, _>>()?;
    if heights.is_empty() {
        return Err("provide column heights (MSB first), e.g. 2 2 1 2 1 1".into());
    }
    heights.reverse();
    let b = leaf_types(&heights);
    let sol = optimize_prefix_tree(&b, w);
    println!("area  = {}", sol.area);
    println!("delay = {}", sol.delay);
    println!("cost  = {} (A + {w}·D)", sol.cost);
    println!("tree  = {}", sol.tree);
    Ok(())
}

fn cmd_trunc(args: &[String]) -> CliResult {
    let m = parse_m(args)?;
    let k = args
        .get(1)
        .ok_or("missing truncation depth")?
        .parse::<usize>()?;
    let cfg = GomilConfig::default();
    let d = build_gomil_truncated(m, k, &cfg)?;
    let met = d.build.netlist.metrics(cfg.power_vectors);
    let e = d.build.error_stats();
    println!("{}: {met}", d.build.name);
    println!(
        "error: max |e| = {}, mean = {:.3}, rmse = {:.3} over {} samples",
        e.max_abs, e.mean, e.rmse, e.samples
    );
    Ok(())
}

fn cmd_info() -> CliResult {
    let cfg = GomilConfig::default();
    println!("gomil reproduction of Xiao/Qian/Liu, DATE 2021");
    println!(
        "defaults: w = {}, L = {}, α = {}, β = {}, solver budget = {:?}, arrival-aware = {}, solver jobs = {}, verify = {}, pricing = {}, cuts = {}",
        cfg.w, cfg.l, cfg.alpha, cfg.beta, cfg.solver_budget, cfg.arrival_aware, cfg.solver_jobs,
        cfg.verify.label(),
        cfg.pricing.name(),
        cfg.cuts.name()
    );
    Ok(())
}
