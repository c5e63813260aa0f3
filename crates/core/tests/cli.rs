//! End-to-end tests of the `gomil` CLI binary.

use std::process::Command;

fn gomil(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gomil"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn info_prints_paper_defaults() {
    let out = gomil(&["info"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("w = 8"));
    assert!(text.contains("L = 10"));
}

#[test]
fn prefix_solves_example_1() {
    let out = gomil(&["prefix", "2", "2", "1", "2", "1", "1"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("area  = 16"));
    assert!(text.contains("delay = 5"));
}

#[test]
fn gen_writes_verilog_to_stdout() {
    let out = gomil(&["gen", "4"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("module "));
    assert!(text.contains("output [7:0] p;"));
    let log = String::from_utf8_lossy(&out.stderr);
    // The equivalence gate proves m = 4 exhaustively and says so.
    assert!(log.contains("equivalence:"), "{log}");
    assert!(log.contains("proved"), "{log}");
    assert!(log.contains("verdict:"), "{log}");
}

#[test]
fn gen_verify_off_reports_a_skipped_verdict() {
    let out = gomil(&["gen", "4", "--verify", "off"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("skipped"), "{log}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = gomil(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn malformed_solver_flags_fail_before_any_solve() {
    let cases: [&[&str]; 9] = [
        &["--solver-jobs", "two"],
        &["--budget-ms", "1s"],
        &["--pricing", "fast"],
        &["--cuts", "none"],
        &["--scaling", "yes"],
        &["--reduce", "0"],
        &["--verify", "max"],
        &["--budget-ms"],
        &["--solver-jobs", "--pricing", "devex"],
    ];
    for flags in cases {
        let mut args = vec!["gen", "4"];
        args.extend_from_slice(flags);
        let out = gomil(&args);
        let log = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flags:?} must fail: {log}");
        assert!(out.stdout.is_empty(), "{flags:?} must not emit Verilog");
        assert!(
            log.contains(flags[0]),
            "{flags:?}: error names the flag: {log}"
        );
        if let Some(value) = flags.get(1) {
            assert!(
                log.contains(value),
                "{flags:?}: error names the value: {log}"
            );
        }
        assert!(
            !log.contains("equivalence:"),
            "{flags:?} ran a solve: {log}"
        );
    }
}

#[test]
fn gen_rejects_an_unknown_argument_before_any_solve() {
    let out = gomil(&["gen", "3", "--bogus"]);
    let log = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{log}");
    assert!(log.contains("--bogus"), "error names the argument: {log}");
    assert!(out.stdout.is_empty(), "no Verilog: {log}");
    assert!(!log.contains("equivalence:"), "ran a solve: {log}");
}

#[test]
fn gen_builds_the_named_ppg() {
    let out = gomil(&["gen", "3", "bw", "--budget-ms", "100"]);
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{log}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("module gomil_bw_3"), "{log}");
}

/// Asserts that `args` fails before any solve with an error naming each
/// of `needles`.
fn assert_rejected_before_solving(args: &[&str], needles: &[&str]) {
    let out = gomil(args);
    let log = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} must fail: {log}");
    assert!(out.stdout.is_empty(), "{args:?} printed results: {log}");
    for needle in needles {
        assert!(
            log.contains(needle),
            "{args:?}: error names {needle}: {log}"
        );
    }
}

#[test]
fn batch_serve_and_mart_build_reject_unknown_arguments_before_any_solve() {
    let dir = std::env::temp_dir().join(format!("gomil-cli-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let requests = dir.join("requests.txt");
    std::fs::write(&requests, "4\n").unwrap();
    let requests = requests.to_str().unwrap();
    let mart = dir.join("designs.mart");
    let mart = mart.to_str().unwrap();
    let cases: [(&[&str], &[&str]); 8] = [
        (&["batch", "3", "--bogus", "--no-cache-file"], &["--bogus"]),
        (&["batch", "3", "4", "--no-cache-file"], &["`4`"]),
        (
            &["batch", "3", "--repeat", "twice", "--no-cache-file"],
            &["--repeat", "twice"],
        ),
        (
            &["serve", "--requests", requests, "--frobnicate", "7"],
            &["--frobnicate"],
        ),
        (
            &["serve", "--requests", requests, "--jobs", "abc"],
            &["--jobs", "abc"],
        ),
        (
            &["serve", "--listen", "127.0.0.1:0", "--http-queue", "many"],
            &["--http-queue", "many"],
        ),
        (
            &["mart", "build", "--ms", "3", "--out", mart, "--bogus"],
            &["--bogus"],
        ),
        (
            &["mart", "build", "--ms", "3", "--out", mart, "--cache", "f"],
            &["--cache"],
        ),
    ];
    for (args, needles) in cases {
        assert_rejected_before_solving(args, needles);
    }
    assert!(!std::path::Path::new(mart).exists(), "no mart was written");
    std::fs::remove_dir_all(&dir).ok();
}

/// The invocations the benchmark makes pass the argument checks: each
/// fails only later, on an input chosen to stop it before any solve.
#[test]
fn the_benchmark_invocations_pass_the_argument_checks() {
    let missing = std::env::temp_dir().join("gomil-cli-no-such.mart");
    let missing = missing.to_str().unwrap();
    let cases: [(&[&str], &str); 2] = [
        (
            &[
                "mart", "build", "--jobs", "2", "--ms", "1", "--out", missing,
            ],
            "no valid (m, PPG) pairs",
        ),
        (
            &[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--no-cache-file",
                "--mart",
                missing,
            ],
            "--mart",
        ),
    ];
    for (args, expected) in cases {
        let out = gomil(args);
        let log = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?}: {log}");
        assert!(log.contains(expected), "{args:?}: {log}");
        assert!(!log.contains("unexpected argument"), "{args:?}: {log}");
    }
}

/// `batch` and `serve` say when the cache file they load had corrupt
/// lines, as they do for a mart: the next persist rewrites the file
/// without them.
#[test]
fn corrupt_cache_lines_are_reported_at_startup() {
    let dir = std::env::temp_dir().join(format!("gomil-cli-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("bad.tsv");
    let mut bytes = format!("{}\n", gomil_serve::PERSIST_HEADER).into_bytes();
    bytes.extend_from_slice(b"\xff\xfe not UTF-8\n");
    std::fs::write(&cache, bytes).unwrap();
    let cache = cache.to_str().unwrap();
    let out = gomil(&["batch", "3", "--cache", cache]);
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{log}");
    assert!(
        log.contains(&format!("warning: {cache}: skipped 1 corrupt cache lines")),
        "{log}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
