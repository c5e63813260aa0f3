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
