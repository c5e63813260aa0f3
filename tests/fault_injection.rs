//! Failure-injection tests: the verification machinery must actually
//! catch broken hardware, wrong schedules, and corrupted artifacts — a
//! test suite that can only pass is not a test suite.

use gomil::{
    build_gomil, build_gomil_truncated, GomilConfig, GomilError, MultiplierBuild, PpgKind, Rung,
    RungOutcome, VerdictTier, VerifyConfig, VerifyMode,
};
use gomil_arith::{and_ppg, Bcv, CompressionSchedule, StageCounts};
use gomil_ilp::{certify_values, CertifyError, Cmp, LinExpr, Model, Sense};
use gomil_netlist::{GateKind, Netlist};
use std::time::Duration;

fn cfg() -> GomilConfig {
    GomilConfig::fast()
}

#[test]
fn verify_rejects_an_adder_posing_as_a_multiplier() {
    // A netlist with the right ports computing a + b instead of a × b.
    let mut nl = Netlist::new("impostor");
    let a = nl.add_input("a", 4);
    let b = nl.add_input("b", 4);
    let mut carry = nl.const0();
    let mut bits = Vec::new();
    for i in 0..4 {
        let (s, c) = nl.full_adder(a[i], b[i], carry);
        bits.push(s);
        carry = c;
    }
    bits.push(carry);
    let zero = nl.const0();
    while bits.len() < 8 {
        bits.push(zero);
    }
    nl.add_output("p", bits);
    let fake = MultiplierBuild {
        name: "fake".into(),
        netlist: nl,
        m: 4,
        ppg: PpgKind::And,
    };
    let err = fake.verify().expect_err("an adder is not a multiplier");
    assert!(
        matches!(err, GomilError::Verification(_)),
        "verification failures must be typed: {err:?}"
    );
    assert!(
        err.to_string().contains('×'),
        "error should name the failing product: {err}"
    );
}

#[test]
fn verify_rejects_bit_order_corruption() {
    // Corrupt the exported Verilog by swapping two product-bit
    // assignments, re-import, and confirm verification catches it.
    let d = build_gomil(4, PpgKind::And, &cfg()).unwrap();
    let v = d.build.netlist.to_verilog();
    let corrupted = v
        .replace("assign p[1] = ", "assign p[@] = ")
        .replace("assign p[2] = ", "assign p[1] = ")
        .replace("assign p[@] = ", "assign p[2] = ");
    assert_ne!(v, corrupted, "the export must contain both assignments");
    let broken = Netlist::from_verilog(&corrupted).expect("still well-formed");
    let fake = MultiplierBuild {
        name: "bit-swapped".into(),
        netlist: broken,
        m: 4,
        ppg: PpgKind::And,
    };
    assert!(
        fake.verify().is_err(),
        "swapped product bits must be caught"
    );
}

#[test]
fn schedule_validation_catches_oversubscription() {
    let mut nl = Netlist::new("t");
    let a = nl.add_input("a", 3);
    let b = nl.add_input("b", 3);
    let pp = and_ppg(&mut nl, &a, &b);
    // A stage demanding a full adder in a 1-bit column.
    let mut sched = CompressionSchedule::new();
    let mut st = StageCounts::new(pp.width());
    st.full[0] = 1;
    sched.stages.push(st);
    let err = sched.apply(&pp.heights()).unwrap_err();
    assert_eq!(err.col, 0);
    assert!(gomil_arith::realize_schedule(&mut nl, &pp, &sched).is_err());
}

#[test]
fn truncated_multiplier_fails_exact_verification() {
    // Negative control: the approximate flow must NOT pass the exact
    // verifier once any column is dropped.
    let d = build_gomil_truncated(6, 3, &cfg()).unwrap();
    assert!(d.build.verify().is_err());
    // …while its error statistics stay within the documented bound.
    let e = d.build.error_stats();
    assert!(e.max_abs > 0);
}

#[test]
fn verilog_parser_rejects_corrupted_exports() {
    let d = build_gomil(4, PpgKind::And, &cfg()).unwrap();
    let v = d.build.netlist.to_verilog();
    // Cut the file in half: must not parse into something silently wrong.
    let truncated = &v[..v.len() / 2];
    assert!(Netlist::from_verilog(truncated).is_err());
    // Corrupt an operator into an unsupported one.
    let corrupted = v.replacen(" ^ ", " ** ", 1);
    assert!(Netlist::from_verilog(&corrupted).is_err());
}

#[test]
fn dead_pipeline_budget_degrades_to_a_verified_fallback() {
    // Inject a rung failure: a zero pipeline budget kills every optimizer
    // rung, so the build must come back through the unconditional Dadda
    // fallback — still functionally correct, with the ladder's record
    // attached naming what happened.
    let cfg = GomilConfig {
        pipeline_budget: Some(Duration::ZERO),
        ..cfg()
    };
    let d = build_gomil(8, PpgKind::And, &cfg).expect("degraded build must still succeed");
    d.build
        .verify()
        .expect("fallback multiplier must be correct");
    let report = &d.solution.degradation;
    assert_eq!(report.winner, Some(Rung::DaddaPrefix), "{report}");
    assert_eq!(d.solution.strategy, "dadda-prefix");
    // Every rung appears in the report, and none of the budgeted ones won.
    assert_eq!(report.attempts.len(), 3, "{report}");
    for attempt in &report.attempts {
        if attempt.rung != Rung::DaddaPrefix {
            assert!(
                !matches!(attempt.outcome, RungOutcome::Succeeded { .. }),
                "{report}"
            );
        }
    }
}

#[test]
fn certifier_rejects_corrupted_assignments() {
    // An independent check must catch a "solution" that violates the
    // model, not just trust the solver's word.
    let mut m = Model::new("cert_negative");
    let x = m.add_integer("x", 0.0, 3.0);
    let y = m.add_integer("y", 0.0, 3.0);
    m.add_constraint("cap", LinExpr::from(x) + y, Cmp::Le, 4.0);
    m.set_objective(LinExpr::from(x) + y, Sense::Maximize);

    // A genuinely feasible point passes.
    assert!(certify_values(&m, &[1.0, 3.0], 1e-6).is_ok());
    // Constraint violation is typed and names the constraint.
    match certify_values(&m, &[3.0, 3.0], 1e-6) {
        Err(CertifyError::ConstraintViolation { constraint, .. }) => {
            assert_eq!(constraint, "cap");
        }
        other => panic!("expected a constraint violation, got {other:?}"),
    }
    // Fractional values for integer variables are rejected.
    assert!(matches!(
        certify_values(&m, &[0.5, 1.0], 1e-6),
        Err(CertifyError::IntegralityViolation { .. })
    ));
    // Out-of-bounds and wrong-arity assignments are rejected.
    assert!(matches!(
        certify_values(&m, &[-1.0, 0.0], 1e-6),
        Err(CertifyError::BoundViolation { .. })
    ));
    assert!(matches!(
        certify_values(&m, &[1.0], 1e-6),
        Err(CertifyError::WrongArity { .. })
    ));
}

#[test]
fn schedule_for_wrong_width_is_rejected_by_realization() {
    let mut nl = Netlist::new("t");
    let a = nl.add_input("a", 4);
    let b = nl.add_input("b", 4);
    let pp = and_ppg(&mut nl, &a, &b);
    // A Dadda schedule computed for a *different* (taller) matrix.
    let wrong = gomil_arith::dadda_schedule(&Bcv::and_ppg(6));
    assert!(gomil_arith::realize_schedule(&mut nl, &pp, &wrong).is_err());
}

#[test]
fn a_single_flipped_gate_is_caught_with_a_replayable_counterexample() {
    // Build a correct design with the construction-time gate off, then
    // corrupt exactly one gate (XOR → XNOR, same arity) — the smallest
    // fault a netlist can suffer without changing its shape at all.
    let mut design = build_gomil(
        4,
        PpgKind::And,
        &GomilConfig {
            verify: VerifyMode::Off,
            ..cfg()
        },
    )
    .unwrap();
    let (clean, clean_failure) = design.build.render_verdict(&VerifyConfig::fast());
    assert!(
        clean_failure.is_none(),
        "uncorrupted build must pass: {clean}"
    );
    assert_eq!(clean.tier(), VerdictTier::Proved, "m = 4 is exhaustive");

    let idx = design
        .build
        .netlist
        .cells()
        .iter()
        .position(|c| c.kind == GateKind::Xor2)
        .expect("a multiplier contains XOR gates");
    let old = design.build.netlist.inject_cell_kind(idx, GateKind::Xnor2);
    assert_eq!(old, GateKind::Xor2);

    let (verdict, failure) = design.build.render_verdict(&VerifyConfig::fast());
    assert_eq!(verdict.tier(), VerdictTier::Failed, "{verdict}");
    let failure = failure.expect("a failed verdict carries a typed failure");
    let cex = failure
        .counterexample
        .expect("a simulation mismatch carries a counterexample");

    // The counterexample is replayable: feeding it back into the corrupted
    // netlist reproduces the wrong product, which differs from the true
    // product at exactly the recorded value.
    let got = design.build.netlist.eval_ints(&[cex.x, cex.y], "p");
    assert_eq!(got, cex.got, "counterexample must replay bit-exactly");
    assert_ne!(cex.got, cex.want);
    assert_eq!(
        design.build.expected_product(cex.x, cex.y),
        cex.want,
        "the recorded want is the true product"
    );
    // And the typed error message carries the whole story.
    let err = GomilError::from(failure);
    let msg = err.to_string();
    assert!(msg.contains('×'), "{msg}");
    assert!(msg.contains("netlist produced"), "{msg}");
}

#[test]
fn a_pipeline_deadline_leaves_target_search_its_half() {
    // Under a deadline the joint ILP gets half of what remains. Given the
    // whole budget, it used to spend all of it at (5, AND) and serve 134
    // while target search, which finds 125, was skipped for lack of time.
    let cfg = GomilConfig::with_pipeline_budget(Duration::from_millis(1500));
    let d = build_gomil(5, PpgKind::And, &cfg).expect("a deadline still builds");
    let report = &d.solution.degradation;
    let target = report
        .attempts
        .iter()
        .find(|a| a.rung == Rung::TargetSearch)
        .expect("target search is on the ladder");
    assert!(
        matches!(target.outcome, RungOutcome::Succeeded { .. }),
        "{report}"
    );
    assert!(d.solution.objective <= 125.0, "{report}");
    // The ILP cannot prove (5, AND) in its half, so the answer was shaped
    // by the deadline and must never be cached.
    assert!(report.budget_limited(), "{report}");
}
