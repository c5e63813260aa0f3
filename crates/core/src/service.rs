//! Bridge from the generic `gomil-serve` infrastructure to the real GOMIL
//! pipeline.
//!
//! `gomil-serve` is deliberately solver-agnostic (it depends only on the
//! arithmetic/netlist/budget crates), so the cache + singleflight + worker
//! pool can be tested with synthetic solvers. This module supplies the
//! production [`SolverFn`]: one end-to-end [`build_gomil_budgeted`] run
//! per request, measured and flattened into a [`ServeOutcome`].

use crate::config::GomilConfig;
use crate::error::GomilError;
use crate::flow::{build_gomil_budgeted, GomilDesign};
use crate::global::{Rung, SolveStats, WarmStartHint};
use gomil_budget::Budget;
use gomil_netlist::VerdictTier;
use gomil_serve::{ServeConfig, ServeError, ServeOutcome, SolveCounters, SolveService, SolverFn};
use std::io;

/// Generation stamp of the solve pipeline, part of
/// [`GomilConfig::solve_fingerprint`] and so of every cache and mart key.
/// Bump it whenever a solver or verifier change could *improve* an
/// already-certified outcome (better objective, higher verdict tier,
/// richer telemetry): records keyed under another version then match no
/// request, so a persisted cache or mart never serves an outdated design,
/// and `gomil mart build --refresh` re-solves every entry. Latency knobs
/// (pricing, cuts, budgets) do not warrant a bump, for the same reason
/// they are excluded from the solve fingerprint: they never change the
/// certified optimum.
pub const SOLVER_VERSION: u32 = 3;

/// Flattens a finished design into the service's cacheable record.
///
/// The solve counters count the joint ILP's work whenever the ladder ran
/// it, whichever rung won. Its gap and incumbent timeline are carried
/// only when its design is the one served and its model was the full
/// Eq. 27 (at most `cfg.l` columns; wider models truncate the prefix
/// objective to `c_{L−1:0}`). Every other design has no proved bound: an
/// infinite gap and an empty timeline.
///
/// The `degraded` flag implements the serving layer's caching contract: a
/// result is degraded — served to its requester but never cached — when
/// the ladder absorbed a rung failure, when the wall-clock budget shaped
/// the result ([`DegradationReport::budget_limited`]), or when the
/// last-resort Dadda rung won (which only happens after every optimizing
/// rung failed or was budget-skipped). A more generous retry could improve
/// all three, so none may be pinned in the cache.
///
/// [`DegradationReport::budget_limited`]: crate::DegradationReport::budget_limited
fn outcome_from(design: &GomilDesign, cfg: &GomilConfig) -> ServeOutcome {
    let sol = &design.solution;
    let degradation = &sol.degradation;
    let degraded = degradation.degraded()
        || degradation.budget_limited()
        || degradation.winner == Some(Rung::DaddaPrefix);
    let stats = sol.solver_stats.as_ref();
    let count = |field: fn(&SolveStats) -> u64| stats.map_or(0, field);
    let proof =
        stats.filter(|_| degradation.winner == Some(Rung::JointIlp) && sol.vs.len() <= cfg.l);
    let root = stats.map(|s| s.root).unwrap_or_default();
    // The verdict the admission gate stamped during the build. `Failed`
    // cannot reach this point (the build errors out instead); `Skipped`
    // (verification off / approximate design) falls back to the legacy
    // spot check so the `verified` flag keeps its historical meaning.
    let verdict = sol.verdict.tier();
    let verified = match verdict {
        VerdictTier::Proved | VerdictTier::Tested => true,
        VerdictTier::Failed => false,
        VerdictTier::Skipped => design.build.verify().is_ok(),
    };
    ServeOutcome {
        name: design.build.name.clone(),
        m: design.build.m,
        ppg: design.build.ppg,
        metrics: design.build.netlist.metrics(cfg.power_vectors),
        gates: design.build.netlist.num_gates(),
        verified,
        strategy: sol.strategy.to_string(),
        objective: sol.objective,
        degraded,
        vs_counts: sol.vs.counts().to_vec(),
        solver_gap: proof.map_or(f64::INFINITY, |s| s.gap),
        verdict,
        counters: SolveCounters {
            solver_nodes: count(|s| s.nodes),
            solver_lp_iters: count(|s| s.lp_iterations),
            solver_warm_attempts: count(|s| s.lp_warm_attempts),
            solver_warm_hits: count(|s| s.lp_warm_hits),
            solver_refactors: count(|s| s.lp_refactors),
            verify_vectors: sol.verdict.vectors(),
            verify_us: sol.verify_time.as_micros() as u64,
            // Model build through the cut loop (the first factorization
            // is inside the root LP time).
            root_us: root.build_us + root.presolve_us + root.root_lp_us + root.cut_us,
            root_lp_iters: root.root_lp_iters,
            cuts_added: root.cuts_added,
        },
        improvements: proof
            .map(|s| {
                s.improvements
                    .iter()
                    .map(|ev| (ev.at.as_micros() as u64, ev.objective))
                    .collect()
            })
            .unwrap_or_default(),
    }
}

/// The production solver for a [`SolveService`]: each request runs the
/// full GOMIL pipeline under `cfg`, seeded with the neighbor incumbent the
/// service hands over and governed by the caller's per-request budget when
/// one is supplied (see [`build_gomil_budgeted`] — cancelling that budget
/// degrades the solve rather than failing it).
pub fn gomil_solver(cfg: &GomilConfig) -> Box<SolverFn> {
    let cfg = cfg.clone();
    Box::new(move |req, warm, budget| {
        let hint = warm.map(|h| WarmStartHint {
            counts: h.counts.clone(),
        });
        let unlimited = Budget::unlimited();
        let budget = budget.unwrap_or(&unlimited);
        let design = build_gomil_budgeted(req.m, req.ppg, &cfg, hint.as_ref(), budget).map_err(
            |e| match e {
                GomilError::Verification(_) => ServeError::Verification(e.to_string()),
                other => ServeError::Solve(other.to_string()),
            },
        )?;
        Ok(outcome_from(&design, &cfg))
    })
}

/// A ready-to-serve [`SolveService`] over the real GOMIL pipeline: the
/// cache key fingerprint is [`GomilConfig::solve_fingerprint`] and the
/// solver is [`gomil_solver`].
///
/// # Errors
///
/// Propagates I/O errors from loading an existing cache file
/// ([`ServeConfig::cache_path`]).
pub fn serve_service(cfg: &GomilConfig, serve: ServeConfig) -> io::Result<SolveService> {
    SolveService::new(cfg.solve_fingerprint(), gomil_solver(cfg), serve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomil_arith::PpgKind;
    use gomil_serve::SolveRequest;

    #[test]
    fn real_pipeline_outcomes_are_cached_and_byte_equal() {
        let cfg = GomilConfig::fast();
        let svc = serve_service(&cfg, ServeConfig::default()).unwrap();
        let req = SolveRequest {
            m: 4,
            ppg: PpgKind::And,
        };
        let fresh = svc.serve_one(&req).unwrap();
        assert!(fresh.verified, "pipeline output must verify");
        assert!(!fresh.degraded, "unbudgeted small solve must not degrade");
        assert_eq!(
            fresh.verdict,
            VerdictTier::Proved,
            "m = 4 is inside Fast's exhaustive range"
        );
        assert_eq!(fresh.counters.verify_vectors, 256, "4^4 operand pairs");
        let cached = svc.serve_one(&req).unwrap();
        assert_eq!(fresh, cached);
        assert_eq!(
            fresh.to_line(),
            cached.to_line(),
            "byte-equal via the wire format"
        );
        let r = svc.report();
        assert_eq!(r.solves, 1);
        assert_eq!(r.hits, 1);
    }

    #[test]
    fn the_gap_and_the_stream_describe_the_served_design() {
        // `fast` gives the joint ILP a 2-s budget.
        let solve = |m| {
            let req = SolveRequest {
                m,
                ppg: PpgKind::And,
            };
            gomil_solver(&GomilConfig::fast())(&req, None, None).unwrap()
        };
        // 5 columns: the joint ILP's full Eq. 27 proves the optimum and wins.
        let small = solve(3);
        assert_eq!(small.strategy, "joint-ilp");
        assert_eq!(small.solver_gap, 0.0);
        assert!(!small.improvements.is_empty());
        // 11 columns, past L = 10: the ILP runs on a truncated objective,
        // and target search wins. Its work still counts.
        let truncated = solve(6);
        assert_eq!(truncated.strategy, "target-search");
        assert_eq!(truncated.solver_gap, f64::INFINITY);
        assert!(truncated.improvements.is_empty());
        assert!(truncated.counters.solver_nodes > 0);
        // 17 columns, past 16: the joint ILP does not run.
        let wide = solve(9);
        assert_eq!(wide.solver_gap, f64::INFINITY);
        assert_eq!(wide.counters.solver_nodes, 0);
    }
}
