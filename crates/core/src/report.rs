//! Design measurement and normalization.
//!
//! The paper reports delay, area and PDP *normalized to `B-Wal-RCA`*
//! (Fig. 3). This module measures builds with the netlist substrate and
//! produces the same normalized rows.

use crate::flow::MultiplierBuild;
use crate::global::GlobalSolution;
use gomil_netlist::DesignMetrics;
use std::fmt;

/// Measured quality of results for one design.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// Design name (e.g. `GOMIL-AND-16`).
    pub name: String,
    /// Word length.
    pub m: usize,
    /// Absolute metrics in substrate units.
    pub metrics: DesignMetrics,
    /// Logic gate count.
    pub gates: usize,
    /// Whether functional verification passed.
    pub verified: bool,
}

impl DesignReport {
    /// Measures a build (and verifies it) with `power_vectors` random
    /// vectors for the power model.
    pub fn measure(build: &MultiplierBuild, power_vectors: usize) -> DesignReport {
        DesignReport {
            name: build.name.clone(),
            m: build.m,
            metrics: build.netlist.metrics(power_vectors),
            gates: build.netlist.num_gates(),
            verified: build.verify().is_ok(),
        }
    }
}

impl fmt::Display for DesignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} m={:<3} {} gates={}{}",
            self.name,
            self.m,
            self.metrics,
            self.gates,
            if self.verified {
                ""
            } else {
                "  [VERIFY FAILED]"
            }
        )
    }
}

/// Renders how the optimizer arrived at a [`GlobalSolution`]: the winning
/// strategy and its cost split, the branch-and-bound statistics when an
/// ILP rung won, and the degradation-ladder record when any rung was
/// skipped or absorbed a failure.
pub fn solve_summary(sol: &GlobalSolution) -> String {
    let mut s = format!(
        "strategy: {} (objective {} = CT {} + prefix {})\n",
        sol.strategy, sol.objective, sol.ct_cost, sol.prefix_cost
    );
    if let Some(stats) = &sol.solver_stats {
        s.push_str(&format!("solver:   {stats}\n"));
        let r = &stats.root;
        s.push_str(&format!(
            "root:     build {}µs, presolve {}µs, first factor {}µs, \
             root LP {}µs ({} iters), {} cuts in {} rounds ({}µs)\n",
            r.build_us,
            r.presolve_us,
            r.first_factor_us,
            r.root_lp_us,
            r.root_lp_iters,
            r.cuts_added,
            r.cut_rounds,
            r.cut_us,
        ));
    }
    if !sol.degradation.attempts.is_empty() {
        s.push_str(&format!(
            "ladder:   {}{}\n",
            sol.degradation,
            if sol.degradation.degraded() {
                "  [DEGRADED]"
            } else {
                ""
            }
        ));
    }
    s.push_str(&format!(
        "verdict:  {} ({:.1} ms)\n",
        sol.verdict,
        sol.verify_time.as_secs_f64() * 1e3
    ));
    s
}

/// One row of a Fig. 3-style normalized comparison.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedRow {
    /// Design name.
    pub name: String,
    /// Delay relative to the baseline.
    pub delay: f64,
    /// Area relative to the baseline.
    pub area: f64,
    /// Power relative to the baseline.
    pub power: f64,
    /// PDP relative to the baseline.
    pub pdp: f64,
}

/// Normalizes reports to the named baseline design (the paper uses
/// `B-Wal-RCA`).
///
/// # Panics
///
/// Panics if no report matches `baseline` (by prefix).
pub fn normalize(reports: &[DesignReport], baseline: &str) -> Vec<NormalizedRow> {
    let base = reports
        .iter()
        .find(|r| r.name.starts_with(baseline))
        .unwrap_or_else(|| panic!("baseline {baseline} not among reports"));
    let bm = base.metrics;
    reports
        .iter()
        .map(|r| NormalizedRow {
            name: r.name.clone(),
            delay: r.metrics.delay / bm.delay,
            area: r.metrics.area / bm.area,
            power: r.metrics.power / bm.power,
            pdp: r.metrics.pdp() / bm.pdp(),
        })
        .collect()
}

/// Renders normalized rows as an aligned text table (one Fig. 3 panel).
pub fn format_table(rows: &[NormalizedRow], metric: &str) -> String {
    let mut s = format!("{:<18} {:>10}\n", "design", metric);
    for r in rows {
        let v = match metric {
            "delay" => r.delay,
            "area" => r.area,
            "power" => r.power,
            "pdp" => r.pdp,
            _ => f64::NAN,
        };
        s.push_str(&format!("{:<18} {:>10.3}\n", r.name, v));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{build_baseline, BaselineKind};
    use crate::config::GomilConfig;

    #[test]
    fn measure_and_normalize_roundtrip() {
        let cfg = GomilConfig::fast();
        let reports: Vec<DesignReport> = [BaselineKind::BWalRca, BaselineKind::WalPpf]
            .iter()
            .map(|&k| DesignReport::measure(&build_baseline(k, 4, &cfg), 128))
            .collect();
        assert!(reports.iter().all(|r| r.verified));
        let rows = normalize(&reports, "B-Wal-RCA");
        assert_eq!(rows[0].delay, 1.0);
        assert_eq!(rows[0].pdp, 1.0);
        let table = format_table(&rows, "pdp");
        assert!(table.contains("B-Wal-RCA"));
        assert!(table.contains("1.000"));
    }

    #[test]
    #[should_panic(expected = "not among reports")]
    fn normalize_requires_the_baseline() {
        normalize(&[], "B-Wal-RCA");
    }

    #[test]
    fn solve_summary_names_strategy_and_ladder() {
        let v0 = gomil_arith::Bcv::and_ppg(4);
        let sol = crate::global::optimize_global(&v0, &GomilConfig::fast()).unwrap();
        let s = solve_summary(&sol);
        assert!(s.contains("strategy:"), "{s}");
        assert!(s.contains("ladder:"), "{s}");
        assert!(s.contains("winner"), "{s}");
        // A solution straight out of the optimizer has no netlist yet, so
        // the verdict line shows the Skipped placeholder.
        assert!(s.contains("verdict:  skipped"), "{s}");
        if sol.solver_stats.is_some() {
            // The solver line carries the full branch-and-bound telemetry.
            for needle in [
                "solver:",
                "nodes",
                "pruned",
                "branched",
                "LP iterations",
                "warm",
                "refactors",
                "gap",
                "jobs",
                "root:",
                "presolve",
                "first factor",
                "root LP",
                "cuts",
                "rounds",
            ] {
                assert!(s.contains(needle), "missing {needle} in:\n{s}");
            }
            // The root profile is printed once, on its own line.
            assert_eq!(s.matches("presolve").count(), 1, "{s}");
        }
    }
}
