//! Experiment E8: the w / L parameter study behind the paper's choice of
//! `w = 8, L = 10` ("this combination gives a small area-delay product,
//! while ensuring an affordable runtime").
//!
//! Two sweeps:
//!   * `w` — the delay weight of the prefix objective: realized netlist
//!     area/delay/ADP of the GOMIL-AND multiplier as w varies, at the
//!     word length given (default m = 8);
//!   * `L` — the joint-ILP truncation: objective and runtime as L varies,
//!     at m = 3, where every L finishes far inside the budget (at
//!     m = 8 each L spends the whole budget on the same incumbent).
//!
//! Usage: `cargo run --release -p gomil-bench --bin ablation_wl -- [m]`

use gomil::{build_gomil, joint_ilp, Bcv, GomilConfig, PpgKind};
use gomil_bench::timed;

/// Word length of the L sweep.
const L_SWEEP_M: usize = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);

    println!("== w sweep (m = {m}, realized GOMIL-AND netlists) ==");
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>10} {:>14}",
        "w", "area", "delay", "ADP", "PDP", "prefix (A,D)"
    );
    for w in [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let cfg = GomilConfig {
            w,
            ..GomilConfig::default()
        };
        let d = build_gomil(m, PpgKind::And, &cfg)?;
        d.build.verify().map_err(std::io::Error::other)?;
        let met = d.build.netlist.metrics(cfg.power_vectors);
        let b: Vec<bool> = d.solution.vs.iter().map(|c| c == 2).collect();
        let tc = d.solution.tree.cost(&b);
        println!(
            "{:<8} {:>10.1} {:>10.2} {:>12.1} {:>10.2} {:>14}",
            w,
            met.area,
            met.delay,
            met.adp(),
            met.pdp(),
            format!("({}, {})", tc.area, tc.delay)
        );
    }

    println!("\n== L sweep (m = {L_SWEEP_M}, joint ILP truncation; paper uses L = 10) ==");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>12}",
        "L", "runtime", "objective", "ct cost", "prefix cost"
    );
    let v0 = Bcv::and_ppg(L_SWEEP_M);
    for l in [2usize, 3, 4, 5, 6] {
        let cfg = GomilConfig {
            l,
            solver_budget: std::time::Duration::from_secs(5),
            ..GomilConfig::default()
        };
        let (sol, took) = timed(|| joint_ilp(&v0, &cfg));
        let sol = sol?;
        println!(
            "{:<8} {:>10.2?} {:>12.1} {:>12.1} {:>12.1}",
            l, took, sol.objective, sol.ct_cost, sol.prefix_cost
        );
    }
    Ok(())
}
