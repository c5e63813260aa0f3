//! # gomil — Global Optimization of Multiplier by Integer Linear Programming
//!
//! A from-scratch Rust reproduction of *GOMIL* (Xiao, Qian, Liu — DATE
//! 2021). State-of-the-art multipliers are `PPG → compressor tree → carry
//! propagation adder`; prior work optimizes the compressor tree (CT) and
//! the CPA separately. GOMIL formulates both as integer linear programs —
//! the CT over per-stage/per-column compressor counts (Eqs. 2–9), the
//! CPA's prefix structure over interval cut points with typed, degenerate
//! nodes (Eqs. 17–26) — and joins them through the shared output bit-count
//! vector `V_s` (Eq. 27).
//!
//! This crate provides:
//!
//! * [`CtIlp`] — the compressor-tree ILP;
//! * [`add_prefix_constraints`] / [`solve_fixed_prefix_ip`] — the prefix IP
//!   with its linearization;
//! * [`optimize_global`] — the joint optimization (paper-faithful joint
//!   ILP for small widths, an exact-evaluator target search at scale);
//! * [`build_gomil`] — end-to-end netlist construction (`GOMIL-AND` /
//!   `GOMIL-MBE`), functionally verified;
//! * [`build_baseline`] — the paper's six comparison designs (`Wal-RCA`,
//!   `Wal-PPF`, Booth variants, DesignWare-style `pparch`/`apparch`);
//! * [`DesignReport`] / [`normalize`] — Fig. 3-style measurement tables.
//!
//! ## Quickstart
//!
//! ```
//! use gomil::{build_gomil, GomilConfig, PpgKind};
//!
//! # fn main() -> Result<(), gomil::GomilError> {
//! let design = build_gomil(4, PpgKind::And, &GomilConfig::fast())?;
//! design.build.verify().expect("multiplier is functionally correct");
//! println!("{}", design.build.netlist.to_verilog());
//! # Ok(())
//! # }
//! ```
//!
//! ## Resilience
//!
//! Every failure of the pipeline is a typed [`GomilError`]; panics are
//! contained. [`optimize_global`] runs a graceful-degradation ladder
//! (joint ILP → truncated ILP → target search → plain Dadda + optimal
//! prefix) under an optional end-to-end wall-clock budget
//! ([`GomilConfig::pipeline_budget`]), recording every absorbed failure in
//! a [`DegradationReport`]. ILP solutions are re-checked by an independent
//! certifier before being trusted (see [`gomil_ilp::certify()`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod approx;
mod baselines;
mod config;
mod ct_ilp;
mod error;
mod flow;
mod global;
mod prefix_ilp;
mod report;
mod service;

pub use approx::{build_gomil_truncated, ErrorStats};
pub use baselines::{build_baseline, BaselineKind};
pub use config::GomilConfig;
pub use ct_ilp::{CtIlp, CtSolution};
pub use error::{GomilError, VerificationFailure};
pub use flow::{
    build_gomil, build_gomil_budgeted, build_gomil_rect, build_gomil_with_hint, GomilDesign,
    MultiplierBuild, RegionBreakdown,
};
pub use global::{
    build_joint_model, joint_ilp, joint_ilp_budgeted, joint_ilp_hinted, optimize_global,
    optimize_global_hinted, optimize_global_with_budget, target_search, target_search_budgeted,
    target_search_hinted, DegradationReport, GlobalSolution, JointModel, Rung, RungAttempt,
    RungFailure, RungOutcome, SolveStats, WarmStartHint,
};
pub use prefix_ilp::{add_prefix_constraints, solve_fixed_prefix_ip, LeafB, PrefixVars};
pub use report::{format_table, normalize, solve_summary, DesignReport, NormalizedRow};
pub use service::{gomil_solver, serve_service, SOLVER_VERSION};

// Re-export the things downstream code almost always needs alongside.
pub use gomil_arith::{required_stages, schedule_toward_target, Bcv, CompressionSchedule, PpgKind};
pub use gomil_budget::{Budget, BudgetExceeded};
pub use gomil_ilp::{IncumbentSource, SolveError, WarmStartStatus};
pub use gomil_netlist::{
    verify_multiplier, Counterexample, DesignMetrics, EquivVerdict, VerdictTier, VerifyConfig,
    VerifyMode,
};
pub use gomil_prefix::{PrefixTree, SelectStyle};
pub use gomil_serve::{
    DesignStore, MetricsReport, ServeConfig, ServeError, ServeOutcome, SolveCounters, SolveKey,
    SolveRequest, SolveService, SolverFn, WarmHint,
};
