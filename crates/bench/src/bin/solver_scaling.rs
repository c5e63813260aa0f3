//! Experiment: branch and bound at one worker versus several, warm-restart
//! basis reuse, and the root-node stage (pricing, presolve, cuts) on the
//! GOMIL ILPs. Writes `BENCH_ilp.json`.
//!
//! Five sections, honest about what each can show:
//!
//! * **basis reuse** — the headline of the sparse-core rework: every
//!   family (joint Eq. 27, compressor-tree, prefix IP) at m ∈ {16, 32,
//!   64} solved twice with identical node/time budgets, once from
//!   scratch per node (`reuse_basis: false`) and once with parent-basis
//!   dual-simplex restarts. Each entry records simplex iterations, the
//!   warm-restart hit rate, and refactorization counts. Two ratios are
//!   reported: `iteration_ratio_total` (raw iteration quotient, which is
//!   misleading when the two runs explored different node counts) and
//!   `iteration_ratio_per_node` (iterations-per-node quotient); entries
//!   with mismatched node counts carry `node_counts_match: false`.
//! * **root profile** — the per-phase breakdown (model build, presolve,
//!   first factorization, root LP, cut rounds) of the widest models,
//!   where the root node dominates the whole budget.
//! * **joint m=32** — the paper's Eq. 27 model at the acceptance width,
//!   `jobs = 1` (the calling thread alone) versus more workers.
//! * **CT m=32** — the compressor-tree ILP (Eqs. 2–9) on its own: the CT
//!   half of the joint model, kept as a reference model for the solver.
//!   No ladder rung solves it alone, and at this width the ladder runs no
//!   ILP at all. On a multi-core host `jobs=N` explores ~N× nodes per second;
//!   on a single-core host (see `host_cpus`) extra workers match one
//!   worker within scheduling overhead.
//! * **equality roster** — randomized MILPs sized m ∈ {8, 16, 32, 64}:
//!   every job count and every pricing/cut configuration must prove the
//!   same objective and certify.
//!
//! `--quick` runs the CI gates and exits nonzero on regression: the
//! basis-reuse pivot-count gate (warm-restart pivots ≤ 3× from-scratch),
//! the root-LP pricing gate (devex root iterations ≤ 1.2× Dantzig on the
//! CT m=32 reference), the cut-safety gate (root cuts must not change
//! certified objectives anywhere on the proved roster), the hypersparse
//! gate (sparse FTRAN/BTRAN kernels must fire on the CT m=32 root and
//! its iterations/wall-clock must stay within fixed ratios of the
//! recorded baseline), and the reduction-safety gate (LP reduction
//! presolve and equilibration scaling must not change certified
//! objectives on the quick roster).
//!
//! Usage: `cargo run --release -p gomil-bench --bin solver_scaling --
//! [--quick] [--jobs N] [--ct-nodes N] [--joint-seconds S]
//! [--reuse-seconds S] [--root-seconds S] [--json FILE]`

use gomil::{add_prefix_constraints, build_joint_model, Bcv, CtIlp, GomilConfig, LeafB};
use gomil_arith::dadda_schedule;
use gomil_bench::timed;
use gomil_ilp::{
    BranchConfig, Cmp, CutMode, LinExpr, Model, Pricing, RootProfile, Sense, Solution,
};
use std::time::Duration;

fn flag(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
}

/// One measured solve, flattened for the JSON report.
struct Run {
    jobs: usize,
    seconds: f64,
    nodes: u64,
    pruned: u64,
    branched: u64,
    lp_iterations: u64,
    warm_attempts: u64,
    warm_hits: u64,
    refactors: u64,
    ftran: u64,
    ftran_hyper: u64,
    btran: u64,
    btran_hyper: u64,
    hyper_rate: f64,
    objective: f64,
    gap: f64,
    proved_optimal: bool,
    certified: bool,
    root: RootProfile,
}

impl Run {
    fn measure(model: &Model, base: &BranchConfig, jobs: usize) -> Result<Run, String> {
        let cfg = BranchConfig {
            jobs,
            ..base.clone()
        };
        let (result, took) = timed(|| model.solve_with(&cfg));
        let sol: Solution = result.map_err(|e| e.to_string())?;
        Ok(Run {
            jobs,
            seconds: took.as_secs_f64(),
            nodes: sol.nodes(),
            pruned: sol.nodes_pruned(),
            branched: sol.nodes_branched(),
            lp_iterations: sol.lp_iterations(),
            warm_attempts: sol.lp_warm_attempts(),
            warm_hits: sol.lp_warm_hits(),
            refactors: sol.lp_refactors(),
            ftran: sol.lp_ftran(),
            ftran_hyper: sol.lp_ftran_hyper(),
            btran: sol.lp_btran(),
            btran_hyper: sol.lp_btran_hyper(),
            hyper_rate: sol.lp_hyper_rate(),
            objective: sol.objective(),
            gap: sol.gap(),
            proved_optimal: sol.is_optimal(),
            certified: sol.certificate().is_some(),
            root: sol.root_profile(),
        })
    }

    fn warm_hit_rate(&self) -> f64 {
        if self.warm_attempts == 0 {
            0.0
        } else {
            self.warm_hits as f64 / self.warm_attempts as f64
        }
    }

    fn to_json(&self) -> String {
        // A root-only solve has no dual bound yet, so its gap is infinite.
        // JSON has no literal for that; the earlier `null` was
        // indistinguishable from a missing field, so emit an explicit
        // string sentinel instead.
        let gap = if self.gap.is_finite() {
            self.gap.to_string()
        } else {
            "\"infinite\"".to_string()
        };
        format!(
            "{{\"jobs\": {}, \"seconds\": {}, \"nodes\": {}, \"pruned\": {}, \
             \"branched\": {}, \"lp_iterations\": {}, \"warm_attempts\": {}, \
             \"warm_hits\": {}, \"warm_hit_rate\": {:.4}, \"refactors\": {}, \
             \"ftran\": {}, \"ftran_hyper\": {}, \"btran\": {}, \
             \"btran_hyper\": {}, \"hyper_rate\": {:.4}, \
             \"objective\": {}, \"gap\": {gap}, \"proved_optimal\": {}, \
             \"certified\": {}, \"root_profile\": {}}}",
            self.jobs,
            self.seconds,
            self.nodes,
            self.pruned,
            self.branched,
            self.lp_iterations,
            self.warm_attempts,
            self.warm_hits,
            self.warm_hit_rate(),
            self.refactors,
            self.ftran,
            self.ftran_hyper,
            self.btran,
            self.btran_hyper,
            self.hyper_rate,
            self.objective,
            self.proved_optimal,
            self.certified,
            root_json(&self.root),
        )
    }
}

fn root_json(r: &RootProfile) -> String {
    format!(
        "{{\"build_us\": {}, \"presolve_us\": {}, \"first_factor_us\": {}, \
         \"root_lp_us\": {}, \"root_lp_iters\": {}, \"cut_rounds\": {}, \
         \"cuts_added\": {}, \"cut_us\": {}, \"reduce_rows\": {}, \
         \"reduce_cols\": {}, \"scale_rows\": {}, \"scale_range_before\": {}, \
         \"scale_range_after\": {}}}",
        r.build_us,
        r.presolve_us,
        r.first_factor_us,
        r.root_lp_us,
        r.root_lp_iters,
        r.cut_rounds,
        r.cuts_added,
        r.cut_us,
        r.reduce_rows,
        r.reduce_cols,
        r.scale_rows,
        r.scale_range_before,
        r.scale_range_after,
    )
}

fn runs_json(runs: &[Run]) -> String {
    runs.iter()
        .map(|r| format!("      {}", r.to_json()))
        .collect::<Vec<_>>()
        .join(",\n")
}

fn random_knapsack(n: usize, seed: u64) -> Model {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new(format!("knap{n}"));
    let mut obj = LinExpr::default();
    let mut weight = LinExpr::default();
    for i in 0..n {
        let x = m.add_binary(format!("x{i}"));
        obj += rng.gen_range(1..20) as f64 * x;
        weight += rng.gen_range(1..12) as f64 * x;
    }
    m.add_constraint("cap", weight, Cmp::Le, (6 * n / 2) as f64);
    m.set_objective(obj, Sense::Maximize);
    m
}

/// A width-`m` fixed-leaf prefix IP (the paper's prefix formulation with
/// constant leaves, as `solve_fixed_prefix_ip` builds it), with the same
/// DP-derived warm start production uses so every budgeted run has an
/// incumbent from the first node. Returns the model, the warm start, and
/// the model-build wall-clock.
fn prefix_model(m: usize) -> (Model, Vec<f64>, Duration) {
    let ((model, init), build_time) = timed(|| {
        let mut model = Model::new(format!("prefix{m}"));
        let leaf_vals: Vec<bool> = (0..m).map(|i| i % 3 != 0).collect();
        let leaf: Vec<LeafB> = leaf_vals.iter().map(|&b| LeafB::Const(b)).collect();
        let vars = add_prefix_constraints(&mut model, &leaf, 4.0, m);
        model.set_objective(vars.root_cost.clone(), Sense::Minimize);
        let mut init = vec![0.0; model.num_vars()];
        vars.warm_start_into(&mut init, &leaf_vals);
        (model, init)
    });
    (model, init, build_time)
}

/// One before/after pair of a `basis_reuse` section entry: the same model
/// under the same budget, solved from scratch per node versus with
/// warm-restart basis reuse.
struct ReusePair {
    family: &'static str,
    m: usize,
    scratch: Run,
    warm: Run,
}

impl ReusePair {
    fn measure(
        family: &'static str,
        m: usize,
        model: &Model,
        base: &BranchConfig,
    ) -> Result<ReusePair, String> {
        let scratch_cfg = BranchConfig {
            reuse_basis: false,
            ..base.clone()
        };
        let warm_cfg = BranchConfig {
            reuse_basis: true,
            ..base.clone()
        };
        let scratch = Run::measure(model, &scratch_cfg, 1)?;
        let warm = Run::measure(model, &warm_cfg, 1)?;
        eprintln!(
            "  {family} m={m}: {} iters from scratch vs {} warm \
             ({:.0}% hit rate, {} refactors) over {} vs {} nodes",
            scratch.lp_iterations,
            warm.lp_iterations,
            100.0 * warm.warm_hit_rate(),
            warm.refactors,
            scratch.nodes,
            warm.nodes,
        );
        Ok(ReusePair {
            family,
            m,
            scratch,
            warm,
        })
    }

    /// From-scratch iterations per warm iteration (> 1 means reuse wins);
    /// `None` when the warm run spent no pivots. Misleading when the two
    /// runs explored different node counts — see
    /// [`iteration_ratio_per_node`](Self::iteration_ratio_per_node).
    fn iteration_ratio_total(&self) -> Option<f64> {
        if self.warm.lp_iterations == 0 {
            None
        } else {
            Some(self.scratch.lp_iterations as f64 / self.warm.lp_iterations as f64)
        }
    }

    /// From-scratch iterations *per node* over warm iterations per node:
    /// the per-node resolve cost quotient, which stays meaningful when the
    /// budget let one run explore more nodes than the other.
    fn iteration_ratio_per_node(&self) -> Option<f64> {
        if self.warm.lp_iterations == 0 || self.scratch.nodes == 0 || self.warm.nodes == 0 {
            return None;
        }
        let scratch_per_node = self.scratch.lp_iterations as f64 / self.scratch.nodes as f64;
        let warm_per_node = self.warm.lp_iterations as f64 / self.warm.nodes as f64;
        Some(scratch_per_node / warm_per_node)
    }

    fn node_counts_match(&self) -> bool {
        self.scratch.nodes == self.warm.nodes
    }

    fn to_json(&self) -> String {
        let opt = |r: Option<f64>| match r {
            Some(r) => format!("{r:.3}"),
            None => "null".to_string(),
        };
        format!(
            "      {{\"family\": \"{}\", \"m\": {}, \
             \"iteration_ratio_total\": {}, \"iteration_ratio_per_node\": {}, \
             \"node_counts_match\": {},\n       \
             \"from_scratch\": {},\n       \"warm_restart\": {}}}",
            self.family,
            self.m,
            opt(self.iteration_ratio_total()),
            opt(self.iteration_ratio_per_node()),
            self.node_counts_match(),
            self.scratch.to_json(),
            self.warm.to_json()
        )
    }
}

/// The basis-reuse half of the `--quick` CI gate: warm-restart solves must
/// not spend more than `3×` the from-scratch pivot count, and basis reuse
/// must actually be exercised. Returns the offending message on
/// regression.
fn quick_gate(pairs: &[ReusePair]) -> Result<(), String> {
    let scratch: u64 = pairs.iter().map(|p| p.scratch.lp_iterations).sum();
    let warm: u64 = pairs.iter().map(|p| p.warm.lp_iterations).sum();
    let attempts: u64 = pairs.iter().map(|p| p.warm.warm_attempts).sum();
    eprintln!("quick gate: {scratch} iters from scratch, {warm} warm, {attempts} restart attempts");
    if attempts == 0 {
        return Err("basis reuse was never attempted — warm-restart plumbing is broken".into());
    }
    if warm > scratch.saturating_mul(3) {
        return Err(format!(
            "pivot-count regression: warm-restart solves spent {warm} simplex iterations, \
             more than 3x the from-scratch {scratch}"
        ));
    }
    for p in pairs {
        if (p.scratch.objective - p.warm.objective).abs() > 1e-6 {
            return Err(format!(
                "objective mismatch on {} m={}: {} from scratch vs {} warm",
                p.family, p.m, p.scratch.objective, p.warm.objective
            ));
        }
    }
    Ok(())
}

/// The root-LP pricing half of the `--quick` gate: on the CT m=32
/// reference model, devex pricing must not need more than 1.2× the
/// Dantzig root-LP iteration count (it usually needs far fewer).
fn quick_root_lp_gate(cfg: &GomilConfig) -> Result<(), String> {
    let v32 = Bcv::and_ppg(32);
    let ct = CtIlp::build(&v32, cfg);
    let mut iters = Vec::new();
    for pricing in [Pricing::Dantzig, Pricing::Devex] {
        let base = BranchConfig {
            node_limit: 1,
            time_limit: Some(Duration::from_secs(120)),
            initial: ct.warm_start(&dadda_schedule(&v32)),
            pricing,
            cuts: CutMode::Off,
            ..BranchConfig::default()
        };
        let run = Run::measure(&ct.model, &base, 1)?;
        eprintln!(
            "  CT m=32 root LP [{}]: {} iterations in {}µs",
            pricing.name(),
            run.root.root_lp_iters,
            run.root.root_lp_us
        );
        iters.push(run.root.root_lp_iters);
    }
    let (dantzig, devex) = (iters[0], iters[1]);
    if devex as f64 > dantzig as f64 * 1.2 {
        return Err(format!(
            "root-LP pricing regression: devex took {devex} iterations on CT m=32, \
             more than 1.2x the Dantzig {dantzig}"
        ));
    }
    Ok(())
}

/// The cut-safety half of the `--quick` gate: on the proved roster, root
/// cuts (and either pricing rule) must not change the certified objective.
fn quick_cut_safety_gate() -> Result<(), String> {
    for n in [8usize, 16, 32, 64] {
        let model = random_knapsack(n, 0xC0FFEE ^ n as u64);
        let mut reference: Option<f64> = None;
        for pricing in [Pricing::Dantzig, Pricing::Devex] {
            for cuts in [CutMode::Off, CutMode::Root] {
                let base = BranchConfig {
                    pricing,
                    cuts,
                    ..BranchConfig::default()
                };
                let run = Run::measure(&model, &base, 1)?;
                if !run.proved_optimal || !run.certified {
                    return Err(format!(
                        "roster m={n} [{} / {}]: solve was not proved-and-certified",
                        pricing.name(),
                        cuts.name()
                    ));
                }
                match reference {
                    None => reference = Some(run.objective),
                    Some(obj) if (obj - run.objective).abs() > 1e-6 => {
                        return Err(format!(
                            "cut-safety regression on roster m={n}: objective {} under \
                             [{} / {}] vs reference {obj}",
                            run.objective,
                            pricing.name(),
                            cuts.name()
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        eprintln!(
            "  roster m={n}: all pricing/cut configs proved objective {}",
            reference.unwrap()
        );
    }
    Ok(())
}

/// The hypersparse-kernel half of the `--quick` gate: on the CT m=32
/// reference root solve, the sparse FTRAN/BTRAN kernels must actually
/// fire (a zero hyper counter means the sparse-rhs plumbing fell back to
/// dense everywhere) and the root must stay within fixed ratios of the
/// recorded baseline — root LP iterations ≤ `2×` the recorded 1.3k and
/// root wall-clock ≤ 30 s (the baseline root solves in well under 3 s;
/// the slack absorbs slow CI hosts without masking an order-of-magnitude
/// regression).
fn quick_hypersparse_gate(cfg: &GomilConfig) -> Result<(), String> {
    const BASELINE_ROOT_ITERS: u64 = 1_300;
    const ITER_RATIO: u64 = 2;
    const ROOT_WALL_SECS: f64 = 30.0;
    let v32 = Bcv::and_ppg(32);
    let ct = CtIlp::build(&v32, cfg);
    let base = BranchConfig {
        node_limit: 1,
        time_limit: Some(Duration::from_secs(120)),
        initial: ct.warm_start(&dadda_schedule(&v32)),
        cuts: CutMode::Off,
        ..BranchConfig::default()
    };
    let run = Run::measure(&ct.model, &base, 1)?;
    eprintln!(
        "  CT m=32 root: {} iters in {:.2}s, ftran {}/{} hyper, btran {}/{} hyper ({:.0}% rate)",
        run.root.root_lp_iters,
        run.seconds,
        run.ftran_hyper,
        run.ftran,
        run.btran_hyper,
        run.btran,
        100.0 * run.hyper_rate,
    );
    if run.ftran_hyper == 0 && run.btran_hyper == 0 {
        return Err(
            "hypersparse regression: no FTRAN/BTRAN took the sparse kernel path on CT m=32".into(),
        );
    }
    if run.root.root_lp_iters > BASELINE_ROOT_ITERS * ITER_RATIO {
        return Err(format!(
            "hypersparse regression: CT m=32 root LP took {} iterations, more than {ITER_RATIO}x \
             the recorded baseline {BASELINE_ROOT_ITERS}",
            run.root.root_lp_iters
        ));
    }
    if run.seconds > ROOT_WALL_SECS {
        return Err(format!(
            "hypersparse regression: CT m=32 root solve took {:.1}s, budget {ROOT_WALL_SECS}s",
            run.seconds
        ));
    }
    Ok(())
}

/// The reduction-safety half of the `--quick` gate: LP reduction presolve
/// and equilibration scaling are exact reformulations, so switching them
/// on must never change a certified objective on the quick roster.
fn quick_reduction_safety_gate() -> Result<(), String> {
    for n in [8usize, 16, 32, 64] {
        let model = random_knapsack(n, 0xC0FFEE ^ n as u64);
        let mut reference: Option<f64> = None;
        for (reduce, scaling) in [(false, false), (true, false), (false, true), (true, true)] {
            let base = BranchConfig {
                reduce,
                scaling,
                ..BranchConfig::default()
            };
            let run = Run::measure(&model, &base, 1)?;
            if !run.proved_optimal || !run.certified {
                return Err(format!(
                    "roster m={n} [reduce={reduce} scaling={scaling}]: solve was not \
                     proved-and-certified"
                ));
            }
            match reference {
                None => reference = Some(run.objective),
                Some(obj) if (obj - run.objective).abs() > 1e-6 => {
                    return Err(format!(
                        "reduction-safety regression on roster m={n}: objective {} under \
                         [reduce={reduce} scaling={scaling}] vs reference {obj}",
                        run.objective
                    ));
                }
                Some(_) => {}
            }
        }
        eprintln!(
            "  roster m={n}: all reduce/scaling configs proved objective {}",
            reference.unwrap()
        );
    }
    Ok(())
}

/// One `root_profile` section entry: the widest models solved under a root
/// budget, with the per-phase breakdown attached.
struct RootEntry {
    family: &'static str,
    m: usize,
    budget_secs: u64,
    run: Run,
}

impl RootEntry {
    fn to_json(&self) -> String {
        format!(
            "      {{\"family\": \"{}\", \"m\": {}, \"budget_seconds\": {},\n       \"run\": {}}}",
            self.family,
            self.m,
            self.budget_secs,
            self.run.to_json()
        )
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_ilp.json".to_string());
    let par_jobs = flag(&args, "--jobs").unwrap_or(2).max(2) as usize;
    let ct_nodes = flag(&args, "--ct-nodes").unwrap_or(60);
    let joint_secs = flag(&args, "--joint-seconds").unwrap_or(45);
    let reuse_secs = flag(&args, "--reuse-seconds").unwrap_or(20);
    let root_secs = flag(&args, "--root-seconds").unwrap_or(45);
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cfg = GomilConfig::fast();

    if quick {
        // Small, fast gates: one real GOMIL family plus one random MILP
        // for basis reuse, then the root-LP pricing and cut-safety gates.
        eprintln!("quick basis-reuse gate …");
        let v16 = Bcv::and_ppg(16);
        let ct = CtIlp::build(&v16, &cfg);
        let ct_base = BranchConfig {
            node_limit: 40,
            time_limit: Some(Duration::from_secs(30)),
            initial: ct.warm_start(&dadda_schedule(&v16)),
            ..BranchConfig::default()
        };
        let knap = random_knapsack(32, 0xC0FFEE ^ 32);
        let knap_base = BranchConfig::default();
        let pairs = vec![
            ReusePair::measure("ct", 16, &ct.model, &ct_base).map_err(std::io::Error::other)?,
            ReusePair::measure("knapsack", 32, &knap, &knap_base).map_err(std::io::Error::other)?,
        ];
        quick_gate(&pairs)?;
        eprintln!("quick root-LP pricing gate …");
        quick_root_lp_gate(&cfg)?;
        eprintln!("quick cut-safety gate …");
        quick_cut_safety_gate()?;
        eprintln!("quick hypersparse gate …");
        quick_hypersparse_gate(&cfg)?;
        eprintln!("quick reduction-safety gate …");
        quick_reduction_safety_gate()?;
        eprintln!("quick gates passed");
        return Ok(());
    }

    let jobs_compared = [1usize, par_jobs];

    // --- Section 1: basis reuse, before/after per family and width ---
    eprintln!("basis reuse m ∈ {{16, 32, 64}} ({reuse_secs}s + 200 nodes per run) …");
    let mut reuse_pairs: Vec<ReusePair> = Vec::new();
    // A run that cannot finish under the shared budget (e.g. no incumbent
    // found in time) is recorded here instead of aborting the bench --
    // dropped entries must be visible, not silent.
    let mut reuse_skipped: Vec<(String, usize, String)> = Vec::new();
    for m in [16usize, 32, 64] {
        let vm = Bcv::and_ppg(m);
        let reuse_base = BranchConfig {
            node_limit: 200,
            time_limit: Some(Duration::from_secs(reuse_secs)),
            ..BranchConfig::default()
        };
        let jm = build_joint_model(&vm, &cfg, None)?;
        let mut seeds = jm.seeds.clone().into_iter();
        let joint_base = BranchConfig {
            initial: seeds.next(),
            extra_starts: seeds.collect(),
            ..reuse_base.clone()
        };
        let ct = CtIlp::build(&vm, &cfg);
        let ct_base = BranchConfig {
            initial: ct.warm_start(&dadda_schedule(&vm)),
            ..reuse_base.clone()
        };
        let (pm, pm_init, _) = prefix_model(m);
        let prefix_base = BranchConfig {
            initial: Some(pm_init),
            ..reuse_base.clone()
        };
        let attempts: [(&'static str, &Model, &BranchConfig); 3] = [
            ("joint", &jm.model, &joint_base),
            ("ct", &ct.model, &ct_base),
            ("prefix", &pm, &prefix_base),
        ];
        for (family, model, base) in attempts {
            match ReusePair::measure(family, m, model, base) {
                Ok(pair) => reuse_pairs.push(pair),
                Err(e) => {
                    eprintln!("  {family} m={m}: SKIPPED ({e})");
                    reuse_skipped.push((family.to_string(), m, e));
                }
            }
        }
    }
    let joint_m32_ratio = reuse_pairs
        .iter()
        .find(|p| p.family == "joint" && p.m == 32)
        .and_then(ReusePair::iteration_ratio_per_node);
    let reuse_json = reuse_pairs
        .iter()
        .map(ReusePair::to_json)
        .collect::<Vec<_>>()
        .join(",\n");
    let skipped_json = reuse_skipped
        .iter()
        .map(|(family, m, e)| {
            format!(
                "      {{\"family\": \"{family}\", \"m\": {m}, \"error\": \"{}\"}}",
                e.replace('"', "'")
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    // --- Section 2: root-stage breakdown on the widest models ---------
    eprintln!("root profiles at m=64 ({root_secs}s per family) …");
    let mut root_entries: Vec<RootEntry> = Vec::new();
    {
        let v64 = Bcv::and_ppg(64);
        let root_base = BranchConfig {
            time_limit: Some(Duration::from_secs(root_secs)),
            ..BranchConfig::default()
        };
        let (jm_res, joint_build) = timed(|| build_joint_model(&v64, &cfg, None));
        let jm = jm_res?;
        let mut seeds = jm.seeds.clone().into_iter();
        let (ct, ct_build) = timed(|| CtIlp::build(&v64, &cfg));
        let (pm, pm_init, prefix_build) = prefix_model(64);
        let attempts: [(&'static str, &Model, BranchConfig, Duration); 3] = [
            (
                "joint",
                &jm.model,
                BranchConfig {
                    initial: seeds.next(),
                    extra_starts: seeds.collect(),
                    ..root_base.clone()
                },
                joint_build,
            ),
            (
                "ct",
                &ct.model,
                BranchConfig {
                    initial: ct.warm_start(&dadda_schedule(&v64)),
                    ..root_base.clone()
                },
                ct_build,
            ),
            (
                "prefix",
                &pm,
                BranchConfig {
                    initial: Some(pm_init.clone()),
                    ..root_base.clone()
                },
                prefix_build,
            ),
        ];
        for (family, model, base, build) in attempts {
            match Run::measure(model, &base, 1) {
                Ok(mut run) => {
                    run.root.build_us = build.as_micros() as u64;
                    eprintln!(
                        "  {family} m=64: {:.1}s, {} nodes, root LP {} iters in {}µs \
                         (build {}µs, presolve {}µs, first factor {}µs, {} cuts), proved={}",
                        run.seconds,
                        run.nodes,
                        run.root.root_lp_iters,
                        run.root.root_lp_us,
                        run.root.build_us,
                        run.root.presolve_us,
                        run.root.first_factor_us,
                        run.root.cuts_added,
                        run.proved_optimal,
                    );
                    root_entries.push(RootEntry {
                        family,
                        m: 64,
                        budget_secs: root_secs,
                        run,
                    });
                }
                Err(e) => eprintln!("  {family} m=64: SKIPPED ({e})"),
            }
        }
    }
    let root_profile_json = root_entries
        .iter()
        .map(RootEntry::to_json)
        .collect::<Vec<_>>()
        .join(",\n");

    let v0 = Bcv::and_ppg(32);

    // --- Section 3: the joint Eq. 27 ILP at m = 32 -------------------
    eprintln!("joint m=32 ({joint_secs}s per run) …");
    let jm = build_joint_model(&v0, &cfg, None)?;
    let joint_vars = jm.model.num_vars();
    let mut seeds = jm.seeds.clone().into_iter();
    let joint_base = BranchConfig {
        time_limit: Some(Duration::from_secs(joint_secs)),
        initial: seeds.next(),
        extra_starts: seeds.collect(),
        ..BranchConfig::default()
    };
    let mut joint_runs = Vec::new();
    for &jobs in &jobs_compared {
        let run = Run::measure(&jm.model, &joint_base, jobs).map_err(std::io::Error::other)?;
        eprintln!(
            "  jobs={}: {:.1}s, {} nodes, objective {}",
            run.jobs, run.seconds, run.nodes, run.objective
        );
        joint_runs.push(run);
    }

    // --- Section 4: the CT ILP at m = 32 (the ladder's actual rung) --
    eprintln!("CT m=32 ({ct_nodes} nodes per run) …");
    let ct = CtIlp::build(&v0, &cfg);
    let ct_vars = ct.model.num_vars();
    let ct_base = BranchConfig {
        node_limit: ct_nodes,
        time_limit: Some(Duration::from_secs(20 * ct_nodes.max(1))),
        initial: ct.warm_start(&dadda_schedule(&v0)),
        ..BranchConfig::default()
    };
    let mut ct_runs = Vec::new();
    for &jobs in &jobs_compared {
        let run = Run::measure(&ct.model, &ct_base, jobs).map_err(std::io::Error::other)?;
        eprintln!(
            "  jobs={}: {:.1}s, {} nodes ({:.2} nodes/s), objective {}",
            run.jobs,
            run.seconds,
            run.nodes,
            run.nodes as f64 / run.seconds.max(1e-9),
            run.objective
        );
        ct_runs.push(run);
    }

    // --- Section 5: proven-equality roster ---------------------------
    eprintln!("equality roster m ∈ {{8, 16, 32, 64}} (jobs × pricing × cuts) …");
    let mut roster = Vec::new();
    let mut all_configs_equal = true;
    for n in [8usize, 16, 32, 64] {
        let model = random_knapsack(n, 0xC0FFEE ^ n as u64);
        let base = BranchConfig::default();
        let seq = Run::measure(&model, &base, 1).map_err(std::io::Error::other)?;
        let par = Run::measure(&model, &base, par_jobs).map_err(std::io::Error::other)?;
        let equal = (seq.objective - par.objective).abs() < 1e-6
            && seq.proved_optimal
            && par.proved_optimal;
        // Every pricing/cut combination must prove the same objective.
        let mut configs_equal = true;
        for pricing in [Pricing::Dantzig, Pricing::Devex] {
            for cuts in [CutMode::Off, CutMode::Root] {
                let cfg_base = BranchConfig {
                    pricing,
                    cuts,
                    ..BranchConfig::default()
                };
                let run = Run::measure(&model, &cfg_base, 1).map_err(std::io::Error::other)?;
                if (run.objective - seq.objective).abs() > 1e-6
                    || !run.proved_optimal
                    || !run.certified
                {
                    configs_equal = false;
                }
            }
        }
        all_configs_equal &= configs_equal;
        eprintln!(
            "  m={n}: objective {} (jobs=1) vs {} (jobs={par_jobs}) — {}; configs {}",
            seq.objective,
            par.objective,
            if equal { "equal, proved" } else { "MISMATCH" },
            if configs_equal { "equal" } else { "MISMATCH" }
        );
        roster.push((n, seq, par, equal, configs_equal));
    }
    let all_equal = roster.iter().all(|(_, _, _, eq, _)| *eq);

    let roster_json = roster
        .iter()
        .map(|(n, seq, par, eq, cfg_eq)| {
            format!(
                "      {{\"m\": {n}, \"equal_and_proved\": {eq}, \"all_configs_equal\": {cfg_eq},\n       \"sequential\": {},\n       \"parallel\": {}}}",
                seq.to_json(),
                par.to_json()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let joint_ratio_json = match joint_m32_ratio {
        Some(r) => format!("{r:.3}"),
        None => "null".to_string(),
    };
    let json = format!(
        "{{\n  \"bench\": \"solver_scaling\",\n  \"host_cpus\": {host_cpus},\n  \
         \"jobs_compared\": [1, {par_jobs}],\n  \
         \"note\": \"wall-clock speedup from jobs > 1 requires host_cpus > 1; on a single-core host extra workers match one worker within scheduling overhead; the sequential/parallel keys hold the jobs = 1 and jobs > 1 runs of the one worker-pool engine\",\n  \
         \"basis_reuse\": {{\n    \
         \"note\": \"same model, same budget, reuse_basis off vs on; iteration_ratio_per_node = from-scratch iters/node over warm iters/node (meaningful even when node counts differ); iteration_ratio_total is the raw quotient and is only meaningful when node_counts_match\",\n    \
         \"joint_m32_iteration_ratio_per_node\": {joint_ratio_json},\n    \"entries\": [\n{reuse_json}\n    ],\n    \"skipped\": [\n{skipped_json}\n    ]\n  }},\n  \
         \"root_profile\": {{\n    \
         \"note\": \"widest models under a {root_secs}s budget; build_us is model construction, presolve/first-factor/root-LP/cuts are the in-solver root stage; gap may be the string sentinel 'infinite' when no dual bound exists yet\",\n    \
         \"entries\": [\n{root_profile_json}\n    ]\n  }},\n  \
         \"joint_ilp_m32\": {{\n    \"variables\": {joint_vars},\n    \"time_limit_seconds\": {joint_secs},\n    \
         \"note\": \"at this width the root LP dominates the budget, so node counts stay close at every job count\",\n    \
         \"runs\": [\n{}\n    ]\n  }},\n  \
         \"ct_ilp_m32\": {{\n    \"variables\": {ct_vars},\n    \"node_limit\": {ct_nodes},\n    \"runs\": [\n{}\n    ]\n  }},\n  \
         \"equality_roster\": {{\n    \"all_equal_and_proved\": {all_equal},\n    \"all_configs_equal\": {all_configs_equal},\n    \"instances\": [\n{}\n    ]\n  }}\n}}\n",
        runs_json(&joint_runs),
        runs_json(&ct_runs),
        roster_json,
    );
    std::fs::write(&json_path, &json)?;
    eprintln!("wrote {json_path}");
    if !all_equal {
        return Err("equality roster found an objective mismatch".into());
    }
    if !all_configs_equal {
        return Err("equality roster found a pricing/cut configuration mismatch".into());
    }
    Ok(())
}
