//! The generator workload `gen-ilp`: one calling thread runs the product
//! path `build_gomil → Netlist::metrics(512) → Netlist::to_verilog` on
//! every key of a pass, cold, with no cache. The traced replay of a design
//! lives here too; `serve-zipf` uses it for the solver's layers.

use crate::stats::{self, Rng};
use crate::trace::Trace;
use gomil::{
    build_baseline, build_gomil, build_joint_model, joint_ilp, target_search_hinted, BaselineKind,
    DesignMetrics, GomilConfig, GomilDesign, JointModel, PpgKind, Rung, RungOutcome, SolveStats,
    VerdictTier,
};
use gomil_arith::{
    and_ppg, baugh_wooley_ppg, booth4_ppg, booth8_ppg, dadda_schedule, realize_schedule, BitMatrix,
    CompressionSchedule,
};
use gomil_budget::Budget;
use gomil_ilp::BranchConfig;
use gomil_netlist::{verify_multiplier, EquivVerdict, Netlist};
use gomil_prefix::{dp_tables_budgeted, leaf_types, optimize_prefix_tree, ppf_csl_sum, TwoRows};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Power vectors of the product path's `Netlist::metrics` call.
const POWER_VECTORS: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    pub m: usize,
    pub ppg: PpgKind,
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.m, self.ppg.label())
    }
}

/// Every (m, PPG) key `build_gomil` accepts at the given widths.
pub fn keys_at(ms: impl IntoIterator<Item = usize>) -> Vec<Key> {
    ms.into_iter()
        .flat_map(|m| PpgKind::all().map(|ppg| Key { m, ppg }))
        .filter(|k| match k.ppg {
            PpgKind::Booth4 => k.m.is_multiple_of(2),
            PpgKind::Booth8 => k.m >= 3,
            _ => k.m >= 2,
        })
        .collect()
}

/// Sort key for `PpgKind`, which has no `Ord`.
fn ppg_rank(ppg: PpgKind) -> usize {
    PpgKind::all()
        .iter()
        .position(|&p| p == ppg)
        .expect("every PPG is listed")
}

impl Key {
    pub fn order(&self) -> (usize, usize) {
        (self.m, ppg_rank(self.ppg))
    }
}

pub struct GenSpec {
    pub cfg: GomilConfig,
    /// One pass; every pass runs all of it in a freshly shuffled order.
    pub pass: Vec<Key>,
    /// The untimed warm-up design built during set-up.
    pub warmup: Key,
    /// Proved optima the workload must reproduce.
    pub optima: Vec<(Key, f64)>,
}

/// `gen-ilp`: the only product-path keys whose joint ILP runs to a proof
/// and does real work. The budget is set so high that it never ends a
/// solve. A pass holds 20 (3, AND), 10 (3, Booth8) and one (3, BW)
/// design. Over P passes the median (rank about 15.5 P of 31 P) falls
/// inside the (3, AND) group. The tail (rank 31 P − 10) falls inside the
/// (3, Booth8) group while P ≤ 10, because the ten samples beyond it are
/// the P (3, BW) ones and 10 − P (3, Booth8) ones. [`passes`] keeps P
/// fixed and at most ten.
pub fn gen_ilp() -> GenSpec {
    let k = |ppg| Key { m: 3, ppg };
    let mut pass = vec![k(PpgKind::And); 20];
    pass.extend(vec![k(PpgKind::Booth8); 10]);
    pass.push(k(PpgKind::BaughWooley));
    GenSpec {
        cfg: GomilConfig::with_budget(Duration::from_secs(86_400)),
        pass,
        warmup: k(PpgKind::And),
        optima: vec![
            (k(PpgKind::And), 60.0),
            (k(PpgKind::Booth8), 33.0),
            (k(PpgKind::BaughWooley), 70.0),
        ],
    }
}

/// The keys a traced `serve-zipf` run replays in-process, under the
/// server's default configuration. `keys` must not be empty.
pub fn serve_replay(keys: Vec<Key>) -> GenSpec {
    GenSpec {
        cfg: GomilConfig::default(),
        warmup: keys[0],
        pass: keys,
        optima: Vec::new(),
    }
}

/// Emits the PPG for `key` into a fresh netlist, as `build_gomil` does.
fn ppg_netlist(key: Key) -> (Netlist, BitMatrix) {
    let mut nl = Netlist::new(format!(
        "gomil_{}_{}",
        key.ppg.label().to_lowercase(),
        key.m
    ));
    let a = nl.add_input("a", key.m);
    let b = nl.add_input("b", key.m);
    let pp = match key.ppg {
        PpgKind::And => and_ppg(&mut nl, &a, &b),
        PpgKind::Booth4 => booth4_ppg(&mut nl, &a, &b),
        PpgKind::Booth8 => booth8_ppg(&mut nl, &a, &b),
        PpgKind::BaughWooley => baugh_wooley_ppg(&mut nl, &a, &b),
    };
    (nl, pp)
}

/// Quality references computed from outside the program: plain Dadda plus
/// the optimal prefix tree in the design's own cost model, and the
/// `Wal-RCA` baseline's metrics at the same width (`B-Wal-RCA` panics at
/// odd widths, so it cannot be the reference).
#[derive(Default, PartialEq)]
pub struct References {
    dadda: BTreeMap<(usize, usize), f64>,
    walrca: BTreeMap<usize, (f64, f64, f64)>,
}

impl References {
    pub fn build(keys: &[Key], cfg: &GomilConfig) -> References {
        let mut refs = References::default();
        for &key in keys {
            refs.dadda.entry(key.order()).or_insert_with(|| {
                let v0 = ppg_netlist(key).1.heights();
                let dadda = dadda_schedule(&v0);
                let vs = dadda.final_bcv(&v0).expect("Dadda reduces every PPG");
                dadda.cost(cfg.alpha, cfg.beta)
                    + optimize_prefix_tree(&leaf_types(vs.counts()), cfg.w).cost
            });
            refs.walrca.entry(key.m).or_insert_with(|| {
                let d = build_baseline(BaselineKind::WalRca, key.m, cfg)
                    .netlist
                    .metrics(POWER_VECTORS);
                (d.area, d.delay, d.pdp())
            });
        }
        refs
    }

    /// Adds one design's objective, area, delay and PDP ratios. Fails when
    /// they differ from an earlier design of the same key in this run.
    pub fn score(
        &self,
        key: Key,
        objective: f64,
        d: &DesignMetrics,
        q: &mut Quality,
    ) -> Result<(), String> {
        let (area, delay, pdp) = self.walrca[&key.m];
        let ratios = [
            objective / self.dadda[&key.order()],
            d.area / area,
            d.delay / delay,
            d.pdp() / pdp,
        ];
        let (count, first) = q.0.entry(key.order()).or_insert((0, ratios));
        if *first != ratios {
            return Err(format!(
                "{key}: design differs from an earlier one of the same key"
            ));
        }
        *count += 1;
        Ok(())
    }
}

/// Geometric means of the quality ratios over every scored design. All
/// designs of one key are identical within a run, so each key keeps one
/// set of ratios and a count. Summing in key order, weighted by each key's
/// share of the designs, makes the result independent of the shuffled
/// order and of the number of whole passes, bit for bit.
#[derive(Default)]
pub struct Quality(BTreeMap<(usize, usize), (u64, [f64; 4])>);

impl Quality {
    /// Objective, area, delay and PDP geometric means, in that order.
    pub fn geo_means(&self) -> [f64; 4] {
        let total: u64 = self.0.values().map(|(n, _)| n).sum();
        if total == 0 {
            return [f64::NAN; 4];
        }
        let mut log = [0.0; 4];
        for (n, ratios) in self.0.values() {
            for (acc, r) in log.iter_mut().zip(ratios) {
                *acc += (*n as f64 / total as f64) * r.ln();
            }
        }
        log.map(f64::exp)
    }
}

/// Counts of one run's answers, shared with the serve workload.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub degraded: u64,
    /// Sum of verdict tiers on the scale failed 0, skipped 1, tested 2,
    /// proved 3.
    pub tier_sum: u64,
    pub proved: u64,
    pub latencies_ms: Vec<f64>,
    pub quality: Quality,
    pub errors: Vec<String>,
}

/// Failure messages a tally keeps; later ones are only counted.
const KEPT_ERRORS: usize = 20;

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(why);
        }
    }

    /// Adds another tally's attempts and failures. Its latencies and
    /// quality stay out: they describe other designs.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_ERRORS.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }
}

pub fn tier_score(tier: VerdictTier) -> u64 {
    match tier {
        VerdictTier::Failed => 0,
        VerdictTier::Skipped => 1,
        VerdictTier::Tested => 2,
        VerdictTier::Proved => 3,
    }
}

/// One product-path call, timed end to end.
pub struct Product {
    pub design: GomilDesign,
    pub metrics: DesignMetrics,
    pub latency: Duration,
}

pub fn product_call(key: Key, cfg: &GomilConfig) -> Result<Product, String> {
    let t0 = Instant::now();
    let design = build_gomil(key.m, key.ppg, cfg).map_err(|e| format!("{key}: {e}"))?;
    let metrics = design.build.netlist.metrics(POWER_VECTORS);
    let verilog = design.build.netlist.to_verilog();
    let latency = t0.elapsed();
    black_box(&verilog);
    if !verilog.contains("module") {
        return Err(format!("{key}: Verilog export has no module"));
    }
    Ok(Product {
        design,
        metrics,
        latency,
    })
}

/// Whether the serving layer would mark this answer degraded (the same
/// rule `gomil::serve_service` applies before caching).
fn degraded(design: &GomilDesign) -> bool {
    let report = &design.solution.degradation;
    report.degraded() || report.budget_limited() || report.winner == Some(Rung::DaddaPrefix)
}

/// Checks one product call and adds it to the tally.
pub fn record(
    tally: &mut Tally,
    key: Key,
    result: Result<Product, String>,
    spec: &GenSpec,
    refs: &References,
) {
    tally.attempted += 1;
    let p = match result {
        Ok(p) => p,
        Err(e) => return tally.fail(e),
    };
    tally.latencies_ms.push(p.latency.as_secs_f64() * 1e3);
    let sol = &p.design.solution;
    let tier = sol.verdict.tier();
    tally.tier_sum += tier_score(tier);
    if tier == VerdictTier::Proved {
        tally.proved += 1;
    }
    if degraded(&p.design) {
        tally.degraded += 1;
    }
    if let Err(e) = refs.score(key, sol.objective, &p.metrics, &mut tally.quality) {
        return tally.fail(e);
    }
    if !matches!(tier, VerdictTier::Proved | VerdictTier::Tested) {
        return tally.fail(format!("{key}: verdict {}", sol.verdict));
    }
    if let Err(e) = p.design.build.verify() {
        return tally.fail(format!("{key}: {e}"));
    }
    if let Some(&(_, optimum)) = spec.optima.iter().find(|(k, _)| *k == key) {
        let proven = sol.solver_stats.as_ref().is_some_and(|s| s.proven_optimal);
        if sol.objective != optimum || !proven {
            tally.fail(format!(
                "{key}: objective {} (proven {proven}), expected the proved optimum {optimum}",
                sol.objective
            ));
        }
    }
}

/// Length of one `gen-ilp` pass on the two-vCPU host the benchmark was
/// sized on.
const PASS_SECONDS: f64 = 10.0;

/// Whole passes the untraced run makes: one per [`PASS_SECONDS`] asked
/// for, from one to ten. The count does not depend on how fast the program
/// runs, so each order statistic stays on the same sample rank, and the
/// tail inside the (3, Booth8) group (see [`gen_ilp`]).
pub fn passes(seconds: f64) -> usize {
    ((seconds / PASS_SECONDS).ceil() as usize).clamp(1, 10)
}

/// The untraced run: a fixed number of whole passes in seeded order.
/// Set-up runs before the first pass and again after every pass, so its
/// median samples the host across the whole run instead of one phase at
/// the start.
pub struct GenRun {
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    pub busy_s: f64,
    pub pass_s: Vec<f64>,
    pub host_ms: Vec<f64>,
}

/// Set-up: the quality references plus one untimed warm-up design.
fn setup(spec: &GenSpec, tally: &mut Tally) -> (References, f64) {
    let t0 = Instant::now();
    let refs = References::build(&spec.pass, &spec.cfg);
    let warm = product_call(spec.warmup, &spec.cfg);
    let took = t0.elapsed().as_secs_f64();
    if let Err(e) = warm {
        tally.fail(format!("warm-up {e}"));
    }
    (refs, took)
}

pub fn run(spec: &GenSpec, seed: u64, passes: usize) -> GenRun {
    let mut tally = Tally::default();
    let mut host_ms = vec![stats::host_probe_ms()];
    let (refs, first) = setup(spec, &mut tally);
    let mut setup_s = vec![first];
    let mut rng = Rng::new(seed);
    let mut pass_s = Vec::new();
    for _ in 0..passes {
        let mut order = spec.pass.clone();
        rng.shuffle(&mut order);
        let mut busy = Duration::ZERO;
        for key in order {
            let result = product_call(key, &spec.cfg);
            if let Ok(p) = &result {
                busy += p.latency;
            }
            record(&mut tally, key, result, spec, &refs);
        }
        pass_s.push(busy.as_secs_f64());
        host_ms.push(stats::host_probe_ms());
        let (again, took) = setup(spec, &mut tally);
        setup_s.push(took);
        if again != refs {
            tally.fail("set-up references differ between repeats".into());
        }
    }
    GenRun {
        tally,
        setup_s,
        busy_s: pass_s.iter().sum(),
        pass_s,
        host_ms,
    }
}

/// Prints the joint-ILP regime of every key with m ≤ 8 under the default
/// configuration (10-s solver budget): skipped because the profile has no
/// leftmost-free reduction (Eq. 4), proof-bound, or budget-bound. Each
/// solve runs twice, so the overshoot past the budget and the node-count
/// spread show.
pub fn print_regime_map() {
    let cfg = GomilConfig::default();
    let budget_s = cfg.solver_budget.as_secs_f64();
    println!("| m | PPG | regime | joint ILP s | nodes | LP iterations | objective |");
    println!("|---|-----|--------|-------------|-------|---------------|-----------|");
    let mut keys = keys_at(2..=8);
    keys.sort_by_key(|k| (ppg_rank(k.ppg), k.m));
    for key in keys {
        let v0 = ppg_netlist(key).1.heights();
        let (m, ppg) = (key.m, key.ppg.label());
        if build_joint_model(&v0, &cfg, None).is_err() {
            println!("| {m} | {ppg} | ILP skipped (Eq. 4) | - | - | - | - |");
            continue;
        }
        for _ in 0..2 {
            let t0 = Instant::now();
            let row = match joint_ilp(&v0, &cfg) {
                Ok(sol) => {
                    let wall = t0.elapsed().as_secs_f64();
                    let s = sol.solver_stats.expect("the joint ILP records its stats");
                    let regime = if s.proven_optimal {
                        "proof-bound".to_string()
                    } else if wall >= budget_s {
                        format!("budget-bound, {:.2} s over", wall - budget_s)
                    } else {
                        "stopped early, unproven".to_string()
                    };
                    let (nodes, iters) = (s.nodes, s.lp_iterations);
                    format!(
                        "{regime} | {wall:.2} | {nodes} | {iters} | {}",
                        sol.objective
                    )
                }
                Err(e) => format!("error: {e} | - | - | - | -"),
            };
            println!("| {m} | {ppg} | {row} |");
        }
    }
}

/// Counters the replay reads off the ILP layer at the span boundaries.
#[derive(Default)]
pub struct IlpCounters {
    pub solves: u64,
    pub proved: u64,
    pub nodes: u64,
    pub lp_iterations: u64,
    pub refactors: u64,
    pub warm_attempts: u64,
    pub warm_hits: u64,
    pub kernel_calls: u64,
    pub kernel_hyper: u64,
    pub presolve_ms: f64,
    pub root_lp_ms: f64,
    pub cuts_ms: f64,
}

impl IlpCounters {
    fn add(&mut self, s: &SolveStats) {
        self.solves += 1;
        self.proved += u64::from(s.proven_optimal);
        self.nodes += s.nodes;
        self.lp_iterations += s.lp_iterations;
        self.refactors += s.lp_refactors;
        self.warm_attempts += s.lp_warm_attempts;
        self.warm_hits += s.lp_warm_hits;
        self.kernel_calls += s.lp_ftran + s.lp_btran;
        self.kernel_hyper += s.lp_ftran_hyper + s.lp_btran_hyper;
        self.presolve_ms += s.root.presolve_us as f64 / 1e3;
        self.root_lp_ms += s.root.root_lp_us as f64 / 1e3;
        self.cuts_ms += s.root.cut_us as f64 / 1e3;
    }
}

/// What the traced run accumulates besides spans.
#[derive(Default)]
pub struct Traced {
    pub trace: Trace,
    pub ilp: IlpCounters,
    pub designs: u64,
    pub ilp_won: u64,
    pub verify_vectors: u64,
    pub gates: u64,
    /// Per design, the traced replay's time minus the time of the same
    /// replay through [`Trace::off`].
    pub overhead_ms: Vec<f64>,
    pub mismatches: Vec<String>,
}

impl Traced {
    /// Share of the replayed designs' time that no span accounts for.
    pub fn gap_share(&self) -> f64 {
        stats::share(self.trace.gap_ms(), self.trace.total_ms("design"))
    }
}

struct Choice {
    rung: Rung,
    schedule: CompressionSchedule,
    objective: f64,
}

/// The joint-ILP rung as `joint_ilp_hinted` composes it: model build,
/// branch and bound, then the full-width prefix post-pass.
fn joint_rung(
    tr: &mut Trace,
    ilp: &mut IlpCounters,
    v0: &gomil::Bcv,
    cfg: &GomilConfig,
) -> Result<Choice, String> {
    let JointModel { model, seeds, ct } = tr
        .span("core.joint_build", |_| build_joint_model(v0, cfg, None))
        .map_err(|e| format!("joint build: {e}"))?;
    let mut seeds = seeds.into_iter();
    let branch = BranchConfig {
        time_limit: Some(cfg.solver_budget),
        budget: Budget::unlimited(),
        initial: seeds.next(),
        extra_starts: seeds.collect(),
        jobs: cfg.solver_jobs,
        pricing: cfg.pricing,
        cuts: cfg.cuts,
        scaling: cfg.scaling,
        reduce: cfg.reduce,
        ..BranchConfig::default()
    };
    let sol = tr
        .span("ilp.solve", |_| model.solve_with(&branch))
        .map_err(|e| format!("joint solve: {e}"))?;
    ilp.add(&SolveStats::from(&sol));
    tr.span("core.joint_score", |_| {
        let schedule = ct.extract_schedule(sol.values());
        let vs = schedule
            .final_bcv(v0)
            .map_err(|e| format!("joint schedule: {e}"))?;
        let objective = schedule.cost(cfg.alpha, cfg.beta)
            + optimize_prefix_tree(&leaf_types(vs.counts()), cfg.w).cost;
        Ok(Choice {
            rung: Rung::JointIlp,
            schedule,
            objective,
        })
    })
}

/// One design as a composition of public calls, each in a span of `tr`,
/// following the rungs the product call's ladder reports it ran. The
/// arrival-aware prefix step is crate-private, so the composition realizes
/// the product call's own `realized_tree`; that step's time stays inside
/// the product call.
fn compose(
    tr: &mut Trace,
    ilp: &mut IlpCounters,
    key: Key,
    cfg: &GomilConfig,
    product: &GomilDesign,
) -> Result<(Choice, EquivVerdict, Netlist, gomil::Bcv), String> {
    tr.span("design", |tr| -> Result<_, String> {
        let (mut nl, pp) = tr.span("arith.ppg", |_| ppg_netlist(key));
        let v0 = pp.heights();
        let choice = tr.span("core.ladder", |tr| -> Result<Choice, String> {
            let mut best: Option<Choice> = None;
            let mut offer = |c: Choice| {
                if best
                    .as_ref()
                    .is_none_or(|b| c.objective < b.objective - 1e-9)
                {
                    best = Some(c);
                }
            };
            for a in &product.solution.degradation.attempts {
                match (a.rung, &a.outcome) {
                    (_, RungOutcome::Skipped(_)) => {}
                    (Rung::JointIlp, RungOutcome::Succeeded { .. }) => {
                        offer(joint_rung(tr, ilp, &v0, cfg)?);
                    }
                    (Rung::TargetSearch, RungOutcome::Succeeded { .. }) => {
                        let s = tr
                            .span("core.target_search", |_| {
                                target_search_hinted(&v0, cfg, &Budget::unlimited(), None)
                            })
                            .map_err(|e| format!("target search: {e}"))?;
                        offer(Choice {
                            rung: Rung::TargetSearch,
                            schedule: s.schedule,
                            objective: s.objective,
                        });
                    }
                    (rung, outcome) => {
                        return Err(format!("rung {rung} ({outcome:?}) is not replayed"));
                    }
                }
            }
            best.ok_or_else(|| "the ladder ran no rung".to_string())
        })?;
        let reduced = tr
            .span("arith.realize", |_| {
                realize_schedule(&mut nl, &pp, &choice.schedule)
            })
            .map_err(|e| format!("realize: {e}"))?;
        tr.span("prefix.cpa", |_| {
            let rows = TwoRows::from_matrix(&reduced);
            let mut sum = ppf_csl_sum(&mut nl, &rows, &product.realized_tree, cfg.select_style);
            sum.truncate(2 * key.m);
            while sum.len() < 2 * key.m {
                let zero = nl.const0();
                sum.push(zero);
            }
            nl.add_output("p", sum);
        });
        tr.span("netlist.prune", |_| nl.prune_dead());
        let vcfg = cfg.verify.config().ok_or("verification is off")?;
        let verdict = tr.span("netlist.verify", |_| {
            verify_multiplier(&nl, key.m, key.ppg.is_signed(), &vcfg)
        });
        tr.span("netlist.sta_power", |_| {
            black_box(nl.metrics(POWER_VECTORS))
        });
        tr.span("netlist.verilog", |_| black_box(nl.to_verilog()));
        Ok((choice, verdict, nl, v0))
    })
}

/// Replays one design twice, through [`Trace::off`] and in spans,
/// records the difference as the spans' overhead, and checks the traced
/// replay against the product call. The two replays take turns going
/// first, so warm caches favour neither.
pub fn replay(
    t: &mut Traced,
    key: Key,
    cfg: &GomilConfig,
    product: &GomilDesign,
) -> Result<(), String> {
    t.designs += 1;
    let untraced = || -> Result<f64, String> {
        let t0 = Instant::now();
        compose(
            &mut Trace::off(),
            &mut IlpCounters::default(),
            key,
            cfg,
            product,
        )?;
        Ok(t0.elapsed().as_secs_f64())
    };
    let off_first = t.designs % 2 == 1;
    let before = if off_first { untraced()? } else { 0.0 };
    let t0 = Instant::now();
    let (choice, verdict, nl, v0) = compose(&mut t.trace, &mut t.ilp, key, cfg, product)?;
    let traced = t0.elapsed().as_secs_f64();
    let off = if off_first { before } else { untraced()? };
    t.overhead_ms.push((traced - off) * 1e3);
    // A one-candidate probe of the prefix DP that target search runs once
    // per candidate profile; its own span tree, outside the design.
    let b = leaf_types(product.solution.vs.counts());
    t.trace
        .span("prefix.dp", |_| {
            black_box(
                dp_tables_budgeted(&b, cfg.w, None, &Budget::unlimited())
                    .map(|tables| tables.cost(b.len() - 1, 0)),
            )
        })
        .map_err(|e| format!("prefix DP probe: {e}"))?;

    let sol = &product.solution;
    t.ilp_won += u64::from(sol.degradation.winner == Some(Rung::JointIlp));
    t.verify_vectors += verdict.vectors();
    t.gates += nl.num_gates() as u64;
    let replayed_vs = choice
        .schedule
        .final_bcv(&v0)
        .map_err(|e| format!("replayed schedule: {e}"))?;
    let same = choice.objective == sol.objective
        && replayed_vs == sol.vs
        && nl.num_gates() == product.build.netlist.num_gates()
        && verdict.tier() == sol.verdict.tier()
        && Some(choice.rung) == sol.degradation.winner;
    if !same {
        t.mismatches.push(format!(
            "{key}: replay objective {} gates {} tier {:?} rung {}, product objective {} gates {} tier {:?} rung {:?}",
            choice.objective,
            nl.num_gates(),
            verdict.tier(),
            choice.rung,
            sol.objective,
            product.build.netlist.num_gates(),
            sol.verdict.tier(),
            sol.degradation.winner,
        ));
    }
    Ok(())
}

/// Product call plus traced replay for one key; failures go to `tally`.
pub fn traced_design(
    t: &mut Traced,
    tally: &mut Tally,
    key: Key,
    spec: &GenSpec,
    refs: &References,
) {
    let product = product_call(key, &spec.cfg);
    let replayed = match &product {
        Ok(p) => replay(t, key, &spec.cfg, &p.design),
        Err(_) => Ok(()),
    };
    record(tally, key, product, spec, refs);
    if let Err(e) = replayed {
        t.mismatches.push(format!("{key}: {e}"));
    }
}

/// The traced run: whole passes of product calls, each followed by its
/// replays, until `seconds` have passed. Its metrics are means over whole
/// passes, so the number of passes does not change the key mix.
pub fn run_traced(
    spec: &GenSpec,
    seed: u64,
    seconds: f64,
    t: &mut Traced,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut host_ms = vec![stats::host_probe_ms()];
    let refs = References::build(&spec.pass, &spec.cfg);
    let mut rng = Rng::new(seed);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let mut order = spec.pass.clone();
        rng.shuffle(&mut order);
        for key in order {
            traced_design(t, tally, key, spec, &refs);
        }
        host_ms.push(stats::host_probe_ms());
    }
    host_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_means_ignore_order_and_whole_pass_count() {
        let spec = gen_ilp();
        let refs = References::build(&spec.pass, &spec.cfg);
        let d = DesignMetrics {
            area: 50.0,
            delay: 9.0,
            power: 3.0,
        };
        let run = |passes: usize, seed: u64| {
            let mut q = Quality::default();
            let mut rng = Rng::new(seed);
            for _ in 0..passes {
                let mut order = spec.pass.clone();
                rng.shuffle(&mut order);
                for key in order {
                    refs.score(key, 60.0 + key.order().1 as f64, &d, &mut q)
                        .expect("one design per key");
                }
            }
            q.geo_means()
        };
        assert_eq!(run(2, 1), run(5, 9));
        let mut q = Quality::default();
        let key = spec.pass[0];
        assert!(refs.score(key, 60.0, &d, &mut q).is_ok());
        assert!(refs.score(key, 61.0, &d, &mut q).is_err());
        assert!(Quality::default().geo_means().iter().all(|g| g.is_nan()));
    }

    #[test]
    fn median_and_tail_stay_in_one_group_at_every_pass_count() {
        let spec = gen_ilp();
        let latency = |k: &Key| match k.ppg {
            PpgKind::And => 60.0,
            PpgKind::Booth8 => 400.0,
            _ => 6000.0,
        };
        for seconds in [1.0, 10.0, 45.0, 60.0, 100.0, 1e6] {
            let n = passes(seconds);
            assert!((1..=10).contains(&n));
            let lat: Vec<f64> = (0..n).flat_map(|_| spec.pass.iter().map(latency)).collect();
            assert_eq!(stats::median(&lat), 60.0, "{n} passes");
            assert_eq!(stats::tail(&lat).1, 400.0, "{n} passes");
        }
        assert_eq!(passes(45.0), 5);
    }
}
