//! Prefix-structure IP (paper Section III-B-2, Eqs. 17–26).
//!
//! The paper re-expresses the interval DP as an integer program so it can
//! be *joined* with the CT ILP through the shared `V_s[i]` variables. The
//! three non-linear components — `b₁·b₂` products, `max{d₁,d₂}`, and the
//! `min` over cut points — are linearized the standard way:
//!
//! * binary products become AND-linearized auxiliaries (or constant-fold
//!   when a factor is fixed);
//! * `min over k` becomes selector binaries `t_{ijk}` with `Σₖ t = 1` and
//!   big-M *lower bounds* `a_{i:j} ≥ (branch k) − M·(1 − t_{ijk})`: because
//!   the minimized objective is monotone in every `a`/`d`, the selected
//!   branch binds with equality at the optimum — no `max` auxiliaries are
//!   needed since both `d` operands lower-bound the result separately.
//!
//! The big-M rows alone relax the prefix cost to almost nothing, so every
//! interval also carries two *DP floors* that each integer solution meets
//! by induction on interval length (the selected branch's row binds when
//! its `t` is 1): `d_{i:j} ≥ ⌈log₂(i − j + 1)⌉`, since every node adds
//! `D ≥ 1`, and `a_{i:j} ≥ (i − j) + Σ_{l=j..i} 2·b_{l:l}`, since each of
//! the `i − j` nodes adds `A ≥ 1` and each leaf adds `2·b`.
//!
//! The same builder serves two modes: leaf types fixed (to cross-check the
//! IP against the exact DP) or leaf types as model variables tied to
//! `V_s[i] − 1` (Eq. 18) for the global optimization, optionally truncated
//! to intervals shorter than `L` (Section III-C).

use gomil_ilp::{Cmp, LinExpr, Model, Var};
use gomil_prefix::dp_tables;
use std::collections::HashMap;

/// A leaf type flag: fixed, or a model binary (from `V_s[i] − 1`).
#[derive(Debug, Clone, Copy)]
pub enum LeafB {
    /// Known type (`V_s` fixed).
    Const(bool),
    /// Type decided by the model.
    Var(Var),
}

/// A `b` value inside the builder: constant or variable.
#[derive(Debug, Clone, Copy)]
enum BVal {
    Const(bool),
    Var(Var),
}

impl BVal {
    fn as_expr(self) -> LinExpr {
        match self {
            BVal::Const(b) => LinExpr::constant_expr(if b { 1.0 } else { 0.0 }),
            BVal::Var(v) => v.into(),
        }
    }
}

/// All handles created by [`add_prefix_constraints`], enough to warm-start
/// and to read back the chosen tree.
#[derive(Debug, Clone)]
pub struct PrefixVars {
    /// Number of columns.
    pub n: usize,
    /// Delay weight.
    pub w: f64,
    /// Interval cap: only `(i, j)` with `i − j < l_cap` are modelled.
    pub l_cap: usize,
    b: HashMap<(usize, usize), BVal>,
    q: HashMap<(usize, usize, usize), BVal>,
    /// Selector binaries per interval: `(k, var)` pairs.
    pub t: HashMap<(usize, usize), Vec<(usize, Var)>>,
    /// Area variable per internal interval.
    pub a: HashMap<(usize, usize), Var>,
    /// Delay variable per internal interval.
    pub d: HashMap<(usize, usize), Var>,
    /// The truncated objective term `c_{root}` = `a + w·d` of the longest
    /// modelled interval ending at column 0.
    pub root_cost: LinExpr,
    /// That interval: `(i, 0)`.
    pub root: (usize, usize),
}

/// Adds Eqs. (18)–(26) to `model` and returns the variable handles.
///
/// `l_cap` bounds modelled interval lengths: intervals `(i, j)` are created
/// only when `i − j < l_cap` (the paper's `L` speed-up); pass `n` for the
/// full formulation. The returned [`PrefixVars::root_cost`] is
/// `c_{min(L,n)−1 : 0}`, the term Section III-C adds to the global
/// objective.
///
/// # Panics
///
/// Panics if `leaf` is empty, `w < 0`, or `l_cap == 0`.
pub fn add_prefix_constraints(
    model: &mut Model,
    leaf: &[LeafB],
    w: f64,
    l_cap: usize,
) -> PrefixVars {
    let n = leaf.len();
    assert!(n > 0, "need at least one column");
    assert!(w >= 0.0, "delay weight must be non-negative");
    assert!(l_cap > 0, "interval cap must be positive");
    let l_cap = l_cap.min(n);

    // Big-M values from the cost model's natural bounds.
    let a_max = (5 * n) as f64;
    let d_max = (2 * n + 2) as f64;
    let m_a = a_max + 4.0;
    let m_d = d_max + 4.0;

    let mut vars = PrefixVars {
        n,
        w,
        l_cap,
        b: HashMap::new(),
        q: HashMap::new(),
        t: HashMap::new(),
        a: HashMap::new(),
        d: HashMap::new(),
        root_cost: LinExpr::new(),
        root: (l_cap - 1, 0),
    };

    // Leaf b values (Eq. 18 handled by the caller when leaves are vars).
    for (i, &lb) in leaf.iter().enumerate() {
        let bv = match lb {
            LeafB::Const(c) => BVal::Const(c),
            LeafB::Var(v) => BVal::Var(v),
        };
        vars.b.insert((i, i), bv);
    }

    // Interval b's by OR-chaining (Eq. 19 with k = i): b_{i:j} = b_{i:i} ∨ b_{i−1:j}.
    for len in 1..l_cap {
        for j in 0..n - len {
            let i = j + len;
            let hi = vars.b[&(i, i)];
            let lo = vars.b[&(i - 1, j)];
            let combined = or_bval(model, hi, lo, &format!("b_{i}_{j}"));
            vars.b.insert((i, j), combined);
        }
    }

    // Leaf a/d as expressions (Eq. 20): a_ii = 2·b_ii, d_ii = b_ii.
    let leaf_a = |vars: &PrefixVars, i: usize| -> LinExpr { 2.0 * vars.b[&(i, i)].as_expr() };
    let leaf_d = |vars: &PrefixVars, i: usize| -> LinExpr { vars.b[&(i, i)].as_expr() };

    // Internal intervals (Eqs. 21–26).
    for len in 1..l_cap {
        for j in 0..n - len {
            let i = j + len;
            let a_ij = model.add_continuous(format!("a_{i}_{j}"), 0.0, a_max);
            // DP floor on delay: a tree on len + 1 leaves is ⌈log₂(len + 1)⌉
            // deep, and every node adds D = q + 1 ≥ 1 (Eq. 13).
            let depth = (len + 1).next_power_of_two().trailing_zeros() as f64;
            let d_ij = model.add_continuous(format!("d_{i}_{j}"), depth, d_max);
            vars.a.insert((i, j), a_ij);
            vars.d.insert((i, j), d_ij);

            let mut t_sum = LinExpr::new();
            let mut t_list = Vec::new();
            for k in j + 1..=i {
                let t = model.add_binary(format!("t_{i}_{j}_{k}"));
                t_sum += LinExpr::from(t);
                t_list.push((k, t));

                // q = b_{i:k} ∧ b_{k−1:j} (the product in Eqs. 24–25).
                let b_hi = vars.b[&(i, k)];
                let b_lo = vars.b[&(k - 1, j)];
                let q = and_bval(model, b_hi, b_lo, &format!("q_{i}_{j}_{k}"));
                vars.q.insert((i, j, k), q);

                // Sub-interval a/d as expressions (leaf or variable).
                let a_hi = if i == k {
                    leaf_a(&vars, i)
                } else {
                    vars.a[&(i, k)].into()
                };
                let a_lo = if k - 1 == j {
                    leaf_a(&vars, j)
                } else {
                    vars.a[&(k - 1, j)].into()
                };
                let d_hi = if i == k {
                    leaf_d(&vars, i)
                } else {
                    vars.d[&(i, k)].into()
                };
                let d_lo = if k - 1 == j {
                    leaf_d(&vars, j)
                } else {
                    vars.d[&(k - 1, j)].into()
                };

                // Node cost per Eq. (13): A = q + b_lo + 1; D = q + 1.
                let node_a = q.as_expr() + b_lo.as_expr() + 1.0;
                let node_d = q.as_expr() + 1.0;

                // a_ij ≥ a_hi + a_lo + node_a − M(1−t)
                let t_expr: LinExpr = t.into();
                model.add_constraint(
                    format!("a_sel_{i}_{j}_{k}"),
                    a_hi + a_lo + node_a + m_a * t_expr.clone() - a_ij,
                    Cmp::Le,
                    m_a,
                );
                // d_ij ≥ d_hi + node_d − M(1−t)  and same for d_lo: the two
                // lower bounds realize max{d_hi, d_lo} on the selected branch.
                model.add_constraint(
                    format!("d_sel_hi_{i}_{j}_{k}"),
                    d_hi + node_d.clone() + m_d * t_expr.clone() - d_ij,
                    Cmp::Le,
                    m_d,
                );
                model.add_constraint(
                    format!("d_sel_lo_{i}_{j}_{k}"),
                    d_lo + node_d + m_d * t_expr - d_ij,
                    Cmp::Le,
                    m_d,
                );
            }
            // DP floor on area: each of the len internal nodes adds
            // A = q + b_lo + 1 ≥ 1, and each leaf adds 2·b (Eq. 20). After
            // the selector rows, the wide joint root LPs pivot less than
            // with the row first in the interval's block.
            let leaves: LinExpr = (j..=i).map(|l| leaf_a(&vars, l)).sum();
            model.add_constraint(
                format!("a_floor_{i}_{j}"),
                LinExpr::from(a_ij) - leaves,
                Cmp::Ge,
                len as f64,
            );
            // Eq. (23): exactly one cut point.
            model.add_constraint(format!("t_one_{i}_{j}"), t_sum, Cmp::Eq, 1.0);
            vars.t.insert((i, j), t_list);
        }
    }

    // Truncated root cost c_{l_cap−1:0} (Eq. 26 / Section III-C).
    let root = (l_cap - 1, 0usize);
    vars.root = root;
    vars.root_cost = if root.0 == 0 {
        leaf_a(&vars, 0) + w * leaf_d(&vars, 0)
    } else {
        LinExpr::from(vars.a[&root]) + w * LinExpr::from(vars.d[&root])
    };
    vars
}

fn or_bval(model: &mut Model, x: BVal, y: BVal, name: &str) -> BVal {
    match (x, y) {
        (BVal::Const(true), _) | (_, BVal::Const(true)) => BVal::Const(true),
        (BVal::Const(false), o) | (o, BVal::Const(false)) => o,
        (BVal::Var(a), BVal::Var(b)) => BVal::Var(model.or_binary(name, a, b)),
    }
}

fn and_bval(model: &mut Model, x: BVal, y: BVal, name: &str) -> BVal {
    match (x, y) {
        (BVal::Const(false), _) | (_, BVal::Const(false)) => BVal::Const(false),
        (BVal::Const(true), o) | (o, BVal::Const(true)) => o,
        (BVal::Var(a), BVal::Var(b)) => BVal::Var(model.and_binary(name, a, b)),
    }
}

impl PrefixVars {
    /// Fills `values` with a feasible warm start for all prefix variables,
    /// derived from concrete leaf types via the exact DP. Any `LeafB::Var`
    /// leaf variables are also assigned.
    pub fn warm_start_into(&self, values: &mut [f64], leaf_vals: &[bool]) {
        let tables = dp_tables(leaf_vals, self.w);
        // b values: interval ORs.
        let b_of = |i: usize, j: usize| -> bool { leaf_vals[j..=i].iter().any(|&x| x) };
        for (&(i, j), &bv) in &self.b {
            if let BVal::Var(v) = bv {
                values[v.index()] = if b_of(i, j) { 1.0 } else { 0.0 };
            }
        }
        for (&(i, j, k), &qv) in &self.q {
            if let BVal::Var(v) = qv {
                values[v.index()] = if b_of(i, k) && b_of(k - 1, j) {
                    1.0
                } else {
                    0.0
                };
            }
        }
        for (&(i, j), ts) in &self.t {
            // DP-optimal cut for this interval.
            let tree = tables.tree(i, j);
            let cut = match tree {
                gomil_prefix::PrefixTree::Node { ref hi, .. } => hi.span().1,
                gomil_prefix::PrefixTree::Leaf { .. } => unreachable!("internal interval"),
            };
            for &(k, tv) in ts {
                values[tv.index()] = if k == cut { 1.0 } else { 0.0 };
            }
        }
        for (&(i, j), &av) in &self.a {
            values[av.index()] = tables.area_delay(i, j).0;
        }
        for (&(i, j), &dv) in &self.d {
            values[dv.index()] = tables.area_delay(i, j).1;
        }
    }

    /// Reads the selected cut points from a solved assignment and
    /// reconstructs the tree for the modelled root interval.
    pub fn extract_tree(&self, values: &[f64]) -> gomil_prefix::PrefixTree {
        self.extract_interval(values, self.root.0, self.root.1)
    }

    fn extract_interval(&self, values: &[f64], i: usize, j: usize) -> gomil_prefix::PrefixTree {
        if i == j {
            return gomil_prefix::PrefixTree::leaf(i);
        }
        let ts = &self.t[&(i, j)];
        let &(k, _) = ts
            .iter()
            .find(|(_, tv)| values[tv.index()] > 0.5)
            .expect("exactly one selector is set");
        gomil_prefix::PrefixTree::node(
            self.extract_interval(values, i, k),
            self.extract_interval(values, k - 1, j),
        )
    }
}

/// Solves the standalone prefix IP for fixed leaf types, returning
/// `(tree, cost)`. Used to validate the IP against the DP.
///
/// # Errors
///
/// Propagates solver failures (the model is always feasible).
pub fn solve_fixed_prefix_ip(
    leaf_vals: &[bool],
    w: f64,
    budget: std::time::Duration,
) -> Result<(gomil_prefix::PrefixTree, f64), gomil_ilp::SolveError> {
    let mut model = Model::new("prefix_ip_fixed");
    let leaf: Vec<LeafB> = leaf_vals.iter().map(|&b| LeafB::Const(b)).collect();
    let vars = add_prefix_constraints(&mut model, &leaf, w, leaf_vals.len());
    model.set_objective(vars.root_cost.clone(), gomil_ilp::Sense::Minimize);
    let mut init = vec![0.0; model.num_vars()];
    vars.warm_start_into(&mut init, leaf_vals);
    let cfg = gomil_ilp::BranchConfig {
        time_limit: Some(budget),
        initial: Some(init),
        ..Default::default()
    };
    let sol = model.solve_with(&cfg)?;
    Ok((vars.extract_tree(sol.values()), sol.objective()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomil_prefix::optimize_prefix_tree;
    use std::time::Duration;

    #[test]
    fn ip_matches_dp_on_small_instances() {
        for (mask, n) in [
            (0b0u32, 3usize),
            (0b101, 3),
            (0b1111, 4),
            (0b0110, 4),
            (0b10110, 5),
        ] {
            let leaf: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
            for w in [0.0, 1.0, 8.0] {
                let dp = optimize_prefix_tree(&leaf, w);
                let (tree, cost) =
                    solve_fixed_prefix_ip(&leaf, w, Duration::from_secs(20)).unwrap();
                assert!(
                    (cost - dp.cost).abs() < 1e-6,
                    "n={n} mask={mask:b} w={w}: ip {cost} dp {}",
                    dp.cost
                );
                // The extracted tree must cost what the IP claims.
                assert!((tree.weighted_cost(&leaf, w) - cost).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn warm_start_is_feasible() {
        let leaf_vals = [true, false, true, true, false];
        let mut model = Model::new("t");
        let leaf: Vec<LeafB> = leaf_vals.iter().map(|&b| LeafB::Const(b)).collect();
        let vars = add_prefix_constraints(&mut model, &leaf, 8.0, leaf_vals.len());
        model.set_objective(vars.root_cost.clone(), gomil_ilp::Sense::Minimize);
        let mut init = vec![0.0; model.num_vars()];
        vars.warm_start_into(&mut init, &leaf_vals);
        assert!(
            model.is_feasible(&init, 1e-5),
            "DP-derived warm start must satisfy the IP constraints"
        );
        // And its objective equals the DP optimum.
        let dp = optimize_prefix_tree(&leaf_vals, 8.0);
        let obj = model.objective().eval(&init);
        assert!((obj - dp.cost).abs() < 1e-9);
    }

    #[test]
    fn truncation_models_only_short_intervals() {
        let leaf_vals = [true; 12];
        let mut model = Model::new("t");
        let leaf: Vec<LeafB> = leaf_vals.iter().map(|&b| LeafB::Const(b)).collect();
        let vars = add_prefix_constraints(&mut model, &leaf, 8.0, 4);
        assert_eq!(vars.root, (3, 0));
        assert!(vars.a.keys().all(|&(i, j)| i - j < 4));
        // Interval (5, 1) has length 5 > 4: not modelled.
        assert!(!vars.a.contains_key(&(5, 1)));
    }

    #[test]
    fn dp_floors_hold_on_every_interval_of_random_leaf_vectors() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(18);
        for _ in 0..200 {
            let n = rng.gen_range(1usize..=12);
            let leaf: Vec<bool> = (0..n).map(|_| rng.gen_range(0..2) == 1).collect();
            for w in [0.0, 8.0] {
                let tables = dp_tables(&leaf, w);
                for i in 0..n {
                    for j in 0..=i {
                        let (area, delay) = tables.area_delay(i, j);
                        let set = leaf[j..=i].iter().filter(|&&b| b).count();
                        let depth = (i - j + 1).next_power_of_two().trailing_zeros() as f64;
                        assert!(
                            area >= (i - j + 2 * set) as f64,
                            "{leaf:?} w={w} [{i}:{j}]: area {area}"
                        );
                        assert!(delay >= depth, "{leaf:?} w={w} [{i}:{j}]: delay {delay}");
                    }
                }
            }
        }
    }

    #[test]
    fn joint_model_seeds_are_accepted_at_every_small_width() {
        use crate::{build_joint_model, GomilConfig, PpgKind, WarmStartStatus};
        use gomil_netlist::Netlist;
        let cfg = GomilConfig::default();
        let mut models = 0;
        for ppg in PpgKind::all() {
            for m in 2..=8 {
                if (ppg == PpgKind::Booth4 && m % 2 == 1) || (ppg == PpgKind::Booth8 && m < 3) {
                    continue;
                }
                let mut nl = Netlist::new("ppg");
                let a = nl.add_input("a", m);
                let b = nl.add_input("b", m);
                let v0 = crate::flow::build_ppg(&mut nl, ppg, &a, &b).heights();
                let Ok(jm) = build_joint_model(&v0, &cfg, None) else {
                    continue; // no leftmost-free reduction: no joint model
                };
                models += 1;
                assert!(!jm.seeds.is_empty(), "({m}, {ppg:?}) has no seed");
                for seed in jm.seeds {
                    // A dead budget skips the root LP; validation still runs.
                    let branch = gomil_ilp::BranchConfig {
                        time_limit: Some(Duration::ZERO),
                        initial: Some(seed),
                        ..Default::default()
                    };
                    let sol = jm
                        .model
                        .solve_with(&branch)
                        .expect("the seed is an incumbent");
                    assert_eq!(
                        *sol.warm_start(),
                        WarmStartStatus::Accepted,
                        "({m}, {ppg:?})"
                    );
                }
            }
        }
        // 19 of the 24 (m, PPG) pairs have a leftmost-free reduction.
        assert_eq!(models, 19, "joint models built");
    }

    #[test]
    fn single_column_root_cost_is_leaf_cost() {
        let mut model = Model::new("t");
        let vars = add_prefix_constraints(&mut model, &[LeafB::Const(true)], 8.0, 1);
        // a = 2, d = 1 → cost = 2 + 8 = 10.
        assert_eq!(vars.root_cost.constant(), 10.0);
    }
}
