//! Roster pin for target search: the exact design `target_search_hinted`
//! picks for every supported PPG at m ∈ {9, 16, 32, 62, 63, 64}, both
//! unhinted and hinted by the (m − 1, AND) neighbour's [`WarmStartHint`].
//!
//! Each row pins the exact objective, the achieved final profile `V_s`
//! (run-length encoded) and a digest of the compression schedule and
//! prefix tree. Any change to how target search scores or visits
//! candidates that alters a design shows up here. On a mismatch the test
//! prints the whole measured table in source form.

use gomil::{
    target_search, target_search_hinted, Bcv, Budget, GlobalSolution, GomilConfig, PpgKind,
    PrefixTree, WarmStartHint,
};
use gomil_arith::{and_ppg, baugh_wooley_ppg, booth4_ppg, booth8_ppg};
use gomil_netlist::Netlist;

const WIDTHS: [usize; 6] = [9, 16, 32, 62, 63, 64];

/// `(m, PPG label, hinted, objective, V_s as value:run pairs, digest)`.
type Row = (usize, &'static str, bool, f64, String, u64);

#[rustfmt::skip]
const GOLDEN: &[(usize, &str, bool, f64, &str, u64)] = &[
    (9, "AND", false, 309.0, "1:2,2:15", 0x5d571a122aa190f0),
    (9, "AND", true, 309.0, "1:2,2:15", 0x5d571a122aa190f0),
    (9, "MBE8", false, 218.0, "2:1,1:3,2:14,1:1", 0x96fb383fb8df5fb4),
    (9, "MBE8", true, 218.0, "2:1,1:3,2:14,1:1", 0x96fb383fb8df5fb4),
    (9, "BW", false, 320.0, "1:2,2:15,1:1", 0x5201fdb1fbccc720),
    (9, "BW", true, 320.0, "1:2,2:15,1:1", 0x5201fdb1fbccc720),
    (16, "AND", false, 850.0, "1:2,2:29", 0x4de6ac9a9dcd13bb),
    (16, "AND", true, 850.0, "1:2,2:29", 0x4de6ac9a9dcd13bb),
    (16, "MBE", false, 573.0, "2:1,1:2,2:29", 0x13908102698d47a1),
    (16, "MBE", true, 573.0, "2:1,1:2,2:29", 0x13908102698d47a1),
    (16, "MBE8", false, 492.0, "2:1,1:3,2:28,1:1", 0x4ba9822483e636c0),
    (16, "MBE8", true, 492.0, "2:1,1:3,2:28,1:1", 0x4ba9822483e636c0),
    (16, "BW", false, 853.0, "1:2,2:29,1:1", 0xf0355da68999be05),
    (16, "BW", true, 853.0, "1:2,2:29,1:1", 0xf0355da68999be05),
    (32, "AND", false, 3170.0, "1:2,2:61", 0x829c0c35c4c032bb),
    (32, "AND", true, 3170.0, "1:2,2:61", 0x829c0c35c4c032bb),
    (32, "MBE", false, 1853.0, "2:1,1:2,2:61", 0xd479242155cc5025),
    (32, "MBE", true, 1853.0, "2:1,1:2,2:61", 0xd479242155cc5025),
    (32, "MBE8", false, 1409.0, "2:1,1:3,2:60,1:1", 0x4314dcaab9b84123),
    (32, "MBE8", true, 1409.0, "2:1,1:3,2:60,1:1", 0x4314dcaab9b84123),
    (32, "BW", false, 3173.0, "1:2,2:61,1:1", 0x92aab4d73693ab83),
    (32, "BW", true, 3173.0, "1:2,2:61,1:1", 0x92aab4d73693ab83),
    (62, "AND", false, 11646.0, "1:2,2:121", 0x70819cc88146547b),
    (62, "AND", true, 11646.0, "1:2,2:121", 0x70819cc88146547b),
    (62, "MBE", false, 6309.0, "2:1,1:2,2:121", 0x29fb94286035438a),
    (62, "MBE", true, 6309.0, "2:1,1:2,2:121", 0x29fb94286035438a),
    (62, "MBE8", false, 4525.0, "2:1,1:3,2:120,1:1", 0xc7912f469a6f2243),
    (62, "MBE8", true, 4525.0, "2:1,1:3,2:120,1:1", 0xc7912f469a6f2243),
    (62, "BW", false, 11649.0, "1:2,2:121,1:1", 0xc51e1727a1e09c00),
    (62, "BW", true, 11649.0, "1:2,2:121,1:1", 0xc51e1727a1e09c00),
    (63, "AND", false, 12021.0, "1:2,2:123", 0xf30af97cd050b69c),
    (63, "AND", true, 12021.0, "1:2,2:123", 0xf30af97cd050b69c),
    (63, "MBE8", false, 4596.0, "2:1,1:3,2:122,1:1", 0xceb8f86a345ee683),
    (63, "MBE8", true, 4596.0, "2:1,1:3,2:122,1:1", 0xceb8f86a345ee683),
    (63, "BW", false, 12024.0, "1:2,2:123,1:1", 0xcc66f9d207148963),
    (63, "BW", true, 12024.0, "1:2,2:123,1:1", 0xcc66f9d207148963),
    (64, "AND", false, 12402.0, "1:2,2:125", 0xf212ce1edf9c6d81),
    (64, "AND", true, 12402.0, "1:2,2:125", 0xf212ce1edf9c6d81),
    (64, "MBE", false, 6701.0, "2:1,1:2,2:125", 0x3ab5aee67320598d),
    (64, "MBE", true, 6701.0, "2:1,1:2,2:125", 0x3ab5aee67320598d),
    (64, "MBE8", false, 4860.0, "2:1,1:3,2:124,1:1", 0xc5e81328bc269645),
    (64, "MBE8", true, 4860.0, "2:1,1:3,2:124,1:1", 0xc5e81328bc269645),
    (64, "BW", false, 12405.0, "1:2,2:125,1:1", 0x4cbf24876db7e4df),
    (64, "BW", true, 12405.0, "1:2,2:125,1:1", 0x4cbf24876db7e4df),
];

/// The partial-product heights of an `m × m` multiplier with `ppg`.
fn v0(m: usize, ppg: PpgKind) -> Bcv {
    let mut nl = Netlist::new("roster");
    let a = nl.add_input("a", m);
    let b = nl.add_input("b", m);
    let pp = match ppg {
        PpgKind::And => and_ppg(&mut nl, &a, &b),
        PpgKind::Booth4 => booth4_ppg(&mut nl, &a, &b),
        PpgKind::Booth8 => booth8_ppg(&mut nl, &a, &b),
        PpgKind::BaughWooley => baugh_wooley_ppg(&mut nl, &a, &b),
    };
    pp.heights()
}

/// `V_s` as `value:run` pairs, LSB first (e.g. `1:3,2:120,1:1`).
fn run_length(counts: &[u32]) -> String {
    let mut runs: Vec<(u32, usize)> = Vec::new();
    for &c in counts {
        match runs.last_mut() {
            Some((v, n)) if *v == c => *n += 1,
            _ => runs.push((c, 1)),
        }
    }
    runs.iter()
        .map(|(v, n)| format!("{v}:{n}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// 64-bit FNV-1a, fed one word at a time.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn tree(&mut self, t: &PrefixTree) {
        match t {
            PrefixTree::Leaf { col } => {
                self.word(0);
                self.word(*col as u64);
            }
            PrefixTree::Node { hi, lo } => {
                self.word(1);
                self.tree(hi);
                self.tree(lo);
            }
        }
    }
}

/// Digest of the schedule (stage by stage, column by column) and the tree.
fn digest(sol: &GlobalSolution) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(sol.schedule.stages.len() as u64);
    for stage in &sol.schedule.stages {
        h.word(stage.full.len() as u64);
        for (&f, &a) in stage.full.iter().zip(&stage.half) {
            h.word(u64::from(f));
            h.word(u64::from(a));
        }
    }
    h.tree(&sol.tree);
    h.0
}

fn measure() -> Vec<Row> {
    let cfg = GomilConfig::default();
    let mut rows = Vec::new();
    for m in WIDTHS {
        let hint = WarmStartHint::from_solution(&target_search(&v0(m - 1, PpgKind::And), &cfg));
        for ppg in PpgKind::all() {
            if ppg == PpgKind::Booth4 && !m.is_multiple_of(2) {
                continue; // radix-4 Booth supports even widths only
            }
            let v = v0(m, ppg);
            for h in [None, Some(&hint)] {
                let sol = target_search_hinted(&v, &cfg, &Budget::unlimited(), h)
                    .expect("an unlimited budget cannot expire");
                rows.push((
                    m,
                    ppg.label(),
                    h.is_some(),
                    sol.objective,
                    run_length(sol.vs.counts()),
                    digest(&sol),
                ));
            }
        }
    }
    rows
}

#[test]
fn target_search_designs_match_the_pinned_roster() {
    let measured = measure();
    let table: String = measured
        .iter()
        .map(|(m, ppg, hinted, obj, vs, d)| {
            format!("    ({m}, {ppg:?}, {hinted}, {obj:?}, {vs:?}, {d:#018x}),\n")
        })
        .collect();
    let golden: Vec<Row> = GOLDEN
        .iter()
        .map(|&(m, ppg, hinted, obj, vs, d)| (m, ppg, hinted, obj, vs.to_string(), d))
        .collect();
    assert!(
        measured == golden,
        "target search roster changed; measured table:\n{table}"
    );
}
