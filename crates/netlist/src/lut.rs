//! K-LUT technology mapping (FPGA cost view).
//!
//! The paper's conclusions name FPGA synthesis as planned future work.
//! This module provides the measurement side of that direction: a greedy
//! level-oriented mapper that packs the gate network into K-input lookup
//! tables, reporting LUT count (FPGA area) and LUT depth (FPGA delay).
//!
//! The mapper is the classic quick estimator: walk in topological order,
//! absorbing a gate into its fanins' cone while the united support stays
//! within `k` inputs; otherwise cut the fanins into LUT roots. Primary
//! outputs always become roots. This is not FlowMap-optimal but tracks it
//! closely on arithmetic netlists and is deterministic.

use crate::gate::GateKind;
use crate::netlist::Netlist;
use std::collections::BTreeSet;

/// FPGA mapping result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LutMetrics {
    /// Number of K-input LUTs.
    pub luts: usize,
    /// LUT levels on the longest combinational path.
    pub depth: usize,
}

impl Netlist {
    /// Maps the netlist onto `k`-input LUTs and reports count and depth.
    ///
    /// # Panics
    ///
    /// Panics if `k < 3` (a 3-input gate could not fit a smaller LUT).
    pub fn map_to_luts(&self, k: usize) -> LutMetrics {
        assert!(k >= 3, "LUT width must cover the widest gate (3 inputs)");
        let n = self.num_nets();
        // Per net: the input support of its (tentative) cone, and the LUT
        // level at which the cone's root would sit.
        let mut support: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
        let mut level: Vec<usize> = vec![0; n];
        let mut is_root = vec![false; n];
        // Leaf level of a net used as a cone input.
        let leaf_level = |net: usize, is_root: &[bool], level: &[usize]| -> usize {
            if is_root[net] {
                level[net]
            } else {
                0 // primary input / constant
            }
        };

        for cell in self.cells() {
            let out = cell.output.index();
            match cell.kind {
                GateKind::Input | GateKind::Const0 | GateKind::Const1 => {
                    // Zero-cost sources; their "support" is themselves.
                    continue;
                }
                _ => {}
            }
            // Tentative absorb: union of fanin cone supports.
            let mut s: BTreeSet<u32> = BTreeSet::new();
            for i in 0..cell.kind.arity() {
                let f = cell.inputs[i].index();
                let fk = self.driver_of(cell.inputs[i]).kind;
                let is_source = matches!(fk, GateKind::Input | GateKind::Const0 | GateKind::Const1);
                if is_source || is_root[f] {
                    s.insert(f as u32);
                } else {
                    s.extend(support[f].iter().copied());
                }
            }
            if s.len() > k {
                // Cut: promote every non-source fanin to a LUT root and use
                // the fanin nets directly (≤ 3 ≤ k inputs).
                s.clear();
                for i in 0..cell.kind.arity() {
                    let f = cell.inputs[i].index();
                    let fk = self.driver_of(cell.inputs[i]).kind;
                    if !matches!(fk, GateKind::Input | GateKind::Const0 | GateKind::Const1) {
                        is_root[f] = true;
                    }
                    s.insert(f as u32);
                }
            }
            level[out] = 1 + s
                .iter()
                .map(|&leaf| leaf_level(leaf as usize, &is_root, &level))
                .max()
                .unwrap_or(0);
            support[out] = s;
        }

        // Outputs are roots.
        for p in self.outputs() {
            for &b in &p.bits {
                let kind = self.driver_of(b).kind;
                if !matches!(kind, GateKind::Input | GateKind::Const0 | GateKind::Const1) {
                    is_root[b.index()] = true;
                }
            }
        }

        let luts = is_root.iter().filter(|&&r| r).count();
        let depth = self
            .outputs()
            .iter()
            .flat_map(|p| p.bits.iter())
            .map(|b| {
                let i = b.index();
                if is_root[i] {
                    level[i]
                } else {
                    0
                }
            })
            .max()
            .unwrap_or(0);
        LutMetrics { luts, depth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_chain(width: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a", width);
        let mut acc = a[0];
        for &b in &a[1..] {
            acc = nl.xor(acc, b);
        }
        nl.add_output("o", vec![acc]);
        nl
    }

    #[test]
    fn single_gate_is_one_lut() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 2);
        let x = nl.and(a[0], a[1]);
        nl.add_output("o", vec![x]);
        assert_eq!(nl.map_to_luts(6), LutMetrics { luts: 1, depth: 1 });
    }

    #[test]
    fn xor_chain_packs_into_wide_luts() {
        // A 6-input XOR chain fits exactly one 6-LUT.
        assert_eq!(
            xor_chain(6).map_to_luts(6),
            LutMetrics { luts: 1, depth: 1 }
        );
        // 11 inputs: greedy cuts once → 2 levels, small count.
        let m = xor_chain(11).map_to_luts(6);
        assert!(m.luts <= 3, "{m:?}");
        assert_eq!(m.depth, 2);
    }

    #[test]
    fn wider_luts_never_increase_count_or_depth() {
        let nl = xor_chain(24);
        let m4 = nl.map_to_luts(4);
        let m6 = nl.map_to_luts(6);
        assert!(m6.luts <= m4.luts);
        assert!(m6.depth <= m4.depth);
    }

    #[test]
    fn full_adder_fits_two_luts() {
        // sum and carry are two 3-input functions of (a, b, cin).
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a", 3);
        let (s, c) = nl.full_adder(a[0], a[1], a[2]);
        nl.add_output("o", vec![s, c]);
        let m = nl.map_to_luts(6);
        assert_eq!(m.luts, 2, "{m:?}");
        assert_eq!(m.depth, 1);
    }

    #[test]
    fn depth_tracks_logic_depth() {
        // Two chained 6-input cones → depth 2.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 11);
        let mut acc = a[0];
        for &b in &a[1..6] {
            acc = nl.xor(acc, b);
        }
        let mid = acc; // 5-input cone
        let mut acc2 = mid;
        for &b in &a[6..11] {
            acc2 = nl.and(acc2, b);
        }
        nl.add_output("o", vec![acc2]);
        let m = nl.map_to_luts(6);
        assert_eq!(m.depth, 2, "{m:?}");
    }
}
