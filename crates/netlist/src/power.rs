//! Switching-activity power estimation.
//!
//! Dynamic power in CMOS is `P ∝ Σ_net activity(net) · C_load(net)`. We
//! estimate the activity of every net by simulating a stream of random
//! input vectors and counting toggles between consecutive vectors, and the
//! load as the summed input-pin capacitance of the gates the net drives
//! (plus a wire constant). This plays the role of the paper's PrimeTime
//! power measurement at a fixed operating frequency — relative numbers
//! across designs are what matter.

use crate::gate::{SPAN_WIRE_LOAD, WIRE_LOAD};
use crate::netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Power estimation report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEstimate {
    /// Relative dynamic power (activity-weighted capacitance per vector).
    pub dynamic: f64,
    /// Relative leakage proxy (proportional to area).
    pub leakage: f64,
}

impl PowerEstimate {
    /// Total relative power.
    pub fn total(&self) -> f64 {
        self.dynamic + self.leakage
    }
}

impl Netlist {
    /// Estimates switching power from `num_vectors` random input vectors
    /// (deterministic for a given `seed`).
    ///
    /// # Panics
    ///
    /// Panics if `num_vectors` is zero.
    pub fn estimate_power(&self, num_vectors: usize, seed: u64) -> PowerEstimate {
        assert!(num_vectors > 0, "need at least one vector");
        let mut rng = StdRng::seed_from_u64(seed);

        // Load per net = wire constant + Σ input-pin caps of readers.
        let mut load = vec![WIRE_LOAD; self.num_nets()];
        for cell in self.cells() {
            for i in 0..cell.kind.arity() {
                load[cell.inputs[i].index()] +=
                    cell.kind.input_load() + SPAN_WIRE_LOAD * (cell.spans[i] - 1.0);
            }
        }

        // Simulate in 64-lane batches; lanes are consecutive random vectors,
        // so toggles are counted between adjacent lanes (and across batch
        // boundaries via the carried last lane).
        let mut toggle_weight = 0.0f64;
        let mut transitions = 0usize;
        let mut prev_last: Option<Vec<u64>> = None; // last lane value per net (0/1 in bit 0)
        let mut remaining = num_vectors;
        while remaining > 0 {
            let lanes = remaining.min(64);
            let words: Vec<Vec<u64>> = self
                .inputs()
                .iter()
                .map(|p| p.bits.iter().map(|_| rng.gen::<u64>()).collect())
                .collect();
            let sim = self.simulate(&words);
            let vals = sim.all();
            // Toggles between adjacent lanes: x ^ (x >> 1) over lanes-1 bits.
            let mask = if lanes >= 64 {
                !0u64 >> 1
            } else {
                (1u64 << (lanes - 1)) - 1
            };
            for (net, &w) in vals.iter().enumerate() {
                let t = ((w ^ (w >> 1)) & mask).count_ones() as f64;
                toggle_weight += t * load[net];
            }
            transitions += lanes - 1;
            // Boundary between batches.
            if let Some(prev) = &prev_last {
                for (net, &w) in vals.iter().enumerate() {
                    if (w & 1) != (prev[net] & 1) {
                        toggle_weight += load[net];
                    }
                }
                transitions += 1;
            }
            prev_last = Some(vals.iter().map(|&w| (w >> (lanes - 1)) & 1).collect());
            remaining -= lanes;
        }

        let dynamic = if transitions == 0 {
            0.0
        } else {
            toggle_weight / transitions as f64
        };
        PowerEstimate {
            dynamic,
            leakage: 0.002 * self.area(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_chain(width: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a", width);
        let mut acc = a[0];
        for &bit in &a[1..] {
            acc = n.xor(acc, bit);
        }
        n.add_output("o", vec![acc]);
        n
    }

    #[test]
    fn power_is_deterministic_for_a_seed() {
        let n = xor_chain(8);
        let p1 = n.estimate_power(200, 3);
        let p2 = n.estimate_power(200, 3);
        assert_eq!(p1, p2);
    }

    #[test]
    fn bigger_circuits_burn_more_power() {
        let small = xor_chain(4).estimate_power(500, 1).total();
        let big = xor_chain(32).estimate_power(500, 1).total();
        assert!(big > 2.0 * small, "small={small} big={big}");
    }

    #[test]
    fn constant_circuit_has_no_dynamic_power() {
        let mut n = Netlist::new("c");
        let _a = n.add_input("a", 1);
        let c = n.const1();
        let c2 = n.not(c);
        n.add_output("o", vec![c2]);
        let p = n.estimate_power(300, 9);
        // Input net toggles but drives nothing; internal nets never toggle.
        // Wire load on the toggling input is the only dynamic contribution.
        assert!(p.dynamic <= 0.55, "dynamic={}", p.dynamic);
    }

    #[test]
    fn batching_matches_across_boundary_sizes() {
        // 64 vs 65 vectors should give similar (not wildly different) power.
        let n = xor_chain(8);
        let p64 = n.estimate_power(64, 5).dynamic;
        let p200 = n.estimate_power(200, 5).dynamic;
        assert!((p64 - p200).abs() / p200 < 0.35, "p64={p64} p200={p200}");
    }
}
