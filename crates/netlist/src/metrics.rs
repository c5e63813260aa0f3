//! One-stop area/delay/power evaluation.

use crate::netlist::Netlist;

/// Synthesis-style quality-of-results metrics for a netlist.
///
/// These stand in for the paper's Design Compiler / PrimeTime measurements;
/// all values are in the relative units of the gate cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignMetrics {
    /// Total cell area (NAND2 equivalents).
    pub area: f64,
    /// Critical-path delay (normalized gate delays).
    pub delay: f64,
    /// Estimated total power (relative units).
    pub power: f64,
}

impl DesignMetrics {
    /// Power-delay product — the paper's headline comparison metric.
    pub fn pdp(&self) -> f64 {
        self.power * self.delay
    }

    /// Area-delay product.
    pub fn adp(&self) -> f64 {
        self.area * self.delay
    }
}

impl std::fmt::Display for DesignMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "area={:.1} delay={:.2} power={:.2} pdp={:.2}",
            self.area,
            self.delay,
            self.power,
            self.pdp()
        )
    }
}

impl Netlist {
    /// Measures area, delay and power in one call.
    ///
    /// `power_vectors` random vectors (seeded deterministically) drive the
    /// switching-activity estimate; 512 is plenty for stable relative
    /// numbers.
    pub fn metrics(&self, power_vectors: usize) -> DesignMetrics {
        DesignMetrics {
            area: self.area(),
            delay: self.critical_delay(),
            power: self.estimate_power(power_vectors, 0xD5EED).total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_are_consistent_with_parts() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a", 4);
        let mut acc = a[0];
        for &b in &a[1..] {
            acc = n.xor(acc, b);
        }
        n.add_output("o", vec![acc]);
        let m = n.metrics(256);
        assert_eq!(m.area, n.area());
        assert_eq!(m.delay, n.critical_delay());
        assert!(m.power > 0.0);
        assert!((m.pdp() - m.power * m.delay).abs() < 1e-12);
    }
}
