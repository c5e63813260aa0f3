//! The cacheable result of one solve.

use gomil_arith::PpgKind;
use gomil_netlist::{DesignMetrics, VerdictTier};
use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

/// Declares [`SolveCounters`] from one list of `name: "help"` pairs. The
/// list is the only place a counter is declared: the struct, the by-name
/// iterator and setter, and `absorb` are all generated from it, and every
/// consumer (persisted line, JSON reply, service totals, `/metrics`)
/// iterates it.
macro_rules! solve_counters {
    ($($name:ident: $help:literal,)*) => {
        /// The per-solve effort counters a [`ServeOutcome`] carries: zero
        /// for work the solve did not do (no branch-and-bound counters
        /// when the joint ILP did not run, whichever rung won; no vectors
        /// for a skipped verdict).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SolveCounters {
            $(#[doc = $help] pub $name: u64,)*
        }

        impl SolveCounters {
            /// `(name, help, value)` of every counter, in declaration order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> {
                [$((stringify!($name), $help, self.$name)),*].into_iter()
            }

            /// Sets the counter called `name`; `false` when there is none.
            pub fn set(&mut self, name: &str, value: u64) -> bool {
                match name {
                    $(stringify!($name) => self.$name = value,)*
                    _ => return false,
                }
                true
            }

            /// Adds every counter of `other` into `self`.
            pub fn absorb(&mut self, other: &SolveCounters) {
                $(self.$name += other.$name;)*
            }
        }
    };
}

solve_counters! {
    solver_nodes: "Branch-and-bound nodes explored.",
    solver_lp_iters: "Simplex iterations spent.",
    solver_warm_attempts: "Warm restarts attempted (nodes that carried a parent basis).",
    solver_warm_hits: "Warm restarts that reoptimized without a from-scratch fallback.",
    solver_refactors: "Basis refactorizations (eta-file rebuilds).",
    verify_vectors: "Operand pairs the equivalence verifier simulated.",
    verify_us: "Equivalence verification wall-clock in microseconds.",
    root_us: "Root-stage wall-clock in microseconds (build, presolve, root LP, cuts).",
    root_lp_iters: "Simplex iterations of the root LP alone.",
    cuts_added: "Cutting planes appended at the root.",
}

/// Figures derived from the counters.
impl SolveCounters {
    /// Average simplex pivots per branch-and-bound node.
    pub fn pivots_per_node(&self) -> f64 {
        self.solver_lp_iters as f64 / self.solver_nodes.max(1) as f64
    }

    /// Share of warm-restart attempts that hit (0 when none was made).
    pub fn warm_hit_rate(&self) -> f64 {
        if self.solver_warm_attempts == 0 {
            0.0
        } else {
            self.solver_warm_hits as f64 / self.solver_warm_attempts as f64
        }
    }

    /// The equivalence check's wall-clock, the service's `verify` latency
    /// sample (`None` when no check ran).
    pub fn verify_time(&self) -> Option<Duration> {
        (self.verify_us > 0).then(|| Duration::from_micros(self.verify_us))
    }
}

/// Everything the service returns (and persists) for one request: the
/// measured quality-of-results plus the optimizer provenance.
///
/// Deliberately *flat* — no netlist — so an entry costs a few hundred
/// bytes in memory and one line on disk; callers that need the gates
/// re-run `build_gomil` (the report tells them the exact strategy and
/// objective they will get).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Design name (e.g. `GOMIL-AND-16`).
    pub name: String,
    /// Word length.
    pub m: usize,
    /// Partial product generator.
    pub ppg: PpgKind,
    /// Measured area/delay/power.
    pub metrics: DesignMetrics,
    /// Logic gate count.
    pub gates: usize,
    /// Whether functional verification passed.
    pub verified: bool,
    /// Winning optimizer rung (a `Rung::label` string).
    pub strategy: String,
    /// Combined objective `ct_cost + prefix_cost` of the winning solution.
    pub objective: f64,
    /// Whether the degradation ladder absorbed a failure or was shaped by
    /// budget expiry. Degraded outcomes are served but never cached.
    pub degraded: bool,
    /// Final BCV column counts (LSB first, entries 1 or 2) — the incumbent
    /// profile offered to neighbor requests as a warm start.
    pub vs_counts: Vec<u32>,
    /// Relative optimality gap of the served design: the joint ILP's final
    /// MIP gap when that ILP's design won with the full Eq. 27 objective
    /// (0 for a proved optimum), and *infinite* for every other design,
    /// which no solver bounded. The wire format carries an infinite gap
    /// as the explicit sentinel `inf`, distinguishable from both 0 and a
    /// missing field.
    pub solver_gap: f64,
    /// Equivalence-verdict tier of the emitted netlist.
    pub verdict: VerdictTier,
    /// Incumbent-improvement timeline of the served design, under the
    /// same rule as [`solver_gap`](Self::solver_gap): one `(microseconds
    /// from solve start, objective)` pair per admitted improvement of the
    /// joint ILP's incumbent, in admission order, when that ILP's design
    /// won with the full Eq. 27 objective, and empty otherwise. This is
    /// what `POST /solve?stream=1` replays as chunked progress events.
    pub improvements: Vec<(u64, f64)>,
    /// The solve's effort counters.
    pub counters: SolveCounters,
}

/// Positional fields of a [`ServeOutcome::to_line`] record; the counters
/// follow as `name=value` fields.
const LINE_FIELDS: usize = 15;

impl ServeOutcome {
    /// Serializes to one tab-separated line: the fifteen positional fields
    /// in struct order (the metrics as three), then one `name=value` field
    /// per counter. Floats use Rust's shortest-roundtrip formatting, so
    /// [`from_line`](Self::from_line) reproduces them bit-exactly.
    pub fn to_line(&self) -> String {
        let counts: Vec<String> = self.vs_counts.iter().map(u32::to_string).collect();
        let improvements: Vec<String> = self
            .improvements
            .iter()
            .map(|(at_us, obj)| format!("{at_us}:{obj}"))
            .collect();
        let mut line = format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.name.replace(['\t', '\n'], " "),
            self.m,
            self.ppg.label(),
            self.metrics.area,
            self.metrics.delay,
            self.metrics.power,
            self.gates,
            self.verified,
            self.strategy,
            self.objective,
            self.degraded,
            counts.join(","),
            self.solver_gap,
            self.verdict.label(),
            improvements.join(","),
        );
        for (name, _, value) in self.counters.iter() {
            let _ = write!(line, "\t{name}={value}");
        }
        line
    }

    /// Parses a [`to_line`](Self::to_line) record; `None` on any malformed
    /// field (a corrupted persisted entry is skipped, not fatal). Counters
    /// are filled by name: a counter the line does not carry stays 0, and
    /// an unknown name or a malformed value rejects the line.
    pub fn from_line(line: &str) -> Option<ServeOutcome> {
        let f: Vec<&str> = line.split('\t').collect();
        let (f, pairs) = f.split_at_checked(LINE_FIELDS)?;
        let vs_counts = if f[11].is_empty() {
            Vec::new()
        } else {
            f[11]
                .split(',')
                .map(|c| c.parse::<u32>().ok())
                .collect::<Option<Vec<u32>>>()?
        };
        let improvements = if f[14].is_empty() {
            Vec::new()
        } else {
            f[14]
                .split(',')
                .map(|pair| {
                    let (at_us, obj) = pair.split_once(':')?;
                    Some((at_us.parse::<u64>().ok()?, obj.parse::<f64>().ok()?))
                })
                .collect::<Option<Vec<(u64, f64)>>>()?
        };
        let mut counters = SolveCounters::default();
        for pair in pairs {
            let (name, value) = pair.split_once('=')?;
            if !counters.set(name, value.parse().ok()?) {
                return None;
            }
        }
        Some(ServeOutcome {
            name: f[0].to_string(),
            m: f[1].parse().ok()?,
            ppg: PpgKind::from_name(f[2])?,
            metrics: DesignMetrics {
                area: f[3].parse().ok()?,
                delay: f[4].parse().ok()?,
                power: f[5].parse().ok()?,
            },
            gates: f[6].parse().ok()?,
            verified: f[7].parse().ok()?,
            strategy: f[8].to_string(),
            objective: f[9].parse().ok()?,
            degraded: f[10].parse().ok()?,
            vs_counts,
            solver_gap: f[12].parse().ok()?,
            verdict: VerdictTier::from_label(f[13])?,
            counters,
            improvements,
        })
    }

    /// Serializes to a JSON object — the body of the HTTP service's
    /// `POST /solve` and `GET /design/{fingerprint}` replies. Each counter
    /// is a top-level `"name":value` member.
    ///
    /// Hand-rolled (the workspace runs offline with no `serde_json`):
    /// strings are escaped per RFC 8259, and non-finite floats — which
    /// JSON cannot represent as numbers — are emitted as the same quoted
    /// sentinels the TSV wire format uses (`"inf"`, `"-inf"`, `"NaN"`),
    /// so a root-only solve's infinite gap survives the trip.
    pub fn to_json(&self) -> String {
        let counts: Vec<String> = self.vs_counts.iter().map(u32::to_string).collect();
        let improvements: Vec<String> = self
            .improvements
            .iter()
            .map(|(at_us, obj)| format!("{{\"at_us\":{at_us},\"objective\":{}}}", json_f64(*obj)))
            .collect();
        let mut json = format!(
            "{{\"name\":{},\"m\":{},\"ppg\":{},\"area\":{},\"delay\":{},\"power\":{},\
             \"gates\":{},\"verified\":{},\"strategy\":{},\"objective\":{},\"degraded\":{},\
             \"vs_counts\":[{}],\"solver_gap\":{},\"verdict\":{},",
            json_string(&self.name),
            self.m,
            json_string(self.ppg.label()),
            json_f64(self.metrics.area),
            json_f64(self.metrics.delay),
            json_f64(self.metrics.power),
            self.gates,
            self.verified,
            json_string(&self.strategy),
            json_f64(self.objective),
            self.degraded,
            counts.join(","),
            json_f64(self.solver_gap),
            json_string(self.verdict.label()),
        );
        for (name, _, value) in self.counters.iter() {
            let _ = write!(json, "\"{name}\":{value},");
        }
        let _ = write!(json, "\"improvements\":[{}]}}", improvements.join(","));
        json
    }
}

/// RFC 8259 string escaping (quotes included in the output).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as a JSON value: a bare number when finite (Rust's shortest
/// roundtrip formatting is valid JSON for every finite `f64`), otherwise
/// the quoted TSV sentinel.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `75.0` formats as `75`, which JSON accepts as a number.
        format!("{v}")
    } else if v.is_nan() {
        "\"NaN\"".to_string()
    } else if v > 0.0 {
        "\"inf\"".to_string()
    } else {
        "\"-inf\"".to_string()
    }
}

impl fmt::Display for ServeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} m={:<3} {} gates={} [{}{}, {}]",
            self.name,
            self.m,
            self.metrics,
            self.gates,
            self.strategy,
            if self.degraded { ", degraded" } else { "" },
            self.verdict,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeOutcome {
        ServeOutcome {
            name: "GOMIL-AND-8".into(),
            m: 8,
            ppg: PpgKind::And,
            metrics: DesignMetrics {
                area: 123.456789,
                delay: 0.1 + 0.2, // deliberately non-representable exactly
                power: 7.25,
            },
            gates: 321,
            verified: true,
            strategy: "joint-ilp".into(),
            objective: 456.125,
            degraded: false,
            vs_counts: vec![1, 2, 2, 1],
            solver_gap: 0.0625,
            verdict: VerdictTier::Proved,
            improvements: vec![(1_500, 512.5), (9_000, 456.125)],
            counters: distinct_counters(),
        }
    }

    /// Every counter set, by name, to a value no other counter has.
    fn distinct_counters() -> SolveCounters {
        let mut c = SolveCounters::default();
        for (i, (name, _, _)) in SolveCounters::default().iter().enumerate() {
            assert!(c.set(name, 40 + i as u64), "{name} is settable by name");
        }
        c
    }

    #[test]
    fn line_roundtrip_is_bit_exact() {
        let o = sample();
        let back = ServeOutcome::from_line(&o.to_line()).unwrap();
        assert_eq!(o, back);
        assert_eq!(o.metrics.delay.to_bits(), back.metrics.delay.to_bits());
        assert_eq!(o.to_line(), back.to_line());
    }

    #[test]
    fn counters_are_addressed_by_name_and_absorb() {
        let c = distinct_counters();
        let mut names = std::collections::BTreeSet::new();
        for (name, _, value) in c.iter() {
            assert!(names.insert(name), "{name} is declared once");
            assert!(value >= 40, "{name} was set by name");
        }
        let mut total = c;
        assert!(!total.set("no_such_counter", 1));
        total.absorb(&c);
        for ((name, _, once), (_, _, twice)) in c.iter().zip(total.iter()) {
            assert_eq!(twice, 2 * once, "{name} absorbs");
        }
        let c = SolveCounters {
            solver_nodes: 42,
            solver_lp_iters: 1_337,
            solver_warm_attempts: 40,
            solver_warm_hits: 36,
            ..SolveCounters::default()
        };
        assert!((c.warm_hit_rate() - 36.0 / 40.0).abs() < 1e-12);
        assert!((c.pivots_per_node() - 1_337.0 / 42.0).abs() < 1e-12);
        assert_eq!(SolveCounters::default().warm_hit_rate(), 0.0);
        assert_eq!(SolveCounters::default().verify_time(), None);
    }

    #[test]
    fn lines_carry_every_counter_and_the_incumbent_timeline() {
        let line = sample().to_line();
        for (name, _, value) in sample().counters.iter() {
            assert!(
                line.contains(&format!("\t{name}={value}")),
                "{name} in {line}"
            );
        }
        let back = ServeOutcome::from_line(&line).unwrap();
        assert_eq!(back.verdict, VerdictTier::Proved);
        assert_eq!(back.improvements, vec![(1_500, 512.5), (9_000, 456.125)]);
        // An empty timeline roundtrips as an empty field, not a parse error.
        let mut o = sample();
        o.improvements.clear();
        let back = ServeOutcome::from_line(&o.to_line()).unwrap();
        assert!(back.improvements.is_empty());
        assert_eq!(o, back);
    }

    #[test]
    fn json_rendering_is_parseable_and_complete() {
        let mut o = sample();
        o.name = "GOMIL \"quoted\"\t8".into();
        o.solver_gap = f64::INFINITY;
        let json = o.to_json();
        // Structural sanity a real JSON parser would enforce: balanced
        // braces/brackets, escaped quotes, sentinel for the infinite gap.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"name\":\"GOMIL \\\"quoted\\\"\\t8\""));
        assert!(json.contains("\"solver_gap\":\"inf\""));
        assert!(json.contains("\"verdict\":\"proved\""));
        assert!(json.contains("\"improvements\":[{\"at_us\":1500,\"objective\":512.5}"));
        assert!(json.contains("\"vs_counts\":[1,2,2,1]"));
        for (name, _, value) in o.counters.iter() {
            assert!(
                json.contains(&format!("\"{name}\":{value},")),
                "{name} in {json}"
            );
        }
        assert!(!json.contains('\n'), "JSON body must be single-line");
    }

    #[test]
    fn infinite_gap_roundtrips_as_an_explicit_sentinel() {
        // A root-only solve has no dual bound, so its gap is infinite.
        // The wire format must carry that as a real sentinel (`inf`),
        // not collapse it to something indistinguishable from a missing
        // or zero field.
        let mut o = sample();
        o.solver_gap = f64::INFINITY;
        let line = o.to_line();
        assert!(
            line.split('\t').nth(12) == Some("inf"),
            "gap field must be the explicit sentinel, got {:?}",
            line.split('\t').nth(12)
        );
        let back = ServeOutcome::from_line(&line).unwrap();
        assert!(back.solver_gap.is_infinite() && back.solver_gap > 0.0);
        assert_eq!(o, back);
        assert_eq!(line, back.to_line());
    }

    #[test]
    fn malformed_lines_are_rejected_not_fatal() {
        assert!(ServeOutcome::from_line("garbage").is_none());
        assert!(ServeOutcome::from_line("").is_none());
        let line = sample().to_line();
        let mut truncated = line.clone();
        truncated.truncate(truncated.len() / 2);
        assert!(ServeOutcome::from_line(&truncated).is_none());
        // Fewer than the positional fields is no record.
        let head: Vec<&str> = line.split('\t').take(LINE_FIELDS - 1).collect();
        assert!(ServeOutcome::from_line(&head.join("\t")).is_none());
        // An unknown counter, a counter without a value and a malformed
        // value each reject the line.
        for bad in [
            "no_such_counter=1",
            "cuts_added",
            "cuts_added=x",
            "cuts_added=-1",
        ] {
            assert!(
                ServeOutcome::from_line(&format!("{line}\t{bad}")).is_none(),
                "counter field {bad:?} must be rejected"
            );
        }
        // A corrupted timeline field is malformed, not silently empty.
        let timeline = line.split('\t').nth(14).unwrap();
        for bad in ["garbage", "12:x", ":1.0", "5:1.0,7"] {
            let corrupt = line.replacen(&format!("\t{timeline}\t"), &format!("\t{bad}\t"), 1);
            assert_ne!(corrupt, line);
            assert!(
                ServeOutcome::from_line(&corrupt).is_none(),
                "timeline {bad:?} must be rejected"
            );
        }
        // An unknown verdict label is a malformed field, not Skipped.
        let bad = line.replace("\tproved\t", "\tmaybe\t");
        assert_ne!(bad, line);
        assert!(ServeOutcome::from_line(&bad).is_none());
    }
}
