//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public entry points. Nothing inside the program is
//! instrumented; a span covers exactly one call (or one short sequence of
//! calls that belongs to one layer).

use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub dur: Duration,
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    open: Vec<usize>,
    off: bool,
}

impl Trace {
    /// A trace that records nothing: `span` only runs its closure. Timing
    /// a composition through it and through a recording trace gives the
    /// spans' own cost.
    pub fn off() -> Trace {
        Trace {
            off: true,
            ..Trace::default()
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        if self.off {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            dur: Duration::ZERO,
        });
        self.open.push(idx);
        let t0 = Instant::now();
        let out = f(self);
        self.spans[idx].dur = t0.elapsed();
        self.open.pop();
        out
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .sum()
    }

    /// Time no span accounts for, in milliseconds: the summed self time
    /// (duration minus the children's durations) of every span that has
    /// children.
    pub fn gap_ms(&self) -> f64 {
        let mut child = vec![None::<Duration>; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child[p].get_or_insert(Duration::ZERO) += s.dur;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .filter_map(|(s, c)| Some(s.dur.saturating_sub(c?).as_secs_f64() * 1e3))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_counts_parents_only() {
        let mut tr = Trace::default();
        tr.span("root", |tr| {
            tr.span("a", |_| std::thread::sleep(Duration::from_millis(5)));
            std::thread::sleep(Duration::from_millis(5));
            tr.span("b", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        assert_eq!(tr.count("a"), 1);
        assert!(tr.total_ms("root") >= tr.total_ms("a") + tr.total_ms("b"));
        assert!(tr.gap_ms() >= 5.0 && tr.gap_ms() < tr.total_ms("a") + tr.total_ms("b"));
        assert_eq!(tr.spans[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Trace::off();
        assert_eq!(tr.span("root", |tr| tr.span("a", |_| 7)), 7);
        assert!(tr.spans.is_empty());
    }
}
