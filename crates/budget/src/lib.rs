//! Shared wall-clock budget and cooperative cancellation.
//!
//! A [`Budget`] couples an optional deadline ([`Instant`]) with an atomic
//! cancel flag shared by every clone. One budget created at the pipeline
//! boundary is threaded through presolve, the simplex pivot loop,
//! branch-and-bound, the `target_search` hill-climb and the prefix DP, so
//! a single wall-clock figure bounds end-to-end latency: any long-running
//! loop calls [`Budget::check`] periodically and unwinds with a typed
//! [`BudgetExceeded`] reason when the deadline passes or a cooperating
//! thread calls [`Budget::cancel`].
//!
//! Budgets are cheap to clone (an `Option<Instant>` plus an
//! `Arc<AtomicBool>`); clones share the cancel flag, so cancelling one
//! cancels all. [`Budget::unlimited`] is the no-op default used when a
//! caller does not care about latency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted computation had to stop early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed.
    Deadline,
    /// [`Budget::cancel`] was called on this budget or a clone of it.
    Cancelled,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetExceeded::Deadline => write!(f, "wall-clock budget exhausted"),
            BudgetExceeded::Cancelled => write!(f, "computation cancelled"),
        }
    }
}

impl std::error::Error for BudgetExceeded {}

/// A wall-clock deadline plus a shared cancellation flag.
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Option<Instant>,
    cancelled: Arc<AtomicBool>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget that never expires (cancellation still works).
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A budget expiring `limit` from now.
    pub fn with_limit(limit: Duration) -> Self {
        Budget {
            deadline: Instant::now().checked_add(limit),
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A budget expiring at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A child budget sharing this budget's cancel flag, expiring at the
    /// *earlier* of the parent deadline and `limit` from now. Used to give
    /// one pipeline stage a slice of the remaining wall clock.
    pub fn child_with_limit(&self, limit: Duration) -> Self {
        let local = Instant::now().checked_add(limit);
        let deadline = match (self.deadline, local) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Budget {
            deadline,
            cancelled: Arc::clone(&self.cancelled),
        }
    }

    /// The deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Remaining wall-clock time: `None` for an unlimited budget,
    /// `Some(ZERO)` once expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the deadline has passed or the budget was cancelled.
    pub fn exhausted(&self) -> bool {
        self.check().is_err()
    }

    /// `Ok(())` while the computation may continue, otherwise the typed
    /// reason it must stop. Long loops call this periodically.
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(BudgetExceeded::Cancelled);
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(BudgetExceeded::Deadline),
            _ => Ok(()),
        }
    }

    /// Cooperatively cancels this budget and every clone sharing its flag.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](Budget::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Parses a client-supplied per-request deadline expressed in whole
/// milliseconds (the value of an HTTP `X-Gomil-Deadline-Ms` header or a
/// `budget_ms` body field) into a [`Duration`].
///
/// The format is deliberately strict — an optional surrounding-whitespace
/// trim, then nothing but ASCII digits — because the value arrives from
/// the network: `None` means "malformed, reject the request", never
/// "treat as unlimited". Values above [`MAX_DEADLINE_MS`] also come back
/// as `None` so a client cannot pin a worker thread for a week by asking
/// politely.
pub fn parse_deadline_ms(value: &str) -> Option<Duration> {
    let trimmed = value.trim();
    if trimmed.is_empty() || !trimmed.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let ms: u64 = trimmed.parse().ok()?;
    if ms > MAX_DEADLINE_MS {
        return None;
    }
    Some(Duration::from_millis(ms))
}

/// Upper bound accepted by [`parse_deadline_ms`]: one hour, far above any
/// sane solve request but low enough that a parsed deadline can always be
/// added to `Instant::now()` without overflow games.
pub const MAX_DEADLINE_MS: u64 = 3_600_000;

/// Amortizes [`Budget::check`] for very hot loops.
///
/// `Budget::check` reads the clock on every call; inner loops that run
/// millions of times only need deadline resolution of "soon", not "this
/// iteration". A checker samples
/// the real budget every `period`-th call and answers from the cached
/// verdict in between. Once the budget is exceeded the verdict is sticky:
/// every subsequent call fails immediately without touching the clock.
#[derive(Debug, Clone)]
pub struct BudgetChecker {
    budget: Budget,
    period: u32,
    calls: u32,
    tripped: Option<BudgetExceeded>,
}

impl BudgetChecker {
    /// Wraps `budget`, consulting it every `period` calls (`period` is
    /// clamped to at least 1).
    pub fn new(budget: Budget, period: u32) -> Self {
        BudgetChecker {
            budget,
            period: period.max(1),
            calls: 0,
            tripped: None,
        }
    }

    /// Amortized [`Budget::check`]: the first call and every `period`-th
    /// call after it consult the real budget; the rest return the cached
    /// verdict.
    pub fn check(&mut self) -> Result<(), BudgetExceeded> {
        if let Some(why) = self.tripped {
            return Err(why);
        }
        let sample = self.calls == 0;
        self.calls = (self.calls + 1) % self.period;
        if sample {
            if let Err(why) = self.budget.check() {
                self.tripped = Some(why);
                return Err(why);
            }
        }
        Ok(())
    }

    /// The wrapped budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let b = Budget::unlimited();
        assert!(b.check().is_ok());
        assert_eq!(b.remaining(), None);
        assert!(!b.exhausted());
    }

    #[test]
    fn deadline_expires() {
        let b = Budget::with_limit(Duration::ZERO);
        assert_eq!(b.check(), Err(BudgetExceeded::Deadline));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let a = Budget::unlimited();
        let b = a.clone();
        b.cancel();
        assert_eq!(a.check(), Err(BudgetExceeded::Cancelled));
        assert!(a.is_cancelled());
    }

    #[test]
    fn child_takes_earlier_deadline() {
        let parent = Budget::with_limit(Duration::from_secs(3600));
        let child = parent.child_with_limit(Duration::ZERO);
        assert!(child.exhausted());
        assert!(!parent.exhausted());
        child.cancel();
        assert_eq!(parent.check(), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn child_of_unlimited_gets_local_deadline() {
        let parent = Budget::unlimited();
        let child = parent.child_with_limit(Duration::ZERO);
        assert!(child.exhausted());
        assert!(child.deadline().is_some());
    }

    #[test]
    fn checker_samples_on_schedule_and_trips_sticky() {
        let budget = Budget::unlimited();
        let mut c = BudgetChecker::new(budget.clone(), 4);
        assert!(c.check().is_ok()); // call 0: samples, ok
        budget.cancel();
        // Calls 1–3 run off the cached verdict and must still pass.
        for _ in 0..3 {
            assert!(c.check().is_ok());
        }
        // Call 4 samples again and trips.
        assert_eq!(c.check(), Err(BudgetExceeded::Cancelled));
        // Tripped verdict is sticky regardless of phase.
        assert_eq!(c.check(), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn deadline_header_parses_strict_millisecond_integers() {
        assert_eq!(parse_deadline_ms("250"), Some(Duration::from_millis(250)));
        assert_eq!(parse_deadline_ms(" 42 "), Some(Duration::from_millis(42)));
        assert_eq!(parse_deadline_ms("0"), Some(Duration::ZERO));
        assert_eq!(
            parse_deadline_ms(&MAX_DEADLINE_MS.to_string()),
            Some(Duration::from_millis(MAX_DEADLINE_MS))
        );
    }

    #[test]
    fn deadline_header_rejects_malformed_and_oversized_values() {
        for bad in [
            "",
            " ",
            "-5",
            "+5",
            "1.5",
            "1e3",
            "12ms",
            "0x10",
            "9999999999999999999999999",
        ] {
            assert_eq!(parse_deadline_ms(bad), None, "{bad:?} must be rejected");
        }
        assert_eq!(parse_deadline_ms(&(MAX_DEADLINE_MS + 1).to_string()), None);
    }

    #[test]
    fn checker_period_is_clamped_to_one() {
        let budget = Budget::with_limit(Duration::ZERO);
        let mut c = BudgetChecker::new(budget, 0);
        assert_eq!(c.check(), Err(BudgetExceeded::Deadline));
    }
}
