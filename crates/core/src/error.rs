//! Typed errors for the end-to-end GOMIL flow.
//!
//! Earlier versions surfaced core failures as bare [`SolveError`]s or
//! `String`s; [`GomilError`] gives every failure mode of the pipeline a
//! typed home so callers can distinguish "your input is wrong" from "the
//! optimizer gave up" from "the constructed hardware is broken".

use gomil_budget::BudgetExceeded;
use gomil_ilp::SolveError;
use gomil_netlist::Counterexample;
use std::error::Error;
use std::fmt;

/// Details of a failed equivalence verification: which design, what went
/// wrong, and — when the failure is functional rather than structural —
/// the concrete operand pair that replays the mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationFailure {
    /// Name of the failing design.
    pub design: String,
    /// Human-readable description (includes the counterexample, if any).
    pub message: String,
    /// A replayable mismatch: feed `x`/`y` to the netlist and it produces
    /// `got` instead of `want`. `None` for structural failures.
    pub counterexample: Option<Counterexample>,
}

impl VerificationFailure {
    /// A structural failure (no single counterexample exists).
    pub fn new(design: impl Into<String>, message: impl Into<String>) -> VerificationFailure {
        VerificationFailure {
            design: design.into(),
            message: message.into(),
            counterexample: None,
        }
    }

    /// Attaches the replayable operand pair.
    pub fn with_counterexample(mut self, cex: Counterexample) -> VerificationFailure {
        self.counterexample = Some(cex);
        self
    }
}

impl fmt::Display for VerificationFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.design, self.message)
    }
}

/// Any failure of the GOMIL construction pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum GomilError {
    /// The caller's request is malformed (word length too small, odd width
    /// with a Booth PPG, over-truncation, …). These used to be panics.
    InvalidInput(String),
    /// The ILP machinery failed in a way the degradation ladder could not
    /// absorb.
    Solve(SolveError),
    /// The wall-clock budget expired before even the cheapest fallback
    /// could run.
    Budget(BudgetExceeded),
    /// A validated schedule could not be realized as gates — an internal
    /// invariant violation, never expected on release builds.
    Realization(String),
    /// Equivalence verification rejected the constructed hardware; the
    /// payload names the design and, for functional failures, carries the
    /// replayable counterexample. Boxed so the happy-path `Result` stays
    /// small — the counterexample alone is four `u128`s.
    Verification(Box<VerificationFailure>),
}

impl fmt::Display for GomilError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GomilError::InvalidInput(s) => write!(f, "invalid input: {s}"),
            GomilError::Solve(e) => write!(f, "solver failure: {e}"),
            GomilError::Budget(e) => write!(f, "pipeline budget exhausted: {e}"),
            GomilError::Realization(s) => write!(f, "schedule realization failed: {s}"),
            GomilError::Verification(s) => write!(f, "verification failed: {s}"),
        }
    }
}

impl Error for GomilError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GomilError::Solve(e) => Some(e),
            GomilError::Budget(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for GomilError {
    fn from(e: SolveError) -> GomilError {
        GomilError::Solve(e)
    }
}

impl From<BudgetExceeded> for GomilError {
    fn from(e: BudgetExceeded) -> GomilError {
        GomilError::Budget(e)
    }
}

impl From<VerificationFailure> for GomilError {
    fn from(fail: VerificationFailure) -> GomilError {
        GomilError::Verification(Box::new(fail))
    }
}

/// The message of a caught panic: its `&str` or `String` payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_prefixed_by_failure_class() {
        assert!(GomilError::InvalidInput("m = 1".into())
            .to_string()
            .starts_with("invalid input"));
        assert!(GomilError::from(SolveError::Infeasible)
            .to_string()
            .contains("infeasible"));
        assert!(
            GomilError::from(VerificationFailure::new("GOMIL-AND-4", "bad"))
                .to_string()
                .starts_with("verification failed")
        );
    }

    #[test]
    fn verification_failure_carries_a_replayable_counterexample() {
        let cex = Counterexample {
            x: 3,
            y: 5,
            got: 14,
            want: 15,
        };
        let fail =
            VerificationFailure::new("GOMIL-AND-4", cex.to_string()).with_counterexample(cex);
        let err = GomilError::from(fail);
        assert!(err.to_string().contains('×'), "{err}");
        match &err {
            GomilError::Verification(v) => {
                assert_eq!(v.counterexample, Some(cex));
                assert_eq!(v.design, "GOMIL-AND-4");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn error_is_send_sync_and_sourced() {
        fn assert_send_sync<T: Send + Sync + Error>() {}
        assert_send_sync::<GomilError>();
        let e = GomilError::from(SolveError::Unbounded);
        assert!(e.source().is_some());
    }
}
