//! Deterministic retry for transient checkpoint I/O failures.
//!
//! Real retry loops sleep between attempts; a deterministic pipeline must
//! not, because wall-clock waits are both nondeterministic and banned in
//! library crates (dlint D03). [`RetryPolicy`] therefore models capped
//! exponential backoff *symbolically*: each attempt is assigned a backoff
//! cost in abstract units (`min(2^attempt, cap)`), purely a function of the
//! attempt index, which is accounted to the `ckpt.backoff_units` counter
//! instead of being slept. The retry *decision* — re-attempt transients up
//! to a fixed budget, fail everything else immediately — is exactly what a
//! production loop would do, so fault-injection tests exercise the real
//! control flow with zero timing dependence.

use crate::fs::FsError;

/// Capped-exponential retry policy for transient I/O failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). Minimum 1.
    pub max_attempts: u32,
    /// Upper bound on the per-attempt backoff cost, in abstract units.
    pub backoff_cap_units: u64,
}

impl Default for RetryPolicy {
    /// Six attempts with backoff 1, 2, 4, 8, 8 units between them —
    /// enough to absorb a 50% transient-fault rate with high probability.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            backoff_cap_units: 8,
        }
    }
}

impl RetryPolicy {
    /// The symbolic backoff charged after failed attempt `attempt`
    /// (0-based): `min(2^attempt, cap)`. Pure in the attempt index.
    pub fn backoff_units(&self, attempt: u32) -> u64 {
        1u64.checked_shl(attempt)
            .map_or(self.backoff_cap_units, |u| u.min(self.backoff_cap_units))
    }

    /// Runs `op` until it succeeds, fails non-transiently, or the attempt
    /// budget is spent. Transient failures increment `ckpt.retries` and
    /// charge backoff units; the final error is returned annotated with
    /// the attempt count.
    pub fn run<T>(&self, mut op: impl FnMut() -> Result<T, FsError>) -> Result<T, FsError> {
        let attempts = self.max_attempts.max(1);
        let mut last: Option<FsError> = None;
        for attempt in 0..attempts {
            match op() {
                Ok(value) => return Ok(value),
                Err(e) if e.is_transient() => {
                    if dcfail_obs::enabled() {
                        dcfail_obs::add("ckpt.retries", 1);
                        dcfail_obs::add("ckpt.backoff_units", self.backoff_units(attempt));
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        let mut e = last.unwrap_or_else(|| FsError {
            kind: crate::fs::FsErrorKind::Other,
            message: "retry loop ran zero attempts".to_string(),
        });
        e.message = format!("retries exhausted after {attempts} attempts: {}", e.message);
        Err(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FsErrorKind;

    fn transient() -> FsError {
        FsError {
            kind: FsErrorKind::Transient,
            message: "injected".to_string(),
        }
    }

    #[test]
    fn backoff_is_capped_and_attempt_indexed() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_units(0), 1);
        assert_eq!(p.backoff_units(1), 2);
        assert_eq!(p.backoff_units(2), 4);
        assert_eq!(p.backoff_units(3), 8);
        assert_eq!(p.backoff_units(4), 8);
        assert_eq!(p.backoff_units(63), 8);
        assert_eq!(p.backoff_units(64), 8, "shift overflow saturates at cap");
    }

    #[test]
    fn transients_are_absorbed() {
        let mut failures = 3;
        let result = RetryPolicy::default().run(|| {
            if failures > 0 {
                failures -= 1;
                Err(transient())
            } else {
                Ok(42)
            }
        });
        assert_eq!(result.unwrap(), 42);
    }

    #[test]
    fn budget_exhaustion_reports_attempts() {
        let e = RetryPolicy::default()
            .run::<()>(|| Err(transient()))
            .unwrap_err();
        assert!(e.message.contains("retries exhausted after 6 attempts"));
    }

    #[test]
    fn non_transient_fails_immediately() {
        let mut calls = 0;
        let e = RetryPolicy::default()
            .run::<()>(|| {
                calls += 1;
                Err(FsError {
                    kind: FsErrorKind::Other,
                    message: "disk on fire".to_string(),
                })
            })
            .unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(e.kind, FsErrorKind::Other);
    }

    #[test]
    fn killed_fails_immediately() {
        let mut calls = 0;
        let e = RetryPolicy::default()
            .run::<()>(|| {
                calls += 1;
                Err(FsError {
                    kind: FsErrorKind::Killed { op: 9 },
                    message: "killed".to_string(),
                })
            })
            .unwrap_err();
        assert_eq!(calls, 1, "a dead process cannot retry");
        assert_eq!(e.kind, FsErrorKind::Killed { op: 9 });
    }

    #[test]
    fn a_zero_attempt_budget_still_tries_once() {
        let policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let e = policy
            .run::<()>(|| {
                calls += 1;
                Err(transient())
            })
            .unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(e.kind, FsErrorKind::Transient);
        assert_eq!(e.message, "retries exhausted after 1 attempts: injected");
        assert_eq!(policy.run(|| Ok(3)).unwrap(), 3);
    }
}
