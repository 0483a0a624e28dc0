//! Bounded retry with exponential backoff for the serving I/O paths.
//!
//! Socket accepts, socket reads and checkpoint-watcher filesystem probes
//! all share the same discipline: a transient failure is retried a bounded
//! number of times with exponentially growing sleeps, and exhaustion
//! surfaces as a *typed* error ([`RetryExhausted`]) rather than a silent
//! hang or an untyped string. Backoff sleeps are observability-only — they
//! never appear in decision records, so retries cannot perturb the
//! byte-determinism proofs.

use std::fmt;
use std::io;
use std::time::Duration;

/// Bounded exponential backoff: `attempts` tries, sleeping
/// `base * 2^k` (capped at `max`) between consecutive tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RetryPolicy {
    /// Total attempts (>= 1); 1 means "no retry".
    pub attempts: u32,
    /// Sleep before the first retry.
    pub base: Duration,
    /// Upper bound on any single sleep.
    pub max: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(1),
            max: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `k` (0-based), exponentially doubled
    /// from `base` and capped at `max`.
    #[must_use]
    pub(crate) fn backoff(&self, k: u32) -> Duration {
        let factor = 1u32.checked_shl(k).unwrap_or(u32::MAX);
        self.base.saturating_mul(factor).min(self.max)
    }
}

/// A retried operation ran out of attempts; carries the operation label and
/// the final underlying error.
#[derive(Debug)]
pub(crate) struct RetryExhausted<E> {
    /// Stable label of the operation (`"accept"`, `"client_read"`,
    /// `"watcher_fingerprint"`).
    pub op: &'static str,
    /// How many attempts were made.
    pub attempts: u32,
    /// The error the final attempt produced.
    pub last: E,
}

impl<E: fmt::Display> fmt::Display for RetryExhausted<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failed after {} attempts: {}",
            self.op, self.attempts, self.last
        )
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for RetryExhausted<E> {}

/// Whether an I/O error is worth retrying: interruptions, timeouts, and
/// transient connection teardown seen during accept.
#[must_use]
pub(crate) fn io_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
    )
}

/// Runs `f` under `policy`, retrying while `transient(&err)` holds.
///
/// Returns the first success, the first *non-transient* error (wrapped with
/// `attempts` = tries so far), or [`RetryExhausted`] with the last transient
/// error once attempts run out. `on_retry(k)` is called before each sleep —
/// the hook the serving loop uses to count `serve.retries`.
///
/// # Errors
///
/// [`RetryExhausted`] as described above.
pub(crate) fn retry_with<T, E>(
    policy: RetryPolicy,
    op: &'static str,
    transient: impl Fn(&E) -> bool,
    mut on_retry: impl FnMut(u32),
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<T, RetryExhausted<E>> {
    let attempts = policy.attempts.max(1);
    let mut k = 0;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if k + 1 < attempts && transient(&e) => {
                on_retry(k);
                std::thread::sleep(policy.backoff(k));
                k += 1;
            }
            Err(e) => {
                return Err(RetryExhausted {
                    op,
                    attempts: k + 1,
                    last: e,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_after_transient_failures() {
        let mut calls = 0;
        let mut retries = 0;
        let result = retry_with(
            RetryPolicy {
                attempts: 5,
                base: Duration::from_micros(1),
                max: Duration::from_micros(8),
            },
            "test",
            |_: &io::Error| true,
            |_| retries += 1,
            || {
                calls += 1;
                if calls < 3 {
                    Err(io::Error::new(io::ErrorKind::TimedOut, "later"))
                } else {
                    Ok(calls)
                }
            },
        );
        assert_eq!(result.unwrap(), 3);
        assert_eq!(retries, 2);
    }

    #[test]
    fn exhaustion_is_typed_with_attempt_count() {
        let err = retry_with(
            RetryPolicy {
                attempts: 3,
                base: Duration::from_micros(1),
                max: Duration::from_micros(2),
            },
            "client_read",
            |_: &io::Error| true,
            |_| {},
            || Err::<(), _>(io::Error::new(io::ErrorKind::TimedOut, "stuck")),
        )
        .expect_err("must exhaust");
        assert_eq!(err.attempts, 3);
        assert_eq!(err.op, "client_read");
        assert!(err.to_string().contains("after 3 attempts"), "{err}");
    }

    #[test]
    fn non_transient_errors_fail_fast() {
        let mut calls = 0;
        let err = retry_with(
            RetryPolicy::default(),
            "accept",
            io_transient,
            |_| {},
            || {
                calls += 1;
                Err::<(), _>(io::Error::new(io::ErrorKind::PermissionDenied, "no"))
            },
        )
        .expect_err("must fail");
        assert_eq!(calls, 1, "non-transient error is not retried");
        assert_eq!(err.attempts, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            attempts: 10,
            base: Duration::from_millis(1),
            max: Duration::from_millis(5),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(1));
        assert_eq!(p.backoff(1), Duration::from_millis(2));
        assert_eq!(p.backoff(2), Duration::from_millis(4));
        assert_eq!(p.backoff(3), Duration::from_millis(5), "capped");
        assert_eq!(p.backoff(31), Duration::from_millis(5));
        assert_eq!(
            p.backoff(63),
            Duration::from_millis(5),
            "shift overflow safe"
        );
    }
}
