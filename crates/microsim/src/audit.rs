//! The simulator correctness-audit layer.
//!
//! Every figure the repo reproduces rests on the emulator faithfully
//! conserving work: requests must never be silently created or lost, pool
//! populations must obey their algebra through arbitrary
//! retarget/fail/reset sequences, simulated time must be monotone, and the
//! per-window metric vectors must agree in shape. [`SimAuditor`] checks all
//! of that:
//!
//! * **debug builds** — the checks run unconditionally as `debug_assert!`s,
//!   so any violation aborts the offending test with a precise message;
//! * **release builds** — checks are off by default (zero cost) and opt-in
//!   via [`SimConfig::audit`](crate::SimConfig::audit) or the
//!   `MIRAS_AUDIT=1` environment variable. In audit mode a violation does
//!   *not* panic: it is recorded as a typed [`AuditViolation`], emitted as
//!   an `audit` telemetry event, and left for the caller to collect through
//!   [`Cluster::take_audit_violations`](crate::Cluster::take_audit_violations)
//!   (or the same-named passthroughs on `MicroserviceEnv` and the
//!   `miras-core` adapter) — so fault-injection campaigns produce
//!   diagnosable reports instead of opaque `usize`-underflow panics.
//!
//! Auditing is observation-only: it never touches an RNG and never feeds
//! anything back into the simulation, so results are bit-identical with
//! auditing on or off.

use std::fmt;

use desim::SimTime;
use serde::Serialize;
use telemetry::Telemetry;

use crate::pool::PoolDesync;

/// One detected invariant violation, with everything needed to diagnose it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum AuditViolation {
    /// A consumer pool's population counters broke their algebra
    /// (`busy ≤ active`, `pending_retire ≤ busy`,
    /// `cancel_starting ≤ starting`, no negative populations).
    Pool {
        /// Task-type index of the desynced pool (resolve to a name through
        /// the ensemble's task-type table; the violation itself stays
        /// allocation-free on the event hot path).
        task: usize,
        /// The broken relation plus the full raw counter dump.
        desync: PoolDesync,
    },
    /// Task-request conservation broke for one task type: every released
    /// request must be completed, queued, in service, or in delayed
    /// delivery.
    TaskConservation {
        /// Task-type index.
        task: usize,
        /// Requests released into the delivery system so far (cumulative).
        released: u64,
        /// Requests completed so far (cumulative).
        completed: u64,
        /// Requests currently waiting in the queue.
        queued: usize,
        /// Requests currently being processed (busy consumers).
        in_service: usize,
        /// Requests currently held up by a delivery-delay spike.
        in_delivery: usize,
    },
    /// Workflow-request conservation broke for one workflow type: every
    /// arrived request must be either completed or still in flight.
    WorkflowConservation {
        /// Workflow-type index.
        workflow: usize,
        /// Workflow requests that have arrived so far (cumulative).
        submitted: u64,
        /// Workflow requests completed so far (cumulative).
        completed: u64,
        /// Workflow requests currently in flight.
        in_flight: usize,
    },
    /// The event engine delivered an event with a timestamp earlier than a
    /// previously delivered one.
    TimeRegression {
        /// Timestamp of the out-of-order event.
        event_time: SimTime,
        /// Latest timestamp seen before it.
        previous: SimTime,
    },
    /// Two per-window metric vectors that must describe the same index space
    /// (task types or workflow types) disagree in length.
    MetricShape {
        /// Zero-based decision-window index.
        window_index: usize,
        /// Which vector has the wrong length.
        field: &'static str,
        /// The length the vector must have.
        expected: usize,
        /// The length it actually has.
        actual: usize,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::Pool { task, desync } => {
                write!(f, "pool {task}: {desync}")
            }
            AuditViolation::TaskConservation {
                task,
                released,
                completed,
                queued,
                in_service,
                in_delivery,
            } => write!(
                f,
                "task {task}: released {released} != completed {completed} + queued {queued} \
                 + in-service {in_service} + in-delivery {in_delivery}"
            ),
            AuditViolation::WorkflowConservation {
                workflow,
                submitted,
                completed,
                in_flight,
            } => write!(
                f,
                "workflow {workflow}: submitted {submitted} != completed {completed} \
                 + in-flight {in_flight}"
            ),
            AuditViolation::TimeRegression {
                event_time,
                previous,
            } => write!(
                f,
                "event time went backwards: {event_time:?} after {previous:?}"
            ),
            AuditViolation::MetricShape {
                window_index,
                field,
                expected,
                actual,
            } => write!(
                f,
                "window {window_index}: metric vector `{field}` has length {actual}, \
                 expected {expected}"
            ),
        }
    }
}

impl std::error::Error for AuditViolation {}

/// Collector for invariant violations, threaded through the cluster.
///
/// When disabled (the default in release builds) every check site reduces to
/// one branch. Violations recorded while a telemetry handle is attached are
/// also emitted as structured `audit` events so JSONL streams carry the
/// full diagnosis alongside the run they poisoned.
#[derive(Debug, Default)]
pub struct SimAuditor {
    enabled: bool,
    violations: Vec<AuditViolation>,
    last_event_time: SimTime,
    telemetry: Telemetry,
}

impl SimAuditor {
    /// Creates an auditor; `enabled` turns on runtime (release-mode)
    /// checking.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        SimAuditor {
            enabled,
            violations: Vec::new(),
            last_event_time: SimTime::ZERO,
            telemetry: Telemetry::noop(),
        }
    }

    /// Whether runtime checking is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attaches a telemetry handle for `audit` events.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Records a violation (and emits it as an `audit` telemetry event).
    pub fn record(&mut self, violation: AuditViolation) {
        self.telemetry.event_struct("audit", &violation);
        self.violations.push(violation);
    }

    /// Checks event-time monotonicity against the last event seen.
    pub fn check_event_time(&mut self, at: SimTime) {
        if at < self.last_event_time {
            let violation = AuditViolation::TimeRegression {
                event_time: at,
                previous: self.last_event_time,
            };
            debug_assert!(false, "audit violation: {violation}");
            self.record(violation);
        } else {
            self.last_event_time = at;
        }
    }

    /// Violations recorded so far.
    #[must_use]
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Removes and returns the violations recorded so far.
    pub fn take_violations(&mut self) -> Vec<AuditViolation> {
        std::mem::take(&mut self.violations)
    }
}

/// Whether the `MIRAS_AUDIT` environment variable requests runtime
/// auditing (`1`, `true`, or `on`, case-insensitive).
#[must_use]
pub fn audit_env_enabled() -> bool {
    std::env::var("MIRAS_AUDIT")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "1" || v == "true" || v == "on"
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolCounters;

    fn desync() -> PoolDesync {
        PoolDesync {
            relation: "busy <= active",
            counters: PoolCounters {
                active: 1,
                busy: 2,
                starting: 0,
                cancel_starting: 0,
                pending_retire: 0,
            },
        }
    }

    #[test]
    fn violations_accumulate_and_drain() {
        let mut auditor = SimAuditor::new(true);
        assert!(auditor.is_enabled());
        auditor.record(AuditViolation::Pool {
            task: 0,
            desync: desync(),
        });
        assert_eq!(auditor.violations().len(), 1);
        let taken = auditor.take_violations();
        assert_eq!(taken.len(), 1);
        assert!(auditor.violations().is_empty());
    }

    #[test]
    fn display_names_pool_and_counters() {
        let v = AuditViolation::Pool {
            task: 2,
            desync: desync(),
        };
        let text = v.to_string();
        assert!(text.contains("pool 2"), "{text}");
        assert!(text.contains("busy <= active"), "{text}");
        assert!(text.contains("busy: 2"), "{text}");
    }

    #[test]
    fn monotone_event_times_pass() {
        let mut auditor = SimAuditor::new(true);
        auditor.check_event_time(SimTime::from_secs(1));
        auditor.check_event_time(SimTime::from_secs(1));
        auditor.check_event_time(SimTime::from_secs(2));
        assert!(auditor.violations().is_empty());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn time_regression_is_recorded_in_release_audit_mode() {
        let mut auditor = SimAuditor::new(true);
        auditor.check_event_time(SimTime::from_secs(5));
        auditor.check_event_time(SimTime::from_secs(3));
        assert!(matches!(
            auditor.violations()[0],
            AuditViolation::TimeRegression { .. }
        ));
    }

    #[test]
    fn audit_events_flow_to_telemetry() {
        use telemetry::{JsonlSink, Recorder, Telemetry};
        let sink = JsonlSink::in_memory();
        let mut auditor = SimAuditor::new(true);
        auditor.set_telemetry(Telemetry::new(sink.clone()));
        auditor.record(AuditViolation::MetricShape {
            window_index: 4,
            field: "completions",
            expected: 3,
            actual: 2,
        });
        Recorder::flush(&*sink);
        let text = String::from_utf8(sink.take_output()).unwrap();
        assert!(text.contains("\"name\":\"audit\""), "{text}");
        assert!(text.contains("MetricShape"), "{text}");
    }

    #[test]
    fn env_flag_parsing() {
        // Only exercises the parser logic indirectly: unset variable.
        std::env::remove_var("MIRAS_AUDIT");
        assert!(!audit_env_enabled());
    }
}
