//! Admission control: a bounded inbound queue between client readers and
//! the single decision thread, with configurable load shedding.
//!
//! The serving loop stays single-threaded for decisions (that is what makes
//! hot-swap atomic and output deterministic); concurrency lives entirely on
//! the ingestion side. Every parsed observation passes through one
//! [`AdmissionQueue`]. When the queue is at `max_inflight`, the configured
//! [`ShedPolicy`] decides who loses:
//!
//! * [`ShedPolicy::Reject`] — the *new* window is refused; the client gets
//!   an immediate `status: "shed"` reply. Protects admitted work; fair
//!   under sustained overload.
//! * [`ShedPolicy::DropOldest`] — the *oldest queued* window is evicted
//!   (its client gets the shed reply) and the new one admitted. Keeps the
//!   queue fresh, which suits a control loop where a stale WIP observation
//!   is worth less than a current one.
//!
//! Either way the outcome is a typed, immediately-answered reply — never a
//! blocked client, never silent loss. The queue is a plain
//! `Mutex + Condvar` structure: outcomes are a pure function of the
//! *sequence* of push/pop operations, which is what the chaos harness's
//! determinism proof replays (see [`crate::chaos`]).

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// What to do with a window that arrives while the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Refuse the newly arrived window (default).
    #[default]
    Reject,
    /// Evict the oldest queued window and admit the new one.
    DropOldest,
}

impl fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShedPolicy::Reject => "reject",
            ShedPolicy::DropOldest => "drop-oldest",
        })
    }
}

impl FromStr for ShedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reject" => Ok(ShedPolicy::Reject),
            "drop-oldest" => Ok(ShedPolicy::DropOldest),
            other => Err(format!(
                "unknown shed policy '{other}' (reject or drop-oldest)"
            )),
        }
    }
}

/// Admission-control configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum admitted-but-undecided windows across all clients (>= 1).
    pub max_inflight: usize,
    /// What happens to the overflow.
    pub shed: ShedPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 64,
            shed: ShedPolicy::Reject,
        }
    }
}

/// What [`AdmissionQueue::push`] did with a window.
#[derive(Debug)]
pub enum PushOutcome<T> {
    /// The window was admitted; the decision thread will answer it.
    Admitted,
    /// The queue was full under [`ShedPolicy::Reject`]: the new window was
    /// refused and must get a shed reply.
    ShedNew,
    /// The queue was full under [`ShedPolicy::DropOldest`]: the new window
    /// was admitted and the returned oldest entry was evicted; *it* must
    /// get the shed reply.
    ShedOldest(T),
}

struct QueueState<T> {
    entries: VecDeque<T>,
    closed: bool,
}

/// The bounded inbound queue. `T` is the entry payload — the server and
/// the chaos harness queue an observation with its client (a writer
/// handle, or a client id).
pub struct AdmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    config: AdmissionConfig,
}

impl<T> AdmissionQueue<T> {
    /// Creates a queue; `max_inflight` is clamped to at least 1.
    #[must_use]
    pub fn new(mut config: AdmissionConfig) -> Self {
        config.max_inflight = config.max_inflight.max(1);
        AdmissionQueue {
            state: Mutex::new(QueueState {
                entries: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            config,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Offers one window. Never blocks: a full queue sheds per the policy.
    /// Pushing to a closed queue sheds the new entry (the server is
    /// draining for shutdown; late windows get a typed refusal, not
    /// silence).
    pub fn push(&self, entry: T) -> PushOutcome<T> {
        let mut state = self.lock();
        if state.closed {
            return PushOutcome::ShedNew;
        }
        if state.entries.len() < self.config.max_inflight {
            state.entries.push_back(entry);
            drop(state);
            self.ready.notify_one();
            return PushOutcome::Admitted;
        }
        match self.config.shed {
            ShedPolicy::Reject => PushOutcome::ShedNew,
            ShedPolicy::DropOldest => {
                let victim = state
                    .entries
                    .pop_front()
                    .expect("full queue has a front entry");
                state.entries.push_back(entry);
                drop(state);
                self.ready.notify_one();
                PushOutcome::ShedOldest(victim)
            }
        }
    }

    /// Blocks until an entry is available or the queue is closed *and*
    /// drained; `None` means no entry will ever come again. After close,
    /// queued entries are still handed out — graceful shutdown decides
    /// every admitted window before exit.
    pub fn pop_wait(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(entry) = state.entries.pop_front() {
                return Some(entry);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Non-blocking pop (the deterministic chaos executor's primitive).
    pub(crate) fn try_pop(&self) -> Option<T> {
        self.lock().entries.pop_front()
    }

    /// Closes the queue: future pushes shed, and poppers drain what remains
    /// then observe the end of the stream.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Admitted-but-undecided windows right now.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Shared overload/robustness counters, readable from every serving thread
/// and published into telemetry by [`crate::DecisionService::finish`].
///
/// Kept separate from the [`telemetry`] recorder so invariant checks and
/// end-of-run reports can read exact values without a scrape round-trip.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Windows refused by admission control.
    pub shed: AtomicU64,
    /// Windows answered by the fallback policy after a deadline miss.
    pub degraded: AtomicU64,
    /// Input lines rejected by the wire layer (malformed/oversized/bad
    /// dims).
    pub wire_rejected: AtomicU64,
    /// Transient-failure retries across socket and watcher I/O.
    pub retries: AtomicU64,
    /// Client connections that ended with a read/write error rather than a
    /// clean EOF.
    pub disconnects: AtomicU64,
    /// Decisions whose reply could not be delivered (client gone).
    pub dropped_replies: AtomicU64,
}

impl ServeCounters {
    /// Adds `n` to a counter and mirrors the increment into `telemetry`
    /// under `name`.
    pub(crate) fn bump(
        counter: &AtomicU64,
        n: u64,
        telemetry: &telemetry::Telemetry,
        name: &'static str,
    ) {
        counter.fetch_add(n, Ordering::Relaxed);
        telemetry.counter(name, n);
    }

    /// Point-in-time snapshot as plain integers.
    #[must_use]
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            shed: self.shed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            wire_rejected: self.wire_rejected.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            dropped_replies: self.dropped_replies.load(Ordering::Relaxed),
        }
    }
}

/// Plain-integer snapshot of [`ServeCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountersSnapshot {
    /// Windows refused by admission control.
    pub shed: u64,
    /// Windows answered by the fallback policy.
    pub degraded: u64,
    /// Wire-rejected input lines.
    pub wire_rejected: u64,
    /// Transient-failure retries.
    pub retries: u64,
    /// Unclean client teardowns.
    pub disconnects: u64,
    /// Undeliverable replies.
    pub dropped_replies: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(max: usize, shed: ShedPolicy) -> AdmissionQueue<u32> {
        AdmissionQueue::new(AdmissionConfig {
            max_inflight: max,
            shed,
        })
    }

    #[test]
    fn fifo_below_the_bound() {
        let q = queue(3, ShedPolicy::Reject);
        for i in 0..3 {
            assert!(matches!(q.push(i), PushOutcome::Admitted));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.try_pop(), Some(0));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn reject_sheds_the_new_entry() {
        let q = queue(2, ShedPolicy::Reject);
        q.push(1);
        q.push(2);
        assert!(matches!(q.push(3), PushOutcome::ShedNew));
        assert_eq!(q.try_pop(), Some(1), "admitted work untouched");
        assert!(matches!(q.push(4), PushOutcome::Admitted), "space freed");
    }

    #[test]
    fn drop_oldest_evicts_the_front() {
        let q = queue(2, ShedPolicy::DropOldest);
        q.push(1);
        q.push(2);
        match q.push(3) {
            PushOutcome::ShedOldest(victim) => assert_eq!(victim, 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(3));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = queue(4, ShedPolicy::Reject);
        q.push(7);
        q.push(8);
        q.close();
        assert!(
            matches!(q.push(9), PushOutcome::ShedNew),
            "closed queue sheds"
        );
        assert_eq!(q.pop_wait(), Some(7), "queued work still decided");
        assert_eq!(q.pop_wait(), Some(8));
        assert_eq!(q.pop_wait(), None, "then the stream ends");
    }

    #[test]
    fn pop_wait_blocks_until_push() {
        let q = std::sync::Arc::new(queue(2, ShedPolicy::Reject));
        let q2 = q.clone();
        let popper = std::thread::spawn(move || q2.pop_wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(42);
        assert_eq!(popper.join().unwrap(), Some(42));
    }

    #[test]
    fn outcome_sequence_is_a_pure_function_of_the_op_sequence() {
        // The determinism the chaos harness relies on: replaying the same
        // push/pop sequence yields the same outcomes, bit for bit.
        let ops: Vec<u8> = vec![0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1];
        let run = |shed: ShedPolicy| {
            let q = queue(2, shed);
            let mut next = 0u32;
            let mut log = Vec::new();
            for &op in &ops {
                if op == 0 {
                    let outcome = q.push(next);
                    log.push(format!("{outcome:?}"));
                    next += 1;
                } else {
                    log.push(format!("{:?}", q.try_pop()));
                }
            }
            log
        };
        assert_eq!(run(ShedPolicy::Reject), run(ShedPolicy::Reject));
        assert_eq!(run(ShedPolicy::DropOldest), run(ShedPolicy::DropOldest));
        assert_ne!(
            run(ShedPolicy::Reject),
            run(ShedPolicy::DropOldest),
            "the two policies shed differently under this schedule"
        );
    }

    #[test]
    fn shed_policy_parses_and_displays() {
        assert_eq!("reject".parse::<ShedPolicy>().unwrap(), ShedPolicy::Reject);
        assert_eq!(
            "drop-oldest".parse::<ShedPolicy>().unwrap(),
            ShedPolicy::DropOldest
        );
        assert!("lifo".parse::<ShedPolicy>().is_err());
        assert_eq!(ShedPolicy::DropOldest.to_string(), "drop-oldest");
    }

    #[test]
    fn zero_inflight_clamps_to_one() {
        let q = queue(0, ShedPolicy::Reject);
        assert_eq!(q.config.max_inflight, 1);
        assert!(matches!(q.push(1), PushOutcome::Admitted));
        assert!(matches!(q.push(2), PushOutcome::ShedNew));
    }
}
