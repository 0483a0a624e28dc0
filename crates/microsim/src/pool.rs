//! Consumer pools: the per-microservice set of identical workers.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The consumer pool of one microservice.
///
/// A pool tracks four populations:
///
/// * `active` — consumers that are up and able to process requests,
/// * `busy` — the subset of `active` currently processing a request,
/// * `starting` — containers scheduled to come up (Kubernetes start-up
///   latency), minus any that have been cancelled while still starting,
/// * `pending_retire` — busy consumers that will be torn down as soon as
///   their current request completes (graceful scale-down; the emulator never
///   kills a request mid-flight, matching the paper's acknowledgement
///   mechanism that guarantees requests are not lost).
///
/// The pool itself is pure bookkeeping; the [`Cluster`](crate::Cluster)
/// schedules the actual `ConsumerUp` events.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConsumerPool {
    active: usize,
    busy: usize,
    starting: usize,
    cancel_starting: usize,
    pending_retire: usize,
}

/// Result of retargeting a pool: how many new containers the cluster must
/// schedule start events for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retarget {
    /// Number of `ConsumerUp` events to schedule.
    pub to_start: usize,
}

/// Raw dump of a pool's five population counters, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PoolCounters {
    /// Consumers up (busy or idle).
    pub active: usize,
    /// Consumers processing a request.
    pub busy: usize,
    /// Containers scheduled to come up (gross, including cancelled).
    pub starting: usize,
    /// Starting containers that have been cancelled.
    pub cancel_starting: usize,
    /// Busy consumers marked to retire on completion.
    pub pending_retire: usize,
}

impl fmt::Display for PoolCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "active: {}, busy: {}, starting: {}, cancel_starting: {}, pending_retire: {}",
            self.active, self.busy, self.starting, self.cancel_starting, self.pending_retire
        )
    }
}

/// A consumer pool's counters broke their population algebra.
///
/// Carries the violated relation plus the full counter dump so a
/// fault-injection run that desyncs a pool produces a diagnosable report
/// (which pool, which relation, all five raw counts) instead of an opaque
/// `usize`-underflow panic deep inside an accessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PoolDesync {
    /// The population relation that no longer holds.
    pub relation: &'static str,
    /// The raw counters at the moment of detection.
    pub counters: PoolCounters,
}

impl fmt::Display for PoolDesync {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "counter desync: `{}` violated ({})",
            self.relation, self.counters
        )
    }
}

impl std::error::Error for PoolDesync {}

impl ConsumerPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        ConsumerPool::default()
    }

    /// Consumers currently up (busy or idle).
    #[must_use]
    pub fn active(&self) -> usize {
        self.active
    }

    /// Consumers currently processing a request.
    #[must_use]
    pub(crate) fn busy(&self) -> usize {
        self.busy
    }

    /// Consumers up and waiting for work.
    ///
    /// # Panics
    ///
    /// Panics with a full counter dump when the counters have desynced
    /// (`busy > active`); see [`ConsumerPool::checked_idle`] for the
    /// non-panicking form.
    #[must_use]
    pub(crate) fn idle(&self) -> usize {
        self.checked_idle()
            .unwrap_or_else(|e| panic!("consumer pool {e}"))
    }

    /// Containers still starting (net of cancellations).
    ///
    /// # Panics
    ///
    /// Panics with a full counter dump when the counters have desynced
    /// (`cancel_starting > starting`); see
    /// `ConsumerPool::checked_starting` for the non-panicking form.
    #[must_use]
    pub fn starting(&self) -> usize {
        self.checked_starting()
            .unwrap_or_else(|e| panic!("consumer pool {e}"))
    }

    /// The pool size the system is converging to: active consumers not
    /// marked for retirement, plus net starting containers.
    ///
    /// # Panics
    ///
    /// Panics with a full counter dump when the counters have desynced
    /// (`pending_retire > active` or `cancel_starting > starting`); see
    /// `ConsumerPool::checked_effective_target` for the non-panicking
    /// form.
    #[must_use]
    pub fn effective_target(&self) -> usize {
        self.checked_effective_target()
            .unwrap_or_else(|e| panic!("consumer pool {e}"))
    }

    /// [`ConsumerPool::idle`] through checked subtraction: a typed
    /// [`PoolDesync`] (naming the violated relation and dumping every
    /// counter) instead of a `usize`-underflow panic when `busy > active`.
    pub(crate) fn checked_idle(&self) -> Result<usize, PoolDesync> {
        self.active
            .checked_sub(self.busy)
            .ok_or_else(|| self.desync("busy <= active"))
    }

    /// [`ConsumerPool::starting`] through checked subtraction.
    pub(crate) fn checked_starting(&self) -> Result<usize, PoolDesync> {
        self.starting
            .checked_sub(self.cancel_starting)
            .ok_or_else(|| self.desync("cancel_starting <= starting"))
    }

    /// [`ConsumerPool::effective_target`] through checked subtraction.
    pub(crate) fn checked_effective_target(&self) -> Result<usize, PoolDesync> {
        let unretired = self
            .active
            .checked_sub(self.pending_retire)
            .ok_or_else(|| self.desync("pending_retire <= active"))?;
        Ok(unretired + self.checked_starting()?)
    }

    /// The raw population counters, for diagnostics and audits.
    #[must_use]
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            active: self.active,
            busy: self.busy,
            starting: self.starting,
            cancel_starting: self.cancel_starting,
            pending_retire: self.pending_retire,
        }
    }

    /// Checks the pool's full population algebra: `busy ≤ active`,
    /// `pending_retire ≤ busy`, and `cancel_starting ≤ starting`. (The
    /// counters are unsigned, so non-negativity is structural; what can
    /// break are the orderings.)
    pub fn check_invariants(&self) -> Result<(), PoolDesync> {
        if self.busy > self.active {
            return Err(self.desync("busy <= active"));
        }
        if self.pending_retire > self.busy {
            return Err(self.desync("pending_retire <= busy"));
        }
        if self.cancel_starting > self.starting {
            return Err(self.desync("cancel_starting <= starting"));
        }
        Ok(())
    }

    fn desync(&self, relation: &'static str) -> PoolDesync {
        PoolDesync {
            relation,
            counters: self.counters(),
        }
    }

    /// Retargets the pool to `target` consumers.
    ///
    /// Scale-up first revives cancelled-but-still-starting containers (free),
    /// then asks the cluster to start `to_start` new ones. Scale-down first
    /// cancels starting containers, then retires idle consumers immediately,
    /// and finally marks busy consumers for retirement on completion.
    #[must_use]
    pub fn retarget(&mut self, target: usize) -> Retarget {
        let current = self.effective_target();
        if target >= current {
            let mut grow = target - current;
            // Un-retire consumers that were waiting to be torn down.
            let unretire = grow.min(self.pending_retire);
            self.pending_retire -= unretire;
            grow -= unretire;
            // Revive cancelled containers that are still starting.
            let revive = grow.min(self.cancel_starting);
            self.cancel_starting -= revive;
            grow -= revive;
            self.starting += grow;
            Retarget { to_start: grow }
        } else {
            let mut shrink = current - target;
            // Cancel containers that have not come up yet.
            let cancel = shrink.min(self.starting());
            self.cancel_starting += cancel;
            shrink -= cancel;
            // Retire idle consumers immediately.
            let retire_idle = shrink.min(self.idle());
            self.active -= retire_idle;
            shrink -= retire_idle;
            // The rest finish their current request first.
            self.pending_retire += shrink;
            debug_assert!(self.pending_retire <= self.busy);
            Retarget { to_start: 0 }
        }
    }

    /// A scheduled container came up. Returns `true` when the consumer
    /// actually joins the pool (i.e. it was not cancelled while starting).
    pub fn consumer_up(&mut self) -> bool {
        debug_assert!(self.starting > 0, "consumer_up without starting");
        self.starting -= 1;
        if self.cancel_starting > 0 {
            self.cancel_starting -= 1;
            false
        } else {
            self.active += 1;
            true
        }
    }

    /// Marks one idle consumer busy.
    ///
    /// # Panics
    ///
    /// Panics (debug) when no consumer is idle.
    pub fn begin_work(&mut self) {
        debug_assert!(self.idle() > 0, "begin_work with no idle consumer");
        self.busy += 1;
    }

    /// A busy consumer finished its request. Returns `true` when the
    /// consumer stays in the pool, `false` when it retires (deferred
    /// scale-down).
    pub fn finish_work(&mut self) -> bool {
        debug_assert!(self.busy > 0, "finish_work with no busy consumer");
        self.busy -= 1;
        if self.pending_retire > 0 {
            self.pending_retire -= 1;
            self.active -= 1;
            false
        } else {
            true
        }
    }

    /// A busy consumer crashed mid-request. It leaves the pool immediately;
    /// returns `true` when the orchestrator should start a replacement
    /// container (i.e. the consumer was not already marked for retirement).
    pub fn fail_busy(&mut self) -> bool {
        debug_assert!(self.busy > 0, "fail_busy with no busy consumer");
        self.busy -= 1;
        self.active -= 1;
        if self.pending_retire > 0 {
            // The crash completed a pending scale-down; no replacement.
            self.pending_retire -= 1;
            false
        } else {
            true
        }
    }

    /// All idle consumers died at once (correlated node outage). Removes
    /// them from the pool and returns how many were lost so the cluster can
    /// start replacements. Busy consumers fail separately through
    /// [`ConsumerPool::fail_busy`] (their in-flight requests must be
    /// redelivered), and starting containers are unaffected — the
    /// orchestrator places them after the outage.
    pub fn fail_idle(&mut self) -> usize {
        let lost = self.idle();
        self.active -= lost;
        lost
    }

    /// Tears the pool down to zero: cancels all starting containers, retires
    /// idle consumers immediately, and marks busy consumers to retire when
    /// their in-flight requests complete (requests are never killed, matching
    /// the paper's at-least-once acknowledgement mechanism).
    pub fn hard_reset(&mut self) {
        self.cancel_starting = self.starting;
        self.active = self.busy;
        self.pending_retire = self.busy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brings `n` consumers fully up.
    fn pool_with_active(n: usize) -> ConsumerPool {
        let mut p = ConsumerPool::new();
        let r = p.retarget(n);
        assert_eq!(r.to_start, n);
        for _ in 0..n {
            assert!(p.consumer_up());
        }
        p
    }

    #[test]
    fn scale_up_from_empty_schedules_starts() {
        let mut p = ConsumerPool::new();
        assert_eq!(p.retarget(3).to_start, 3);
        assert_eq!(p.starting(), 3);
        assert_eq!(p.active(), 0);
        assert!(p.consumer_up());
        assert_eq!(p.active(), 1);
        assert_eq!(p.effective_target(), 3);
    }

    #[test]
    fn scale_down_prefers_cancelling_starting() {
        let mut p = ConsumerPool::new();
        let _ = p.retarget(4);
        assert_eq!(p.retarget(1).to_start, 0);
        // Three of the four starting containers are cancelled.
        assert_eq!(p.starting(), 1);
        assert!(!p.consumer_up()); // cancelled
        assert!(!p.consumer_up()); // cancelled
        assert!(!p.consumer_up()); // cancelled
        assert!(p.consumer_up()); // survives
        assert_eq!(p.active(), 1);
    }

    #[test]
    fn scale_down_retires_idle_immediately() {
        let mut p = pool_with_active(5);
        let _ = p.retarget(2);
        assert_eq!(p.active(), 2);
        assert_eq!(p.idle(), 2);
    }

    #[test]
    fn scale_down_defers_busy_retirement() {
        let mut p = pool_with_active(3);
        p.begin_work();
        p.begin_work();
        p.begin_work();
        let _ = p.retarget(1);
        // No idle consumers: all retirement is deferred.
        assert_eq!(p.active(), 3);
        assert_eq!(p.effective_target(), 1);
        assert!(!p.finish_work()); // retires
        assert!(!p.finish_work()); // retires
        assert!(p.finish_work()); // stays
        assert_eq!(p.active(), 1);
        assert_eq!(p.busy(), 0);
    }

    #[test]
    fn scale_up_revives_pending_retire_first() {
        let mut p = pool_with_active(3);
        p.begin_work();
        p.begin_work();
        p.begin_work();
        let _ = p.retarget(1); // 2 pending retire
        let r = p.retarget(3); // revive them; no new starts
        assert_eq!(r.to_start, 0);
        assert!(p.finish_work());
        assert!(p.finish_work());
        assert!(p.finish_work());
        assert_eq!(p.active(), 3);
    }

    #[test]
    fn scale_up_revives_cancelled_starting() {
        let mut p = ConsumerPool::new();
        let _ = p.retarget(4);
        let _ = p.retarget(0); // cancel all 4
        let r = p.retarget(2); // revive 2, start none
        assert_eq!(r.to_start, 0);
        assert_eq!(p.starting(), 2);
    }

    #[test]
    fn effective_target_tracks_retarget() {
        let mut p = pool_with_active(2);
        p.begin_work();
        for target in [0, 1, 5, 3, 2] {
            let _ = p.retarget(target);
            assert_eq!(p.effective_target(), target, "target {target}");
        }
    }

    #[test]
    fn hard_reset_clears_everything_but_busy() {
        let mut p = pool_with_active(4);
        p.begin_work();
        let _ = p.retarget(6);
        p.hard_reset();
        assert_eq!(p.starting(), 0);
        assert_eq!(p.active(), 1); // the busy one finishes its request
        assert_eq!(p.busy(), 1);
        assert_eq!(p.effective_target(), 0);
        assert!(!p.finish_work()); // then retires
        assert_eq!(p.active(), 0);
    }

    #[test]
    fn fail_busy_requests_replacement() {
        let mut p = pool_with_active(2);
        p.begin_work();
        assert!(p.fail_busy());
        assert_eq!(p.active(), 1);
        assert_eq!(p.busy(), 0);
    }

    #[test]
    fn fail_busy_absorbs_pending_retirement() {
        let mut p = pool_with_active(2);
        p.begin_work();
        p.begin_work();
        let _ = p.retarget(1); // one pending retire
        assert!(!p.fail_busy(), "crash satisfies the scale-down");
        assert_eq!(p.effective_target(), 1);
    }

    #[test]
    fn fail_idle_spares_busy_and_starting() {
        let mut p = pool_with_active(4);
        p.begin_work();
        let _ = p.retarget(6); // 2 starting on top
        assert_eq!(p.fail_idle(), 3);
        assert_eq!(p.active(), 1);
        assert_eq!(p.busy(), 1);
        assert_eq!(p.idle(), 0);
        assert_eq!(p.starting(), 2);
        // A second outage with nothing idle is a no-op.
        assert_eq!(p.fail_idle(), 0);
    }

    #[test]
    fn idle_is_active_minus_busy() {
        let mut p = pool_with_active(3);
        p.begin_work();
        assert_eq!(p.idle(), 2);
        let _ = p.finish_work();
        assert_eq!(p.idle(), 3);
    }

    /// Builds a pool with raw (possibly inconsistent) counters through the
    /// serde surface — the only way to desync one from the outside, which is
    /// exactly what makes it the right tool for testing the desync paths.
    fn raw_pool(
        active: usize,
        busy: usize,
        starting: usize,
        cancel_starting: usize,
        pending_retire: usize,
    ) -> ConsumerPool {
        serde_json::from_str(&format!(
            r#"{{"active":{active},"busy":{busy},"starting":{starting},
                 "cancel_starting":{cancel_starting},"pending_retire":{pending_retire}}}"#
        ))
        .expect("raw pool JSON")
    }

    #[test]
    fn healthy_pool_passes_invariant_check() {
        let mut p = pool_with_active(3);
        p.begin_work();
        let _ = p.retarget(1);
        assert!(p.check_invariants().is_ok());
        assert_eq!(p.checked_idle().unwrap(), p.idle());
        assert_eq!(p.checked_starting().unwrap(), p.starting());
        assert_eq!(p.checked_effective_target().unwrap(), p.effective_target());
    }

    #[test]
    fn desynced_busy_surfaces_typed_error_not_underflow() {
        let p = raw_pool(1, 3, 0, 0, 0);
        let err = p.checked_idle().unwrap_err();
        assert_eq!(err.relation, "busy <= active");
        assert_eq!(err.counters.active, 1);
        assert_eq!(err.counters.busy, 3);
        assert_eq!(p.check_invariants().unwrap_err().relation, "busy <= active");
    }

    #[test]
    fn desynced_cancellations_surface_typed_error() {
        let p = raw_pool(0, 0, 1, 2, 0);
        assert_eq!(
            p.checked_starting().unwrap_err().relation,
            "cancel_starting <= starting"
        );
        assert_eq!(
            p.checked_effective_target().unwrap_err().relation,
            "cancel_starting <= starting"
        );
    }

    #[test]
    fn desynced_retirement_surfaces_typed_error() {
        let p = raw_pool(1, 1, 0, 0, 2);
        assert_eq!(
            p.checked_effective_target().unwrap_err().relation,
            "pending_retire <= active"
        );
        assert_eq!(
            p.check_invariants().unwrap_err().relation,
            "pending_retire <= busy"
        );
    }

    #[test]
    #[should_panic(expected = "busy <= active")]
    fn accessor_panic_names_the_counters() {
        let p = raw_pool(1, 3, 0, 0, 0);
        let _ = p.idle();
    }
}
