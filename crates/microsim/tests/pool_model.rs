//! Model-based property test of [`ConsumerPool`]: random operation
//! sequences against a naive per-consumer reference.
//!
//! The production pool keeps five aggregate counters; the reference keeps an
//! explicit list of consumers, each in one state, and derives the counters
//! by counting. Any divergence — in derived counters, in operation return
//! values, or in the population algebra — pinpoints an aggregate-bookkeeping
//! bug (exactly the class of defect that previously surfaced only as a
//! `usize`-underflow panic deep inside an accessor). Runs in release mode
//! too: nothing here depends on `debug_assert!`.

use microsim::{Cluster, ConsumerPool, SimConfig};
use proptest::prelude::*;
use workflow::{Ensemble, WorkflowTypeId};

/// One consumer in the reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefConsumer {
    /// Container scheduled to come up; may have been cancelled meanwhile.
    Starting { cancelled: bool },
    /// Up, waiting for work.
    Idle,
    /// Processing a request; may be marked to retire on completion.
    Busy { retiring: bool },
}

/// Naive reference pool: an explicit list of consumers.
#[derive(Debug, Default)]
struct RefPool {
    consumers: Vec<RefConsumer>,
}

impl RefPool {
    fn count(&self, pred: impl Fn(&RefConsumer) -> bool) -> usize {
        self.consumers.iter().filter(|c| pred(c)).count()
    }

    fn active(&self) -> usize {
        self.count(|c| matches!(c, RefConsumer::Idle | RefConsumer::Busy { .. }))
    }

    fn busy(&self) -> usize {
        self.count(|c| matches!(c, RefConsumer::Busy { .. }))
    }

    fn starting_gross(&self) -> usize {
        self.count(|c| matches!(c, RefConsumer::Starting { .. }))
    }

    fn cancelled(&self) -> usize {
        self.count(|c| matches!(c, RefConsumer::Starting { cancelled: true }))
    }

    fn pending_retire(&self) -> usize {
        self.count(|c| matches!(c, RefConsumer::Busy { retiring: true }))
    }

    fn effective_target(&self) -> usize {
        self.count(|c| {
            matches!(
                c,
                RefConsumer::Idle
                    | RefConsumer::Busy { retiring: false }
                    | RefConsumer::Starting { cancelled: false }
            )
        })
    }

    /// Flips the state of the first consumer matching `from` to `to`.
    /// Consumers are interchangeable, so "first" is as good as any.
    fn convert_one(&mut self, from: RefConsumer, to: RefConsumer) {
        let idx = self
            .consumers
            .iter()
            .position(|c| *c == from)
            .expect("reference pool out of the required state");
        self.consumers[idx] = to;
    }

    fn remove_one(&mut self, state: RefConsumer) {
        let idx = self
            .consumers
            .iter()
            .position(|c| *c == state)
            .expect("reference pool out of the required state");
        self.consumers.swap_remove(idx);
    }

    fn retarget(&mut self, target: usize) -> usize {
        let current = self.effective_target();
        if target >= current {
            let mut grow = target - current;
            // Un-retire busy consumers waiting to be torn down.
            let unretire = grow.min(self.pending_retire());
            for _ in 0..unretire {
                self.convert_one(
                    RefConsumer::Busy { retiring: true },
                    RefConsumer::Busy { retiring: false },
                );
            }
            grow -= unretire;
            // Revive cancelled containers that are still starting.
            let revive = grow.min(self.cancelled());
            for _ in 0..revive {
                self.convert_one(
                    RefConsumer::Starting { cancelled: true },
                    RefConsumer::Starting { cancelled: false },
                );
            }
            grow -= revive;
            for _ in 0..grow {
                self.consumers
                    .push(RefConsumer::Starting { cancelled: false });
            }
            grow // to_start
        } else {
            let mut shrink = current - target;
            let cancel = shrink.min(self.starting_gross() - self.cancelled());
            for _ in 0..cancel {
                self.convert_one(
                    RefConsumer::Starting { cancelled: false },
                    RefConsumer::Starting { cancelled: true },
                );
            }
            shrink -= cancel;
            let retire_idle = shrink.min(self.active() - self.busy());
            for _ in 0..retire_idle {
                self.remove_one(RefConsumer::Idle);
            }
            shrink -= retire_idle;
            for _ in 0..shrink {
                self.convert_one(
                    RefConsumer::Busy { retiring: false },
                    RefConsumer::Busy { retiring: true },
                );
            }
            0
        }
    }

    /// One scheduled container comes up. The aggregate pool absorbs a
    /// pending cancellation first regardless of which container physically
    /// arrived (consumers are interchangeable); the reference mirrors that.
    fn consumer_up(&mut self) -> bool {
        if self.cancelled() > 0 {
            self.remove_one(RefConsumer::Starting { cancelled: true });
            false
        } else {
            self.convert_one(
                RefConsumer::Starting { cancelled: false },
                RefConsumer::Idle,
            );
            true
        }
    }

    fn begin_work(&mut self) {
        self.convert_one(RefConsumer::Idle, RefConsumer::Busy { retiring: false });
    }

    /// A busy consumer finishes. A pending retirement is absorbed first —
    /// whichever consumer finished, one marked consumer can retire in its
    /// place, since they are interchangeable.
    fn finish_work(&mut self) -> bool {
        if self.pending_retire() > 0 {
            self.remove_one(RefConsumer::Busy { retiring: true });
            false
        } else {
            self.convert_one(RefConsumer::Busy { retiring: false }, RefConsumer::Idle);
            true
        }
    }

    fn fail_busy(&mut self) -> bool {
        if self.pending_retire() > 0 {
            self.remove_one(RefConsumer::Busy { retiring: true });
            false
        } else {
            self.remove_one(RefConsumer::Busy { retiring: false });
            true
        }
    }

    fn fail_idle(&mut self) -> usize {
        let lost = self.count(|c| matches!(c, RefConsumer::Idle));
        self.consumers.retain(|c| !matches!(c, RefConsumer::Idle));
        lost
    }

    fn hard_reset(&mut self) {
        self.consumers.retain(|c| !matches!(c, RefConsumer::Idle));
        for c in &mut self.consumers {
            *c = match *c {
                RefConsumer::Starting { .. } => RefConsumer::Starting { cancelled: true },
                RefConsumer::Busy { .. } => RefConsumer::Busy { retiring: true },
                RefConsumer::Idle => unreachable!("idle consumers were retained away"),
            };
        }
    }
}

/// One randomly generated pool operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Retarget(usize),
    ConsumerUp,
    BeginWork,
    FinishWork,
    FailBusy,
    FailIdle,
    HardReset,
}

/// Weighted op selection (the vendored proptest has no `prop_oneof`):
/// retargets and the common lifecycle ops dominate, destructive ops are
/// rarer — mirroring how the cluster actually drives a pool.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..12, 0usize..12).prop_map(|(kind, target)| match kind {
        0..=2 => Op::Retarget(target),
        3 | 4 => Op::ConsumerUp,
        5 | 6 => Op::BeginWork,
        7 | 8 => Op::FinishWork,
        9 => Op::FailBusy,
        10 => Op::FailIdle,
        _ => Op::HardReset,
    })
}

fn assert_pools_agree(pool: &ConsumerPool, reference: &RefPool) {
    let c = pool.counters();
    assert_eq!(c.active, reference.active(), "active");
    assert_eq!(c.busy, reference.busy(), "busy");
    assert_eq!(c.starting, reference.starting_gross(), "starting (gross)");
    assert_eq!(c.cancel_starting, reference.cancelled(), "cancel_starting");
    assert_eq!(
        c.pending_retire,
        reference.pending_retire(),
        "pending_retire"
    );
    assert_eq!(pool.effective_target(), reference.effective_target());
    pool.check_invariants()
        .unwrap_or_else(|e| panic!("invariants broken after agreeing with reference: {e}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The aggregate pool and the per-consumer reference stay in lockstep —
    /// same counters, same return values — over arbitrary operation
    /// sequences, and the population algebra holds after every step.
    #[test]
    fn pool_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut pool = ConsumerPool::new();
        let mut reference = RefPool::default();
        for op in ops {
            // Skip operations whose preconditions don't hold (the cluster
            // never issues them either); the reference decides, and the
            // production pool must agree it was skippable.
            match op {
                Op::Retarget(target) => {
                    let to_start = pool.retarget(target).to_start;
                    prop_assert_eq!(to_start, reference.retarget(target));
                }
                Op::ConsumerUp => {
                    if reference.starting_gross() > 0 {
                        prop_assert_eq!(pool.consumer_up(), reference.consumer_up());
                    }
                }
                Op::BeginWork => {
                    if reference.active() - reference.busy() > 0 {
                        pool.begin_work();
                        reference.begin_work();
                    }
                }
                Op::FinishWork => {
                    if reference.busy() > 0 {
                        prop_assert_eq!(pool.finish_work(), reference.finish_work());
                    }
                }
                Op::FailBusy => {
                    if reference.busy() > 0 {
                        prop_assert_eq!(pool.fail_busy(), reference.fail_busy());
                    }
                }
                Op::FailIdle => {
                    prop_assert_eq!(pool.fail_idle(), reference.fail_idle());
                }
                Op::HardReset => {
                    pool.hard_reset();
                    reference.hard_reset();
                }
            }
            assert_pools_agree(&pool, &reference);
        }
    }

    /// End-to-end audit sweep: a cluster driven by random submissions and
    /// retargets, with runtime auditing enabled, records zero invariant
    /// violations — in release builds too, where `debug_assert!` is compiled
    /// out and only the [`microsim::SimAuditor`] is watching.
    #[test]
    fn random_cluster_runs_are_audit_clean(
        seed in 0u64..1000,
        submissions in proptest::collection::vec((0u64..240, 0usize..3), 0..40),
        retargets in proptest::collection::vec(
            (proptest::collection::vec(0usize..5, 4), 0u64..240), 0..8),
    ) {
        let sim = SimConfig { audit: true, ..SimConfig::new(seed) };
        let mut c = Cluster::new(Ensemble::msd(), sim);
        for &(at, wf) in &submissions {
            c.submit(desim::SimTime::from_secs(at), WorkflowTypeId::new(wf));
        }
        let mut horizon = desim::SimTime::ZERO;
        for (targets, at) in &retargets {
            horizon = horizon.max(desim::SimTime::from_secs(*at));
            c.run_until(desim::SimTime::from_secs(*at));
            c.set_consumers(targets);
        }
        c.run_until(horizon + desim::SimTime::from_secs(500));
        prop_assert!(c.audit_enabled());
        prop_assert_eq!(c.audit_violations(), &[]);
    }
}
