//! Versioned weight broadcast: immutable snapshots published by the
//! learner, adopted by rollout workers at wave boundaries.

use std::sync::{Arc, Condvar, Mutex};

use rl::PolicyWeights;
use serde::{Deserialize, Serialize};

use crate::RefinedModel;

/// One immutable broadcast snapshot of everything a rollout worker needs:
/// the policy weights (actor, observation normaliser, parameter-noise σ)
/// and the refined dynamics model.
///
/// Versions are numbered `0, 1, 2, …` within one inner loop: version 0 is
/// the state at loop entry and version `g + 1` is published immediately
/// after the learner merges wave `g`. The dynamics model is retrained only
/// at outer-iteration boundaries, so all versions of one inner loop share
/// the same `dynamics` `Arc`.
#[derive(Debug, Clone)]
pub(crate) struct WeightVersion {
    /// Monotone version number (see type docs for the numbering).
    pub version: u64,
    /// Frozen policy weights captured from the learner's agent.
    pub policy: PolicyWeights,
    /// The iteration's refined dynamics model (shared across versions).
    pub dynamics: Arc<RefinedModel>,
}

struct StoreState {
    latest: Arc<WeightVersion>,
    /// Every version ever published (including the initial one), kept only
    /// in replay mode where workers must adopt *exact* historical versions.
    history: Option<Vec<Arc<WeightVersion>>>,
    closed: bool,
}

/// The broadcast slot the learner publishes [`WeightVersion`]s into.
///
/// Publishing swaps an `Arc` under a mutex (the critical section is two
/// pointer moves — std has no lock-free swap primitive, and the learner
/// publishes once per merged wave, so contention is negligible). Workers
/// either grab the freshest snapshot ([`VersionStore::latest`], live mode)
/// or block for an exact recorded version ([`VersionStore::wait_for`],
/// replay mode).
#[derive(Debug)]
pub(crate) struct VersionStore {
    inner: Mutex<StoreState>,
    published: Condvar,
}

impl std::fmt::Debug for StoreState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreState")
            .field("latest", &self.latest.version)
            .field("closed", &self.closed)
            .finish_non_exhaustive()
    }
}

impl VersionStore {
    /// Creates a store holding `initial` as the current version. With
    /// `keep_history` every published version stays reachable by number —
    /// required for schedule replay, wasteful otherwise.
    #[must_use]
    pub(crate) fn new(initial: WeightVersion, keep_history: bool) -> Self {
        let latest = Arc::new(initial);
        let history = keep_history.then(|| vec![Arc::clone(&latest)]);
        VersionStore {
            inner: Mutex::new(StoreState {
                latest,
                history,
                closed: false,
            }),
            published: Condvar::new(),
        }
    }

    /// Publishes the next version and wakes every waiting worker.
    ///
    /// # Panics
    ///
    /// Panics if `next.version` is not exactly one past the current
    /// version — out-of-order publishes would break the schedule-replay
    /// availability guarantee.
    pub(crate) fn publish(&self, next: WeightVersion) {
        let mut st = self.inner.lock().unwrap();
        assert_eq!(
            next.version,
            st.latest.version + 1,
            "weight versions must be published in order"
        );
        let arc = Arc::new(next);
        if let Some(history) = &mut st.history {
            history.push(Arc::clone(&arc));
        }
        st.latest = arc;
        drop(st);
        self.published.notify_all();
    }

    /// The freshest published version (what live-mode workers adopt).
    #[must_use]
    pub(crate) fn latest(&self) -> Arc<WeightVersion> {
        Arc::clone(&self.inner.lock().unwrap().latest)
    }

    /// Blocks until `version` has been published and returns it, or `None`
    /// if the store is [`close`](VersionStore::close)d first (the learner
    /// stopped early; the worker should exit).
    ///
    /// # Panics
    ///
    /// Panics if `version` was already superseded and the store was built
    /// without history — exact historical versions only exist in replay
    /// mode.
    #[must_use]
    pub(crate) fn wait_for(&self, version: u64) -> Option<Arc<WeightVersion>> {
        let mut st = self.inner.lock().unwrap();
        loop {
            if st.latest.version == version {
                return Some(Arc::clone(&st.latest));
            }
            if let Some(history) = &st.history {
                if let Some(v) = history.iter().find(|v| v.version == version) {
                    return Some(Arc::clone(v));
                }
            } else if st.latest.version > version {
                panic!("version {version} superseded and the store keeps no history");
            }
            if st.closed {
                return None;
            }
            st = self.published.wait(st).unwrap();
        }
    }

    /// Marks the store closed and wakes all waiters; subsequent or pending
    /// [`wait_for`](VersionStore::wait_for) calls for unpublished versions
    /// return `None`.
    pub(crate) fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.published.notify_all();
    }
}

/// One line of the run manifest: worker `worker` generated global wave
/// `wave` using weight version `version`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct WaveEntry {
    /// Worker index in `0..workers`.
    pub worker: usize,
    /// Global wave index (waves partition the iteration's rollout budget
    /// into `lanes`-wide batches).
    pub wave: usize,
    /// The weight version the worker adopted for this wave.
    pub version: u64,
}

/// The run manifest of one distributed inner loop: which weight version
/// each worker adopted for each wave, in merge order.
///
/// This is the *only* nondeterministic ingredient of an async run; forcing
/// a recorded schedule
/// ([`MirasTrainer::try_run_iteration_scheduled`](crate::MirasTrainer::try_run_iteration_scheduled))
/// replays the run bit for bit. Serialized inside checkpoints and (by the
/// CLI) as a standalone JSON manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct VersionSchedule {
    /// Worker count the schedule was recorded with.
    pub workers: usize,
    /// Lanes per worker the schedule was recorded with.
    pub lanes: usize,
    /// One entry per merged wave, indexed by global wave number.
    pub entries: Vec<WaveEntry>,
}

impl VersionSchedule {
    /// Checks the structural invariants a recorded schedule must satisfy:
    /// entry `g` belongs to worker `g mod workers`, names wave `g`, and
    /// uses a version `≤ g` (causality: version `v` is published only
    /// after wave `v − 1` is merged, so a worker cannot have adopted a
    /// later one — and the same bound is what guarantees replay cannot
    /// deadlock).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("schedule has zero workers".to_string());
        }
        if self.lanes == 0 {
            return Err("schedule has zero lanes".to_string());
        }
        for (g, entry) in self.entries.iter().enumerate() {
            if entry.wave != g {
                return Err(format!("entry {g} names wave {}", entry.wave));
            }
            if entry.worker != g % self.workers {
                return Err(format!(
                    "wave {g} assigned to worker {} (expected {})",
                    entry.worker,
                    g % self.workers
                ));
            }
            if entry.version > g as u64 {
                return Err(format!(
                    "wave {g} claims version {} from the future",
                    entry.version
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicsModel, MirasConfig};
    use rl::{Ddpg, DdpgConfig};

    fn version(n: u64) -> WeightVersion {
        let agent = Ddpg::new(2, 2, DdpgConfig::small_test(0));
        let model = DynamicsModel::new(2, &MirasConfig::smoke_test(0));
        WeightVersion {
            version: n,
            policy: agent.policy_weights(),
            dynamics: Arc::new(RefinedModel::unrefined(model)),
        }
    }

    #[test]
    fn store_publishes_in_order_and_serves_history() {
        let store = VersionStore::new(version(0), true);
        assert_eq!(store.latest().version, 0);
        store.publish(version(1));
        store.publish(version(2));
        assert_eq!(store.latest().version, 2);
        // Historical versions stay reachable in replay mode.
        assert_eq!(store.wait_for(1).unwrap().version, 1);
        assert_eq!(store.wait_for(2).unwrap().version, 2);
        store.close();
        // Unpublished versions resolve to None once closed.
        assert!(store.wait_for(7).is_none());
    }

    #[test]
    #[should_panic(expected = "published in order")]
    fn out_of_order_publish_panics() {
        let store = VersionStore::new(version(0), false);
        store.publish(version(5));
    }

    #[test]
    fn wait_for_blocks_until_published() {
        let store = Arc::new(VersionStore::new(version(0), true));
        let waiter = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.wait_for(2).map(|v| v.version))
        };
        store.publish(version(1));
        store.publish(version(2));
        assert_eq!(waiter.join().unwrap(), Some(2));
    }

    #[test]
    fn schedule_validation_catches_future_versions_and_misassignment() {
        let mut s = VersionSchedule {
            workers: 2,
            lanes: 4,
            entries: vec![
                WaveEntry {
                    worker: 0,
                    wave: 0,
                    version: 0,
                },
                WaveEntry {
                    worker: 1,
                    wave: 1,
                    version: 1,
                },
                WaveEntry {
                    worker: 0,
                    wave: 2,
                    version: 1,
                },
            ],
        };
        assert!(s.validate().is_ok());
        s.entries[2].version = 3;
        assert!(s.validate().unwrap_err().contains("future"));
        s.entries[2].version = 1;
        s.entries[1].worker = 0;
        assert!(s.validate().unwrap_err().contains("assigned"));
    }

    #[test]
    fn schedule_round_trips_through_json() {
        let s = VersionSchedule {
            workers: 3,
            lanes: 8,
            entries: vec![
                WaveEntry {
                    worker: 0,
                    wave: 0,
                    version: 0,
                },
                WaveEntry {
                    worker: 1,
                    wave: 1,
                    version: 0,
                },
                WaveEntry {
                    worker: 2,
                    wave: 2,
                    version: 2,
                },
            ],
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: VersionSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
