//! The central learner: ordered shard merge, DDPG updates, version
//! broadcast.

use std::sync::Arc;

use rl::{Ddpg, TrainError, TrainHealth};
use telemetry::{Telemetry, Value};

use super::replay_shard::{shard_channel, ShardReceiver};
use super::weights::{VersionSchedule, VersionStore, WaveEntry, WeightVersion};
use super::worker::{active_lanes, run_rollout_worker, total_waves, WorkerSpec};
use crate::rollout::{RolloutOutcome, RolloutParams, WaveAccounting};
use crate::{RefinedModel, TransitionDataset};

/// Upper bound on worker respawns per inner loop before the learner gives
/// up — a worker that keeps dying at the same wave is a bug, not a crash.
const MAX_WORKER_RESTARTS: u64 = 8;

/// Chaos hook: make worker `worker` silently exit right before generating
/// global wave `at_wave`, so crash/restart recovery can be exercised
/// deterministically in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WorkerFault {
    /// Worker index to kill.
    pub worker: usize,
    /// Global wave index the worker dies at (it never generates this wave).
    pub at_wave: usize,
}

/// The `workers ≥ 2` body of the [rollout engine](crate::rollout): spawn
/// one rollout worker per shard, merge waves in fixed global order, train
/// after each merged wave, publish the next weight version, and respawn
/// workers that die mid-plan.
pub(crate) fn actor_learner_rollouts(
    agent: &mut Ddpg,
    refined: RefinedModel,
    dataset: &TransitionDataset,
    params: &RolloutParams,
    health: &mut TrainHealth,
    telemetry: &Telemetry,
) -> Result<RolloutOutcome, TrainError> {
    let workers = params.workers;
    let planned = match &params.schedule {
        Some(s) => s.entries.len(),
        None => total_waves(params.rollouts, params.lanes),
    };
    let store = Arc::new(VersionStore::new(
        WeightVersion {
            version: 0,
            policy: agent.policy_weights(),
            dynamics: Arc::new(refined),
        },
        params.schedule.is_some(),
    ));
    // All versions of one inner loop share the iteration's dynamics model.
    let dynamics = store.latest().dynamics.clone();
    let dataset = Arc::new(dataset.clone());

    std::thread::scope(|scope| {
        let spawn = |first_wave: usize, fault_at: Option<usize>| -> ShardReceiver {
            let (tx, rx) = shard_channel();
            let spec = WorkerSpec {
                params,
                planned,
                first_wave,
                fault_at,
            };
            let store = Arc::clone(&store);
            let dataset = Arc::clone(&dataset);
            let telemetry = telemetry.clone();
            scope.spawn(move || {
                run_rollout_worker(&spec, &store, &dataset, &telemetry, &tx);
            });
            rx
        };
        let mut shards: Vec<ShardReceiver> = (0..workers)
            .map(|w| {
                let fault_at = params
                    .fault
                    .as_ref()
                    .filter(|f| f.worker == w)
                    .map(|f| f.at_wave);
                spawn(w, fault_at)
            })
            .collect();

        let mut merge = || -> Result<RolloutOutcome, TrainError> {
            let mut accounting = WaveAccounting::new(params.patience);
            let mut restarts = 0u64;
            let mut schedule = VersionSchedule {
                workers,
                lanes: params.lanes,
                entries: Vec::new(),
            };
            let mut totals: Vec<f64> = Vec::with_capacity(params.lanes);
            for g in 0..planned {
                let w = g % workers;
                let wave = loop {
                    match shards[w].recv() {
                        Ok(wave) => break wave,
                        Err(_) => {
                            // The worker died before producing wave g (its
                            // shard drained everything it did finish).
                            // Respawn it exactly at the gap: waves are pure
                            // functions of (weights, seed), so nothing
                            // before g needs replaying.
                            restarts += 1;
                            assert!(
                                restarts <= MAX_WORKER_RESTARTS,
                                "worker {w} keeps dying at wave {g}; giving up after {restarts} respawns"
                            );
                            shards[w] = spawn(g, None);
                        }
                    }
                };
                assert_eq!(
                    (wave.worker, wave.wave),
                    (w, g),
                    "shard produced a wave out of order"
                );
                let active = active_lanes(g, params.rollouts, params.lanes);
                assert_eq!(wave.active, active, "wave width mismatch");
                schedule.entries.push(WaveEntry {
                    worker: w,
                    wave: g,
                    version: wave.version,
                });
                if telemetry.is_enabled() {
                    record_wave_telemetry(
                        telemetry,
                        w,
                        g,
                        wave.version,
                        shards[w].depth(),
                        wave.steps * wave.active,
                    );
                }

                // Ordered reduction: transitions enter the agent in
                // step-major, lane-minor order — the same order the
                // inline body feeds observe_batch.
                let j = wave.state_dim;
                totals.clear();
                totals.resize(active, 0.0);
                for s in 0..wave.steps {
                    let base = s * active * j;
                    for (l, total) in totals.iter_mut().enumerate() {
                        let off = base + l * j;
                        let reward = wave.rewards[s * active + l];
                        agent.observe(
                            &wave.states[off..off + j],
                            &wave.actions[off..off + j],
                            reward,
                            &wave.next_states[off..off + j],
                        );
                        *total += reward;
                    }
                    for _ in 0..active {
                        let _ = agent.try_train_step(health)?;
                    }
                }
                if !accounting.record_wave(&totals, wave.lend_triggers) {
                    break;
                }
                store.publish(WeightVersion {
                    version: g as u64 + 1,
                    policy: agent.policy_weights(),
                    dynamics: Arc::clone(&dynamics),
                });
            }
            if telemetry.is_enabled() {
                telemetry.counter("train.worker_restarts", restarts);
            }
            Ok(accounting.into_outcome(Some(schedule)))
        };
        let result = merge();
        // Unblock and drain the workers: closing wakes replay waiters,
        // dropping the receivers fails their pending sends.
        store.close();
        drop(shards);
        result
    })
}

/// Emits the per-merged-wave telemetry: worker-step throughput,
/// weight-version lag, and the merged shard's fill level, plus a
/// structured `distributed.wave` event.
fn record_wave_telemetry(
    telemetry: &Telemetry,
    worker: usize,
    wave: usize,
    version: u64,
    shard_depth: usize,
    steps: usize,
) {
    telemetry.counter("train.worker_steps", steps as u64);
    telemetry.gauge("train.weight_version_lag", wave as f64 - version as f64);
    telemetry.gauge("train.replay_shard_depth", shard_depth as f64);
    telemetry.event(
        "distributed.wave",
        &[
            ("worker", Value::UInt(worker as u64)),
            ("wave", Value::UInt(wave as u64)),
            ("version", Value::UInt(version)),
        ],
    );
}
