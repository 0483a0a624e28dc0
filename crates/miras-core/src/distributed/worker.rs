//! The rollout worker: generates whole waves under frozen weight snapshots.

use std::sync::Arc;

use nn::Matrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::replay_shard::{ShardSender, WaveResult};
use super::weights::VersionStore;
use crate::rollout::RolloutParams;
use crate::{BatchedSyntheticEnv, TransitionDataset};

/// Multiplier applied to the global wave index when deriving a wave's env
/// seed from the iteration's synth seed (the SplitMix64 odd multiplier —
/// a second Weyl-style stream, orthogonal to the per-lane
/// [`LANE_SEED_STRIDE`](crate::BatchedSyntheticEnv::LANE_SEED_STRIDE)
/// split applied on top of it).
pub(crate) const WAVE_SEED_STRIDE: u64 = 0xBF58_476D_1CE4_E5B9;

/// XOR salt separating a wave's exploration-noise stream from its env
/// stream (another odd 64-bit mixing constant).
const NOISE_STREAM_SALT: u64 = 0x94D0_49BB_1331_11EB;

/// Seed for global wave `g`'s environment lanes. Lane `i` of the wave then
/// runs on `wave_seed + i · LANE_SEED_STRIDE`, exactly as a fresh
/// [`BatchedSyntheticEnv`] would. Distinct `(wave, lane)` pairs get
/// distinct streams for all practical wave/lane counts (both strides are
/// odd, so collisions need ≈ 2⁶⁴-scale indices).
#[must_use]
pub(crate) fn wave_seed(synth_seed: u64, wave: usize) -> u64 {
    synth_seed.wrapping_add((wave as u64).wrapping_mul(WAVE_SEED_STRIDE))
}

/// Number of waves a rollout budget of `rollouts` takes at `lanes` lanes
/// per wave (the last wave may be narrower).
#[must_use]
pub(crate) fn total_waves(rollouts: usize, lanes: usize) -> usize {
    assert!(lanes > 0, "need at least one lane");
    rollouts.div_ceil(lanes)
}

/// Lanes active in global wave `wave`: full waves of `lanes`, except a
/// narrower final wave when `lanes` does not divide `rollouts`.
#[must_use]
pub(crate) fn active_lanes(wave: usize, rollouts: usize, lanes: usize) -> usize {
    lanes.min(rollouts - (wave * lanes).min(rollouts))
}

/// A (re)spawned worker's slice of the engine's wave plan.
#[derive(Debug, Clone)]
pub(super) struct WorkerSpec<'a> {
    /// The inner loop's parameters (worker count = the stride between
    /// this worker's waves).
    pub params: &'a RolloutParams,
    /// Waves the learner will merge: the full budget live, the recorded
    /// ones in replay (an early-stopped run records fewer).
    pub planned: usize,
    /// First global wave this (re)spawn generates — the worker's index
    /// (`first_wave mod workers`) for an initial spawn, the crashed wave
    /// for a respawn.
    pub first_wave: usize,
    /// Chaos hook: silently exit *instead of* generating this global wave
    /// (models a worker crash; the learner respawns from the gap).
    pub fault_at: Option<usize>,
}

/// The worker loop: for each of its waves, adopt a weight version (the
/// freshest in live mode, the recorded one in replay mode), reseed the
/// env to the wave's seed, roll `rollout_len` steps under one frozen
/// perturbed policy, and push the wave into the shard.
///
/// Exits when its waves are exhausted, when the learner hangs up (send or
/// version wait fails), or at the injected fault.
pub(super) fn run_rollout_worker(
    spec: &WorkerSpec<'_>,
    store: &VersionStore,
    dataset: &Arc<TransitionDataset>,
    telemetry: &telemetry::Telemetry,
    tx: &ShardSender,
) {
    // Workers ARE the parallelism: force the nn kernels serial inside this
    // thread so `workers × NN_NUM_THREADS` nested pools don't oversubscribe
    // the machine. Kernels are bit-identical at any thread count, so this
    // is a scheduling choice, not a numeric one.
    nn::threads::with_serial(|| run_waves(spec, store, dataset, telemetry, tx));
}

fn run_waves(
    spec: &WorkerSpec<'_>,
    store: &VersionStore,
    dataset: &Arc<TransitionDataset>,
    telemetry: &telemetry::Telemetry,
    tx: &ShardSender,
) {
    let p = spec.params;
    let mut env: Option<BatchedSyntheticEnv> = None;
    let mut g = spec.first_wave;
    while g < spec.planned {
        if spec.fault_at == Some(g) {
            return; // injected crash: drop the sender mid-plan
        }
        let version = match &p.schedule {
            None => store.latest(),
            Some(s) => match store.wait_for(s.entries[g].version) {
                Some(v) => v,
                None => return, // learner stopped early
            },
        };
        // The env is built once (all versions of an iteration share one
        // dynamics model) and re-pointed at each wave's seed; placement
        // seed 0 is irrelevant because every wave reseeds before reset.
        let env = env.get_or_insert_with(|| {
            let mut env = BatchedSyntheticEnv::new(
                (*version.dynamics).clone(),
                (**dataset).clone(),
                p.consumer_budget,
                0,
                p.lanes,
            );
            env.set_telemetry(telemetry.clone());
            env
        });
        let seed = wave_seed(p.synth_seed, g);
        let active = active_lanes(g, p.rollouts, p.lanes);
        env.reseed_lanes(seed);
        env.reset(active);
        let mut noise_rng = SmallRng::seed_from_u64(seed ^ NOISE_STREAM_SALT);
        let policy = version.policy.perturbed(&mut noise_rng);

        let j = env.state_dim();
        let lend_before = env.lend_triggers();
        let mut wave =
            WaveResult::with_capacity(g % p.workers, g, version.version, active, j, p.rollout_len);
        let mut prev = Matrix::zeros(active, j);
        for _ in 0..p.rollout_len {
            prev.as_mut_slice().copy_from_slice(env.states().as_slice());
            let actions = policy.act_batch(&prev);
            env.step(&actions);
            wave.states.extend_from_slice(prev.as_slice());
            wave.actions.extend_from_slice(actions.as_slice());
            wave.rewards.extend_from_slice(env.rewards());
            wave.next_states.extend_from_slice(env.states().as_slice());
        }
        wave.lend_triggers = env.lend_triggers() - lend_before;
        if tx.send(wave).is_err() {
            return; // learner hung up
        }
        g += p.workers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_plan_partitions_the_rollout_budget() {
        assert_eq!(total_waves(10, 4), 3);
        assert_eq!(active_lanes(0, 10, 4), 4);
        assert_eq!(active_lanes(1, 10, 4), 4);
        assert_eq!(active_lanes(2, 10, 4), 2);
        assert_eq!(total_waves(8, 4), 2);
        assert_eq!(active_lanes(1, 8, 4), 4);
        assert_eq!(total_waves(1, 16), 1);
        assert_eq!(active_lanes(0, 1, 16), 1);
        // Every wave's active count sums back to the budget.
        for (rollouts, lanes) in [(10, 4), (64, 16), (5, 8), (7, 1)] {
            let sum: usize = (0..total_waves(rollouts, lanes))
                .map(|g| active_lanes(g, rollouts, lanes))
                .sum();
            assert_eq!(sum, rollouts, "rollouts={rollouts} lanes={lanes}");
        }
    }

    #[test]
    fn wave_seeds_are_distinct_across_nearby_waves() {
        let seeds: Vec<u64> = (0..64).map(|g| wave_seed(42, g)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
