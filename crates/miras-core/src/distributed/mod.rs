//! Distributed actor–learner training: async rollout workers, sharded
//! replay, versioned weight broadcast.
//!
//! This module splits the inner policy loop of Algorithm 2 (the
//! synthetic-rollout + DDPG-update phase driven by
//! [`MirasTrainer`](crate::MirasTrainer)) into an actor–learner system in
//! the style of DRPC, selected by `workers ≥ 2`:
//!
//! * **N rollout workers** (`worker` module) each own a lane-batched
//!   [`BatchedSyntheticEnv`](crate::BatchedSyntheticEnv) plus a read-only
//!   snapshot of the actor/dynamics weights, generate whole rollout *waves*
//!   (one `lanes`-wide batch of synthetic rollouts), and push them into a
//!   **sharded replay stream** (`replay_shard` module) — one bounded
//!   channel per worker, so a slow learner applies backpressure instead of
//!   buffering unboundedly.
//! * **One central learner** (`learner` module) drains the shards in a
//!   *fixed visitation order* (wave `g` always comes from shard
//!   `g mod workers`), feeds every transition to the DDPG agent in a
//!   deterministic ordered reduction, and after each merged wave broadcasts
//!   an immutable, versioned weight snapshot
//!   ([`WeightVersion`]) through the [`VersionStore`]. Workers adopt the
//!   freshest published version at wave boundaries.
//!
//! # Determinism contract
//!
//! Asynchrony moves exactly **one** bit of nondeterminism into the run:
//! *which* weight version each worker happened to adopt for each wave. The
//! learner records that choice in a [`VersionSchedule`] manifest (one
//! [`WaveEntry`] per merged wave). Everything else is pinned:
//!
//! * Wave `g` is a **pure function of `(weights, seed)`**: its environment
//!   lanes are reseeded from `wave_seed(synth_seed, g)` (the PR-4
//!   `LANE_SEED_STRIDE` split applied on top of a per-wave
//!   [`WAVE_SEED_STRIDE`] stream), and its exploration is one actor-weight
//!   perturbation drawn from a wave-local RNG. No wave depends on any
//!   other wave's RNG history, which is also what makes a restarted worker
//!   able to regenerate wave `g` without replaying waves `0..g`.
//! * The learner merges waves in global wave order and consumes its own
//!   minibatch RNG in that order.
//! * Version `g + 1` is published immediately after merging wave `g`, so a
//!   recorded version `v ≤ g` is always *available* when a replay worker
//!   asks for it — replaying a schedule cannot deadlock.
//!
//! Re-running with the recorded schedule forced
//! ([`MirasTrainer::try_run_iteration_scheduled`](crate::MirasTrainer::try_run_iteration_scheduled))
//! therefore reproduces the original run **bit for bit** — same reports,
//! same agent weights — regardless of thread timing, and regardless of
//! whether a worker crashed and was respawned along the way.
//!
//! # Relation to the inline engine
//!
//! This module is the `workers ≥ 2` body of the
//! [rollout engine](crate::MirasTrainer::try_run_iteration_scheduled);
//! `workers ≤ 1` runs the same wave plan inline on the calling thread with
//! the live agent acting, and records no schedule. Workers here act on
//! *frozen* per-wave policy snapshots (observation normaliser and
//! parameter-noise σ included), so results are deterministic-but-different
//! from the inline body: a throughput regime, not a replay of it.

mod learner;
mod replay_shard;
mod weights;
mod worker;

pub(crate) use learner::{actor_learner_rollouts, WorkerFault};
pub(crate) use weights::VersionSchedule;
#[cfg(test)]
pub(crate) use weights::WaveEntry;
pub(crate) use worker::{active_lanes, total_waves};
