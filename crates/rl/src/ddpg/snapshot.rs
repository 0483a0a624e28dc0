//! The serialisable capture of a whole [`Ddpg`] agent.

use nn::{Adam, Mlp};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};
use telemetry::Telemetry;

use super::{Critic, Ddpg, DdpgConfig};
use crate::{AdaptiveParamNoise, OrnsteinUhlenbeck, ReplayBuffer, RunningNorm};

/// The complete serialisable state of a [`Ddpg`] agent, produced by
/// [`Ddpg::snapshot`] and consumed by [`Ddpg::from_snapshot`].
///
/// Fields are intentionally private: the snapshot is an opaque token whose
/// only contract is bit-identical resume. It exists as a separate type
/// (rather than serde on `Ddpg` itself) because the RNG stream and the
/// telemetry handle need explicit translation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdpgSnapshot {
    actor: Mlp,
    actor_target: Mlp,
    perturbed_actor: Mlp,
    critic: Critic,
    critic_target: Critic,
    critic2: Option<Critic>,
    critic2_target: Option<Critic>,
    actor_opt: Adam,
    critic_trunk_opt: Adam,
    critic_head_opt: Adam,
    critic2_trunk_opt: Adam,
    critic2_head_opt: Adam,
    replay: ReplayBuffer,
    config: DdpgConfig,
    param_noise: Option<AdaptiveParamNoise>,
    action_noise: Option<OrnsteinUhlenbeck>,
    obs_norm: RunningNorm,
    reward_norm: RunningNorm,
    recent_states: Vec<Vec<f64>>,
    steps_since_resample: usize,
    rng_state: [u64; 4],
    train_steps_done: u64,
}

impl DdpgSnapshot {
    /// The greedy actor and the observation normaliser it was trained
    /// with: all a deployed policy needs, borrowed without restoring the
    /// agent.
    #[must_use]
    pub fn greedy_policy(&self) -> (&Mlp, &RunningNorm) {
        (&self.actor, &self.obs_norm)
    }
}

impl Ddpg {
    /// Captures the agent's complete state — networks, target networks,
    /// optimiser moments, replay buffer, exploration state, normalisers and
    /// the RNG stream — as a serialisable snapshot. Restoring with
    /// [`Ddpg::from_snapshot`] resumes training bit-identically.
    #[must_use]
    pub fn snapshot(&self) -> DdpgSnapshot {
        DdpgSnapshot {
            actor: self.actor.clone(),
            actor_target: self.actor_target.clone(),
            perturbed_actor: self.perturbed_actor.clone(),
            critic: self.critic.clone(),
            critic_target: self.critic_target.clone(),
            critic2: self.critic2.clone(),
            critic2_target: self.critic2_target.clone(),
            actor_opt: self.actor_opt.clone(),
            critic_trunk_opt: self.critic_trunk_opt.clone(),
            critic_head_opt: self.critic_head_opt.clone(),
            critic2_trunk_opt: self.critic2_trunk_opt.clone(),
            critic2_head_opt: self.critic2_head_opt.clone(),
            replay: self.replay.clone(),
            config: self.config.clone(),
            param_noise: self.param_noise.clone(),
            action_noise: self.action_noise.clone(),
            obs_norm: self.obs_norm.clone(),
            reward_norm: self.reward_norm.clone(),
            recent_states: self.recent_states.clone(),
            steps_since_resample: self.steps_since_resample,
            rng_state: self.rng.state(),
            train_steps_done: self.train_steps_done,
        }
    }

    /// Rebuilds an agent from a [`Ddpg::snapshot`] capture. Telemetry is
    /// detached (re-attach with [`Ddpg::set_telemetry`]).
    #[must_use]
    pub fn from_snapshot(s: DdpgSnapshot) -> Self {
        Ddpg {
            actor: s.actor,
            actor_target: s.actor_target,
            perturbed_actor: s.perturbed_actor,
            critic: s.critic,
            critic_target: s.critic_target,
            critic2: s.critic2,
            critic2_target: s.critic2_target,
            actor_opt: s.actor_opt,
            critic_trunk_opt: s.critic_trunk_opt,
            critic_head_opt: s.critic_head_opt,
            critic2_trunk_opt: s.critic2_trunk_opt,
            critic2_head_opt: s.critic2_head_opt,
            replay: s.replay,
            config: s.config,
            param_noise: s.param_noise,
            action_noise: s.action_noise,
            obs_norm: s.obs_norm,
            reward_norm: s.reward_norm,
            recent_states: s.recent_states,
            steps_since_resample: s.steps_since_resample,
            rng: SmallRng::from_state(s.rng_state),
            telemetry: Telemetry::noop(),
            train_steps_done: s.train_steps_done,
            norm_buf: Vec::new(),
        }
    }
}
