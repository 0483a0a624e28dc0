//! DDPG hyper-parameters and the exploration strategy.

use serde::{Deserialize, Serialize};

/// The exploration strategy used while collecting experience.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Exploration {
    /// Parameter-space noise (the paper's choice, §IV-D): perturb a copy of
    /// the actor's weights; adapt the scale so the induced action-space
    /// distance tracks `delta`.
    ParamNoise {
        /// Initial perturbation standard deviation.
        initial_sigma: f64,
        /// Target action-space distance.
        delta: f64,
        /// Multiplicative adaption factor (> 1).
        alpha: f64,
        /// Re-perturb (and adapt) every this many exploratory actions.
        resample_every: usize,
    },
    /// Ornstein–Uhlenbeck noise added to the action, then re-projected onto
    /// the probability simplex — the classical DDPG exploration the paper
    /// compares against.
    ActionNoise {
        /// Mean-reversion rate.
        theta: f64,
        /// Volatility.
        sigma: f64,
    },
}

/// DDPG hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdpgConfig {
    /// Hidden-layer widths shared by actor and critic (paper: `[256; 3]` for
    /// MSD, `[512; 3]` for LIGO).
    pub hidden: Vec<usize>,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Polyak target-update coefficient τ.
    pub tau: f64,
    /// Minibatch size.
    pub batch_size: usize,
    /// Replay-buffer capacity.
    pub buffer_capacity: usize,
    /// Exploration strategy.
    pub exploration: Exploration,
    /// Global gradient-norm clip.
    pub grad_clip: Option<f64>,
    /// Rewards are multiplied by this factor before being stored in the
    /// replay buffer. The paper's reward `1 − Σ w` reaches hundreds in
    /// magnitude under bursts; scaling keeps critic targets well
    /// conditioned without changing the optimal policy.
    pub reward_scale: f64,
    /// Standardise rewards with running statistics at batch-build time
    /// (OpenAI Baselines' `normalize_returns` analogue). The WIP reward
    /// spans two orders of magnitude between steady state and burst
    /// recovery; a fixed scale cannot condition the critic across both.
    pub normalize_rewards: bool,
    /// Train a second, independently initialised critic and use the
    /// minimum of the two target critics when forming TD targets (the
    /// clipped double-Q trick of TD3, Fujimoto et al.). Counters the value
    /// overestimation vanilla DDPG is prone to; off by default to match the
    /// paper's vanilla actor-critic.
    pub twin_critic: bool,
    /// Weight of the entropy bonus added to the actor objective
    /// (maximise `Q + β·H(π(s))`). A softmax actor that saturates to a
    /// one-hot vertex has a vanishing Jacobian — exploration noise can no
    /// longer move it and learning stalls; the entropy term keeps the
    /// policy off the vertices. Set to 0 to disable.
    pub entropy_weight: f64,
    /// RNG seed (weight init, sampling, noise).
    pub seed: u64,
}

impl DdpgConfig {
    /// The paper's configuration scaled to a hidden width (256 for MSD, 512
    /// for LIGO).
    #[must_use]
    pub fn paper(hidden_width: usize, seed: u64) -> Self {
        DdpgConfig {
            hidden: vec![hidden_width; 3],
            actor_lr: 1e-4,
            critic_lr: 1e-3,
            gamma: 0.95,
            tau: 1e-2,
            batch_size: 64,
            buffer_capacity: 100_000,
            exploration: Exploration::ParamNoise {
                initial_sigma: 0.05,
                delta: 0.1,
                alpha: 1.01,
                resample_every: 25,
            },
            grad_clip: Some(10.0),
            reward_scale: 1.0,
            normalize_rewards: true,
            twin_critic: false,
            entropy_weight: 2.0,
            seed,
        }
    }

    /// A tiny configuration for unit tests and doctests.
    #[must_use]
    pub fn small_test(seed: u64) -> Self {
        DdpgConfig {
            hidden: vec![16, 16],
            actor_lr: 1e-3,
            critic_lr: 1e-2,
            gamma: 0.9,
            tau: 0.05,
            batch_size: 8,
            buffer_capacity: 1_000,
            exploration: Exploration::ParamNoise {
                initial_sigma: 0.05,
                delta: 0.1,
                alpha: 1.01,
                resample_every: 10,
            },
            grad_clip: Some(10.0),
            reward_scale: 1.0,
            normalize_rewards: false,
            twin_critic: false,
            entropy_weight: 0.01,
            seed,
        }
    }
}
