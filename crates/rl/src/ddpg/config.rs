//! DDPG hyper-parameters and the exploration strategy.

use serde::{Deserialize, Serialize};

/// The exploration strategy used while collecting experience.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Exploration {
    /// Parameter-space noise (the paper's choice, §IV-D): perturb a copy of
    /// the actor's weights; adapt the scale so the induced action-space
    /// distance tracks a fixed target (initial σ 0.05, target distance 0.1,
    /// adaption factor 1.01).
    ParamNoise {
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
    /// Standardise rewards with running statistics at batch-build time
    /// (OpenAI Baselines' `normalize_returns` analogue). The WIP reward
    /// spans two orders of magnitude between steady state and burst
    /// recovery; a fixed scale cannot condition the critic across both.
    pub normalize_rewards: bool,
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
            exploration: Exploration::ParamNoise { resample_every: 25 },
            normalize_rewards: true,
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
            exploration: Exploration::ParamNoise { resample_every: 10 },
            normalize_rewards: false,
            entropy_weight: 0.01,
            seed,
        }
    }
}
