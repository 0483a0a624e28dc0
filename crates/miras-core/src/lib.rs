//! MIRAS: model-based reinforcement learning for microservice resource
//! allocation over scientific workflows (Yang et al., ICDCS 2019).
//!
//! This crate is the paper's contribution. It composes the substrates
//! ([`microsim`] for the emulated cluster, [`nn`] for neural networks,
//! [`rl`] for DDPG with parameter-space exploration) into the full
//! model-based training pipeline:
//!
//! 1. **Environment-model learning** (§IV-C1): [`DynamicsModel`], a neural
//!    network `f̂_Φ(s, a) → ŝ'` trained with one-step mean-squared error on
//!    transitions collected from the real system ([`TransitionDataset`]).
//! 2. **Model refinement** (§IV-C2, Algorithm 1): [`RefinedModel`], the
//!    Lend–Giveback procedure that fixes the model's behaviour near the
//!    WIP ≈ 0 boundary.
//! 3. **Policy learning** (§IV-D): DDPG trained against the learnt model
//!    wrapped as a synthetic environment ([`BatchedSyntheticEnv`], with
//!    [`SyntheticEnv`] as its single-environment reference).
//! 4. **The iterative loop** (§IV-E, Algorithm 2): [`MirasTrainer`]
//!    alternates real-environment data collection, model retraining, and
//!    policy improvement; the result is a [`MirasAgent`] producing consumer
//!    allocations under the budget constraint.
//!
//! # Examples
//!
//! Train a (miniature) MIRAS agent on the MSD ensemble:
//!
//! ```
//! use miras_core::{ClusterEnvAdapter, MirasConfig, MirasTrainer};
//! use microsim::{EnvConfig, MicroserviceEnv};
//! use workflow::Ensemble;
//!
//! let ensemble = Ensemble::msd();
//! let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(1);
//! let env = MicroserviceEnv::new(ensemble, env_config);
//! let mut real_env = ClusterEnvAdapter::new(env);
//! // A deliberately tiny configuration so the doctest runs quickly.
//! let config = MirasConfig::smoke_test(7);
//! let mut trainer = MirasTrainer::new(&real_env, config);
//! let report = trainer.run_iteration(&mut real_env);
//! assert!(report.model_loss.is_finite());
//! let agent = trainer.agent();
//! let allocation = agent.allocate(&[5.0, 3.0, 2.0, 1.0]);
//! assert!(allocation.iter().sum::<usize>() <= 14);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod agent;
mod batch_env;
mod checkpoint;
mod config;
mod dataset;
mod dynamics;
mod ensemble_model;
mod refine;
mod rollout;
mod synth_env;
mod trainer;

pub use adapter::{AdapterSnapshot, ClusterEnvAdapter};
pub use agent::MirasAgent;
pub use batch_env::BatchedSyntheticEnv;
pub use checkpoint::{
    decode_policy_line, read_policy_line, save_policy, CheckpointError, CheckpointPayload,
};
pub use config::{MirasConfig, RolloutMode};
pub use dataset::{Transition, TransitionDataset};
pub use dynamics::DynamicsModel;
pub use ensemble_model::EnsembleDynamics;
pub use microsim::ConfigError;
pub use refine::RefinedModel;
pub use synth_env::SyntheticEnv;
pub use trainer::{IterationReport, MirasTrainer, TrainerError};
