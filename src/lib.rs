//! # MIRAS — model-based RL for microservice resource allocation
//!
//! A full Rust reproduction of *MIRAS: Model-based Reinforcement Learning
//! for Microservice Resource Allocation over Scientific Workflows*
//! (Yang, Nguyen, Jin, Nahrstedt — ICDCS 2019).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`workflow`] — workflow DAGs, the MSD and LIGO ensembles, request
//!   bursts and arrival traces,
//! * [`microsim`] — the discrete-event microservice-cluster emulator (the
//!   "real environment") and its arrival-traffic model,
//! * [`nn`] — the neural-network library (MLPs, Adam, parameter noise),
//! * [`rl`] — DDPG with parameter-space exploration,
//! * [`miras_core`] — the MIRAS pipeline: dynamics model, Lend–Giveback
//!   refinement, synthetic environment, iterative trainer,
//! * [`baselines`] — DRS, HEFT, MONAD, model-free DDPG, static allocators,
//! * [`desim`] — the underlying simulation kernel.
//!
//! # Quickstart
//!
//! ```
//! use miras::prelude::*;
//!
//! // Build the paper's MSD workload and environment.
//! let ensemble = Ensemble::msd();
//! let config = EnvConfig::for_ensemble(&ensemble).with_seed(42);
//! let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, config));
//!
//! // Run one (miniature) iteration of the MIRAS training loop.
//! let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(42));
//! let report = trainer.run_iteration(&mut env);
//! assert!(report.model_loss.is_finite());
//!
//! // Deploy the learnt policy: WIP in, consumer allocation out.
//! let agent = trainer.agent();
//! let allocation = agent.allocate(&[12.0, 3.0, 7.0, 1.0]);
//! assert!(allocation.iter().sum::<usize>() <= 14);
//! ```

#![forbid(unsafe_code)]

pub mod flags;

pub use baselines;
pub use desim;
pub use microsim;
pub use miras_core;
pub use nn;
pub use rl;
pub use telemetry;
pub use workflow;

/// Commonly used types, importable in one line.
pub mod prelude {
    pub use baselines::{
        run_episode, Decision, DrsAllocator, HeftAllocator, ModelFreeDdpg, MonadAllocator,
        Observation, Policy, PolicyConfig, PolicyError, UniformAllocator, WipProportionalAllocator,
    };
    pub use desim::SimTime;
    pub use microsim::{
        background_trace, Cluster, ConfigError, EnvConfig, MicroserviceEnv, SimConfig,
        WindowMetrics, WorkloadSpec,
    };
    pub use miras_core::{
        ClusterEnvAdapter, DynamicsModel, EnsembleDynamics, MirasAgent, MirasConfig, MirasTrainer,
        RefinedModel, SyntheticEnv, TransitionDataset,
    };
    pub use rl::{Ddpg, DdpgConfig, Environment, Exploration};
    pub use workflow::{ArrivalTrace, BurstSpec, Dag, Ensemble, TaskTypeId, WorkflowTypeId};
}
