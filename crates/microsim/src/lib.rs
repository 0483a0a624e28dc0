//! Discrete-event emulator of a microservice workflow system.
//!
//! This crate stands in for the MIRAS paper's real testbed (Google Cloud VMs
//! running Kubernetes, RabbitMQ queues, Docker consumers, and a ZooKeeper
//! task-dependency service). It reproduces the behaviours the paper's
//! resource-adaptation problem depends on:
//!
//! * one FIFO **request queue per task type**, drained by a pool of
//!   **consumers** of identical capacity ([`ConsumerPool`]),
//! * a **task-dependency service** that releases successor tasks when their
//!   AND-join predecessors complete ([`Cluster`] + [`workflow::Dag`]),
//! * **container start-up latency**: scaling a pool up takes 5–10 s per
//!   consumer, like the paper's Kubernetes measurements (§VI-A2),
//! * stochastic, log-normally distributed **service times** per task type,
//! * **discrete decision windows** (default 30 s): resource decisions apply
//!   at window boundaries and the state observed is the per-type
//!   work-in-progress `w(k)` ([`MicroserviceEnv`]),
//! * the paper's reward `r(k) = 1 − Σ_j w_j(k)` and the **total-consumer
//!   constraint** `Σ_j m_j ≤ C`.
//!
//! The emulator is deterministic under a fixed seed.
//!
//! # Examples
//!
//! Run the MSD system for three windows under a uniform allocation:
//!
//! ```
//! use microsim::{EnvConfig, MicroserviceEnv};
//! use workflow::Ensemble;
//!
//! let ensemble = Ensemble::msd();
//! let config = EnvConfig::for_ensemble(&ensemble).with_seed(7);
//! let mut env = MicroserviceEnv::new(ensemble, config);
//! let state = env.reset();
//! assert_eq!(state.len(), 4); // one WIP dimension per task type
//! let action = vec![4, 4, 4, 2]; // 14 consumers total
//! for _ in 0..3 {
//!     let step = env.step(&action);
//!     assert!(step.reward <= 1.0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod cluster;
mod config;
mod env;
mod metrics;
mod pool;
mod slab;
mod workload;

pub use audit::AuditViolation;
pub use cluster::{Cluster, CompletionTotals};
pub use config::{ConfigError, EnvConfig, SimConfig};
pub use env::{background_trace, reward_from_total_wip, EnvSnapshot, MicroserviceEnv, StepOutcome};
pub use metrics::WindowMetrics;
pub use pool::{ConsumerPool, PoolCounters, PoolDesync};
pub use workload::WorkloadSpec;
