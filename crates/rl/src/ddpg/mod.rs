//! Deep deterministic policy gradient with parameter-space exploration.

mod config;
mod critic;
mod health;
mod learner;
mod snapshot;

pub use config::{DdpgConfig, Exploration};
pub(crate) use critic::Critic;
pub use health::{TrainError, TrainHealth, TrainStats};
pub use learner::Ddpg;
pub use snapshot::DdpgSnapshot;
