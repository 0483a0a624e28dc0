//! Reinforcement-learning toolkit for the MIRAS reproduction.
//!
//! Implements the policy-learning half of the paper (§IV-A, §IV-D):
//!
//! * [`Environment`] — the minimal continuing-task RL interface shared by
//!   the real emulated cluster and the learnt synthetic environment,
//! * [`ReplayBuffer`] — a bounded transition store sampled for minibatches,
//! * [`Ddpg`] — deep deterministic policy gradient with an actor whose
//!   softmax output enforces the consumer-budget constraint by construction
//!   and a critic that injects the action at its second hidden layer, as the
//!   paper specifies (§VI-A3),
//! * `AdaptiveParamNoise` — parameter-space exploration (Plappert et al.),
//!   the paper's exploration mechanism, plus `OrnsteinUhlenbeck`
//!   action-space noise as the ablation baseline,
//! * [`policy`] — the mapping between softmax action distributions and
//!   integer consumer allocations, `m_j = ⌊C · a_j⌋`.
//!
//! # Examples
//!
//! Train DDPG on a toy quadratic environment:
//!
//! ```
//! use rl::{Ddpg, DdpgConfig, Environment};
//!
//! struct Toy { state: Vec<f64> }
//! impl Environment for Toy {
//!     fn state_dim(&self) -> usize { 2 }
//!     fn action_dim(&self) -> usize { 2 }
//!     fn reset(&mut self) -> Vec<f64> { self.state = vec![1.0, 1.0]; self.state.clone() }
//!     fn step(&mut self, action: &[f64]) -> rl::Transition {
//!         // Reward peaks when the action matches [0.5, 0.5].
//!         let r = -action.iter().map(|a| (a - 0.5).powi(2)).sum::<f64>();
//!         rl::Transition { next_state: self.state.clone(), reward: r }
//!     }
//! }
//!
//! let mut env = Toy { state: vec![] };
//! let mut agent = Ddpg::new(2, 2, DdpgConfig::small_test(0));
//! let mut s = env.reset();
//! for _ in 0..64 {
//!     let a = agent.act_exploratory(&s);
//!     let t = env.step(&a);
//!     agent.observe(&s, &a, t.reward, &t.next_state);
//!     s = t.next_state;
//!     agent.train_step();
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ddpg;
mod env;
mod noise;
mod norm;
pub mod policy;
mod replay;

pub use ddpg::{Ddpg, DdpgConfig, DdpgSnapshot, Exploration, TrainError, TrainHealth, TrainStats};
pub use env::{Environment, Transition};
pub(crate) use noise::{AdaptiveParamNoise, OrnsteinUhlenbeck};
pub use norm::RunningNorm;
pub use replay::{ReplayBuffer, StoredTransition};
