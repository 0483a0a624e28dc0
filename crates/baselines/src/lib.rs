//! Baseline resource-allocation algorithms the MIRAS paper compares against
//! (§VI-D).
//!
//! All baselines implement the one decision trait, [`Policy`] — an
//! [`Observation`] (WIP vector, previous window's metrics, window index) in,
//! consumer allocation out — as does `miras_core::MirasAgent`, so the
//! evaluation harness runs them interchangeably with MIRAS:
//!
//! * [`DrsAllocator`] — *stream* in the paper's figures: DRS (Fu et al.,
//!   ICDCS 2015), a Jackson open-queueing-network allocator that picks the
//!   consumer counts minimising total expected sojourn time via Erlang-C,
//! * [`HeftAllocator`] — *heft*: upward-rank task priorities (Yu & Buyya)
//!   adapted to window-based consumer allocation, weighting queues by both
//!   backlog and rank as §VI-D describes,
//! * [`MonadAllocator`] — *MONAD* (Nguyen & Nahrstedt, ICAC 2017):
//!   model-predictive control with an online-identified linear performance
//!   model and a one-step (short-horizon) lookahead,
//! * [`ModelFreeDdpg`] — *rl*: DDPG trained directly against the real
//!   environment with the same interaction budget as MIRAS (the paper's
//!   sample-efficiency comparison),
//! * [`UniformAllocator`] / [`WipProportionalAllocator`] — static
//!   references.
//!
//! [`run_episode`] is the one closed-loop episode (reset, burst, trace,
//! then a decision per window) that the CLI, the bench harness, the audit
//! and the serving recorder all run a policy through.
//!
//! # Examples
//!
//! ```
//! use baselines::{Observation, Policy, UniformAllocator};
//!
//! let mut alloc = UniformAllocator::new(4, 14);
//! let m = alloc.allocate(&Observation::first(&[10.0, 0.0, 5.0, 2.0]));
//! assert_eq!(m.iter().sum::<usize>(), 14);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drs;
mod episode;
mod heft;
mod model_free;
mod monad;
mod policy;
pub mod queueing;
mod statics;

pub use drs::DrsAllocator;
pub use episode::run_episode;
pub use heft::HeftAllocator;
pub use model_free::{train_model_free, ModelFreeDdpg};
pub use monad::MonadAllocator;
pub use policy::{
    by_name, fallback, known_policies, Decision, Observation, Policy, PolicyConfig, PolicyError,
    FALLBACK_POLICY,
};
pub use statics::{UniformAllocator, WipProportionalAllocator};
