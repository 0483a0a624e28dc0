//! Deterministic discrete-event simulation kernel.
//!
//! This crate provides the minimal machinery every simulated subsystem in the
//! MIRAS reproduction is built on: a simulated clock ([`SimTime`]), a stable
//! priority queue of timestamped events ([`EventQueue`]), and an execution
//! engine ([`Engine`]) that repeatedly pops the earliest event and hands it to
//! the caller.
//!
//! Determinism is a first-class goal: two events scheduled for the same
//! instant are delivered in the order they were scheduled (FIFO tie-breaking
//! via a monotonically increasing sequence number), so a fixed RNG seed
//! reproduces a simulation run bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use desim::{Engine, SimTime};
//!
//! // Count ticks of a self-rescheduling clock.
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule(SimTime::ZERO, "tick");
//! let mut ticks = 0;
//! while let Some((now, _ev)) = engine.pop() {
//!     ticks += 1;
//!     if ticks < 10 {
//!         engine.schedule(now + SimTime::from_secs(1), "tick");
//!     }
//! }
//! assert_eq!(ticks, 10);
//! assert_eq!(engine.now(), SimTime::from_secs(9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod queue;
mod time;

pub use engine::{Engine, EngineSnapshot};
pub use queue::{EventQueue, ScheduledEvent};
pub use time::SimTime;
