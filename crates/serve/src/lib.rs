//! `miras-serve`: the trained autoscaler as a long-running decision
//! service.
//!
//! Everything else in this workspace is batch figure-generation; this
//! crate is the deployable artifact the paper ultimately describes — a
//! *controller* that continuously maps window observations to allocation
//! actions:
//!
//! * **Wire format** ([`WindowObservation`] in, [`DecisionRecord`] out):
//!   JSON Lines over stdin/stdout, a TCP socket, or a Unix socket
//!   ([`Listener`]). One intake serves every mode (sockets, stdin,
//!   `--replay`, chaos): lines are bounded at [`MAX_LINE_BYTES`] while
//!   read, and malformed, non-UTF-8, oversized, or wrong-shape lines are
//!   skipped and counted ([`WireError`], `serve.wire_rejected`) — one bad
//!   line never aborts a stream.
//! * **Decision loop** ([`DecisionService`]): wraps any registry-built
//!   [`Policy`](baselines::Policy) with per-decision latency measurement
//!   (the <1 ms/decision budget is checked against the exact
//!   nearest-rank p99, [`LatencyStats`]) and telemetry. With a deadline
//!   and a fallback attached, a primary decision that overruns its budget
//!   is replaced by the cheap deterministic fallback policy's decision,
//!   stamped `degraded: true` — the controller always answers on time.
//! * **Admission control** ([`AdmissionQueue`], [`ShedPolicy`]): a bounded
//!   inbound queue between client readers and the single decision thread;
//!   overflow is shed with an immediate typed `status: "shed"` reply
//!   rather than blocking anyone.
//! * **Multi-client serving** ([`serve_clients`]): N concurrent
//!   connections, per-client reader threads, one decision thread,
//!   graceful drain on shutdown; transient socket failures get bounded
//!   retry with exponential backoff.
//! * **Checkpoint hot-swap** ([`CheckpointWatcher`]): the watched path is
//!   polled between windows and the policy swapped atomically — no
//!   request is ever dropped or split across policies. A poll is one
//!   `stat`: only a changed `(len, mtime, ctime, inode, device)` key
//!   triggers the full probe, on the decision thread. The probe reads the
//!   file's first line, its policy line, and fingerprints it (FNV-1a);
//!   only a new fingerprint decodes that same buffer into the new policy,
//!   so a swap opens the file once and never reads the training state
//!   behind the line. A rewrite of the training state alone, or a
//!   `touch`, does not swap. [`load_policy`] reads the same line. A
//!   background verifier re-hashes the policy line about once a second
//!   and forces a re-probe when it changed, so same-length rewrites within
//!   one timestamp tick are still caught. A file whose first line is not
//!   a policy line (a bare agent, or a version-1 checkpoint's one line of
//!   training state) is a failed swap, and so is one whose policy has a
//!   different task-type count; either way the old policy keeps serving.
//! * **Scrape endpoint** ([`spawn_metrics_endpoint`]): the telemetry
//!   subsystem rendered as a plaintext `/metrics` page.
//! * **Shadow mode / determinism proof** ([`replay_stream`]): decision
//!   records contain no wall-clock, so a streaming run's output is
//!   byte-identical to a batch replay of the same stream at the same
//!   checkpoint.
//! * **Chaos harness** ([`chaos`]): seeded fault schedules (malformed
//!   lines, disconnects, stalls, overload bursts, checkpoint corruption)
//!   replayed deterministically against the production components, with
//!   machine-checked invariants ([`chaos::verify`]). Its consumers are
//!   the test suites: `tests/chaos_properties.rs` here, and
//!   `crates/bench/tests/chaos_invariants.rs` against a trained, watched
//!   checkpoint.
//!
//! # Examples
//!
//! ```
//! use baselines::{by_name, PolicyConfig};
//! use serve::{replay_stream, DecisionService};
//! use telemetry::Telemetry;
//! use workflow::Ensemble;
//!
//! let cfg = PolicyConfig::new(&Ensemble::msd());
//! let stream = "{\"window\":0,\"wip\":[3.0,1.0,0.0,2.0]}\n";
//!
//! // Live service...
//! let mut svc = DecisionService::new(by_name("uniform", &cfg).unwrap(), Telemetry::noop());
//! let live = svc.handle_stream(stream);
//!
//! // ...is byte-identical to a bare batch replay.
//! let mut policy = by_name("uniform", &cfg).unwrap();
//! let batch = replay_stream(policy.as_mut(), stream);
//! assert_eq!(live, batch);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
pub mod chaos;
mod intake;
mod net;
mod retry;
mod server;
mod service;
mod watcher;
mod wire;

pub use admission::{
    AdmissionConfig, AdmissionQueue, CountersSnapshot, PushOutcome, ServeCounters, ShedPolicy,
};
pub use net::{spawn_metrics_endpoint, Listener};
pub use server::{serve_clients, ServerConfig, ServerReport};
pub use service::{record_stream, replay_stream, DecisionService, LatencyStats, ServeError};
pub use watcher::{load_policy, CheckpointWatcher, LoadError, SwapOutcome};
pub use wire::{
    parse_observation_line, DecisionRecord, DecisionStatus, WindowObservation, WireError,
    MAX_LINE_BYTES,
};
