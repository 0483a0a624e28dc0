//! Seeded chaos harness for the serving path.
//!
//! The harness separates *what goes wrong* from *when it goes wrong*: a
//! [`ChaosConfig`] (seed + fault rates) expands a clean observation stream
//! into a [`ChaosSchedule`] — an explicit, replayable sequence of
//! deliveries, malformed lines, disconnects, stalls, queue pops and
//! checkpoint corruption — and [`run_schedule`] executes that sequence
//! single-threaded against the *production* components
//! ([`AdmissionQueue`], [`DecisionService`], the serving intake and its
//! line bound). Because the schedule fixes
//! the interleaving, every run of a given seed is byte-identical, which
//! turns "no panic under chaos" and "exactly one reply per admitted
//! window" from flaky observations into deterministic properties.
//!
//! The threaded server exercises the same components under real
//! concurrency (see `tests/overload.rs`); the chaos executor is the piece
//! that makes failure schedules *reproducible*.

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::admission::{AdmissionConfig, AdmissionQueue, CountersSnapshot};
use crate::intake::Admitted;
use crate::service::DecisionService;
use crate::wire::{DecisionRecord, LineRead, MAX_LINE_BYTES};

/// SplitMix64 — tiny, seedable, excellent diffusion; enough for fault
/// scheduling and keeps `serve` free of the `rand` dependency.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    #[must_use]
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (n >= 1).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli with probability `p`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.unit() < p
    }
}

/// Chaos fault mix: a seed plus per-event fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Schedule seed — same seed, same schedule, same bytes out.
    pub seed: u64,
    /// Simulated concurrent clients the stream is sharded over.
    pub clients: usize,
    /// Probability of injecting a malformed line before a delivery.
    pub malformed: f64,
    /// Probability a delivery is followed by that client disconnecting.
    pub disconnect: f64,
    /// Probability of stalling the next decision past any deadline.
    pub stall: f64,
    /// Probability of corrupting (and later restoring) the watched
    /// checkpoint between deliveries.
    pub corrupt: f64,
    /// Average deliveries per queue pop; > 1 creates standing overload so
    /// admission control actually sheds.
    pub burst: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            clients: 2,
            malformed: 0.08,
            disconnect: 0.03,
            stall: 0.05,
            corrupt: 0.03,
            burst: 3,
        }
    }
}

impl ChaosConfig {
    /// A fault-free configuration (used by the chaos-off control run that
    /// must reproduce batch replay byte-for-byte).
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            clients: 1,
            malformed: 0.0,
            disconnect: 0.0,
            stall: 0.0,
            corrupt: 0.0,
            burst: 1,
        }
    }
}

/// One step of a chaos schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosEvent {
    /// A client delivers one raw wire line (possibly malformed).
    Deliver {
        /// Simulated client id.
        client: usize,
        /// The raw line, newline-free.
        line: String,
    },
    /// A client drops its connection; later replies to it are undeliverable.
    Disconnect {
        /// Simulated client id.
        client: usize,
    },
    /// The next decision's effective latency gains this stall
    /// (accounting-only — deterministic deadline misses, no real sleep).
    Stall {
        /// Injected stall in microseconds.
        micros: u64,
    },
    /// The decision thread pops and decides one admitted window.
    Pop,
    /// The watched checkpoint file is overwritten with garbage
    /// (mid-hot-swap corruption).
    CorruptCheckpoint,
    /// The watched checkpoint file is restored to its original bytes.
    RestoreCheckpoint,
}

/// A fully expanded, replayable fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// The configuration that generated it.
    pub config: ChaosConfig,
    /// The event sequence.
    pub events: Vec<ChaosEvent>,
}

/// The malformed-line corpus: every wire-rejection class the parser knows.
/// The oversized entry exceeds the serving bound, [`MAX_LINE_BYTES`], by
/// one byte.
#[must_use]
pub(crate) fn malformed_corpus() -> Vec<String> {
    vec![
        "this is not json".to_string(),
        "{\"window\":1,\"wip\":[1.0".to_string(), // truncated mid-list
        "{\"window\":true}".to_string(),          // wrong types
        "{}".to_string(),                         // missing fields
        "{\"window\":2,\"wip\":[1.0,\"x\"]}".to_string(),
        // 1e999 parses to +inf: valid JSON, non-finite WIP.
        "{\"window\":3,\"wip\":[1e999,1.0,1.0,1.0]}".to_string(),
        "\u{fffd}\u{0}binary\u{1}garbage".to_string(),
        "x".repeat(MAX_LINE_BYTES + 1),
        "[1,2,3]".to_string(), // valid JSON, wrong shape
    ]
}

/// Expands `base_lines` (a clean JSONL observation stream, one line per
/// window) into a seeded fault schedule per `config`.
#[must_use]
pub fn generate_schedule(config: &ChaosConfig, base_lines: &[String]) -> ChaosSchedule {
    let mut rng = SplitMix64::new(config.seed);
    let corpus = malformed_corpus();
    let mut events = Vec::with_capacity(base_lines.len() * 2);
    let mut since_pop = 0usize;
    for line in base_lines {
        let client = rng.below(config.clients as u64) as usize;
        if rng.chance(config.malformed) {
            let bad = corpus[rng.below(corpus.len() as u64) as usize].clone();
            events.push(ChaosEvent::Deliver {
                client: rng.below(config.clients as u64) as usize,
                line: bad,
            });
        }
        if rng.chance(config.corrupt) {
            events.push(ChaosEvent::CorruptCheckpoint);
        }
        if rng.chance(config.stall) {
            events.push(ChaosEvent::Stall {
                micros: 1_000_000 + rng.below(1_000_000),
            });
        }
        events.push(ChaosEvent::Deliver {
            client,
            line: line.clone(),
        });
        since_pop += 1;
        // Pop on average once per `burst` deliveries, so the queue runs hot
        // and admission control has something to do.
        if since_pop >= config.burst || rng.chance(1.0 / config.burst as f64) {
            events.push(ChaosEvent::Pop);
            since_pop = 0;
        }
        if rng.chance(config.corrupt) {
            events.push(ChaosEvent::RestoreCheckpoint);
        }
        if rng.chance(config.disconnect) {
            events.push(ChaosEvent::Disconnect {
                client: rng.below(config.clients as u64) as usize,
            });
        }
    }
    // Always end restored, so the next run of the same checkpoint starts
    // from the same bytes.
    if events.contains(&ChaosEvent::CorruptCheckpoint) {
        events.push(ChaosEvent::RestoreCheckpoint);
    }
    ChaosSchedule {
        config: *config,
        events,
    }
}

/// One reply the executor produced (or failed to deliver).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReply {
    /// The client it was addressed to.
    pub client: usize,
    /// The wire record.
    pub record: DecisionRecord,
    /// Whether the client was still connected (false = counted under
    /// `dropped_replies`).
    pub delivered: bool,
}

/// Everything a chaos run produced, for invariant checking and
/// byte-determinism comparison.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Every reply in execution order, including undeliverable ones.
    pub replies: Vec<ChaosReply>,
    /// Valid observations delivered by still-connected clients (admitted
    /// or shed — each must map to exactly one reply).
    pub delivered_valid: u64,
    /// Malformed/oversized/bad-dims lines delivered by still-connected
    /// clients.
    pub delivered_rejected: u64,
    /// Final overload counters.
    pub counters: CountersSnapshot,
    /// Hot-swaps that succeeded during the run.
    pub swaps: u64,
}

impl ChaosOutcome {
    /// The delivered wire bytes per client — the object of the
    /// byte-determinism property.
    #[must_use]
    pub fn transcript(&self, clients: usize) -> Vec<String> {
        let mut out = vec![String::new(); clients];
        for reply in &self.replies {
            if reply.delivered {
                out[reply.client].push_str(&reply.record.to_line());
                out[reply.client].push('\n');
            }
        }
        out
    }

    /// Replies that carried allocations (normal + degraded).
    #[must_use]
    pub fn decisions(&self) -> usize {
        self.replies
            .iter()
            .filter(|r| r.record.is_actionable())
            .count()
    }
}

/// Executes a schedule against a service, single-threaded, reusing the
/// production [`AdmissionQueue`]. `checkpoint` is the watched checkpoint
/// path for corruption events (pass the path the service's watcher
/// watches; `None` if the schedule has no corruption events or no watcher
/// is attached).
///
/// After the last event the queue is drained — graceful shutdown: every
/// admitted window is decided and answered (or counted dropped if its
/// client disconnected).
#[must_use]
pub fn run_schedule(
    service: &mut DecisionService,
    admission: AdmissionConfig,
    schedule: &ChaosSchedule,
    checkpoint: Option<&Path>,
) -> ChaosOutcome {
    let intake = service.intake();
    let queue: AdmissionQueue<Admitted<usize>> = AdmissionQueue::new(admission);
    let clients = schedule.config.clients.max(1);
    let mut alive = vec![true; clients];
    let mut lines_read = vec![0usize; clients];
    let mut replies = Vec::new();
    let mut delivered_valid = 0u64;
    let mut delivered_rejected = 0u64;
    let original: Option<(PathBuf, Vec<u8>)> =
        checkpoint.and_then(|p| std::fs::read(p).ok().map(|bytes| (p.to_path_buf(), bytes)));

    // An undeliverable reply is counted by the intake, never fatal.
    let reply = |replies: &mut Vec<ChaosReply>, alive: &[bool], client: usize, record| {
        let delivered = alive[client];
        if !delivered {
            intake.dropped_reply();
        }
        replies.push(ChaosReply {
            client,
            record,
            delivered,
        });
    };
    let pop_one = |service: &mut DecisionService, replies: &mut Vec<ChaosReply>, alive: &[bool]| {
        if let Some(Admitted { obs, client }) = queue.try_pop() {
            let record = service.handle(&obs);
            reply(replies, alive, client, record);
        }
    };

    for event in &schedule.events {
        match event {
            ChaosEvent::Deliver { client, line } => {
                let client = *client % clients;
                if !alive[client] {
                    continue;
                }
                lines_read[client] += 1;
                match intake.admit(client, lines_read[client], LineRead::Line(line.clone())) {
                    Ok(Some(obs)) => {
                        delivered_valid += 1;
                        if let Some((victim, record)) = intake.push(&queue, obs, client) {
                            reply(&mut replies, &alive, victim, record);
                        }
                    }
                    Ok(None) => {}
                    Err(_) => delivered_rejected += 1,
                }
            }
            ChaosEvent::Disconnect { client } => {
                let client = *client % clients;
                if alive[client] {
                    alive[client] = false;
                    intake.disconnect(client, "scheduled disconnect");
                }
            }
            ChaosEvent::Stall { micros } => {
                service.inject_stall(Duration::from_micros(*micros));
            }
            ChaosEvent::Pop => pop_one(service, &mut replies, &alive),
            ChaosEvent::CorruptCheckpoint => {
                if let Some((path, _)) = &original {
                    let _ = std::fs::write(path, b"{\"corrupt\":tru");
                }
            }
            ChaosEvent::RestoreCheckpoint => {
                if let Some((path, bytes)) = &original {
                    let _ = std::fs::write(path, bytes);
                }
            }
        }
    }
    // Graceful shutdown: decide everything admitted.
    while !queue.is_empty() {
        pop_one(service, &mut replies, &alive);
    }
    // Leave the checkpoint as we found it even if the schedule ended
    // mid-corruption.
    if let Some((path, bytes)) = &original {
        let _ = std::fs::write(path, bytes);
    }
    ChaosOutcome {
        replies,
        delivered_valid,
        delivered_rejected,
        counters: service.counters().snapshot(),
        swaps: service.swaps(),
    }
}

/// Checks the chaos invariants on a completed run:
///
/// 1. **Exactly one reply per delivered valid window** — admitted or shed,
///    delivered or dropped, nothing unanswered and nothing answered twice.
/// 2. **Every rejected line is counted** — `wire_rejected` matches the
///    malformed deliveries that reached a connected client.
/// 3. **Counter coherence** — shed/degraded counters match the reply
///    stream; dropped replies match the disconnect bookkeeping.
/// 4. **Shed replies are inert** — no allocations, never `degraded`.
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn verify(outcome: &ChaosOutcome) -> Result<(), String> {
    let total_replies = outcome.replies.len() as u64;
    if total_replies != outcome.delivered_valid {
        return Err(format!(
            "reply conservation violated: {} valid windows delivered but {} replies produced",
            outcome.delivered_valid, total_replies
        ));
    }
    if outcome.counters.wire_rejected != outcome.delivered_rejected {
        return Err(format!(
            "wire_rejected counter {} != {} rejected lines delivered",
            outcome.counters.wire_rejected, outcome.delivered_rejected
        ));
    }
    let shed_replies = outcome
        .replies
        .iter()
        .filter(|r| !r.record.is_actionable())
        .count() as u64;
    if outcome.counters.shed != shed_replies {
        return Err(format!(
            "shed counter {} != {} shed replies",
            outcome.counters.shed, shed_replies
        ));
    }
    let degraded_replies = outcome.replies.iter().filter(|r| r.record.degraded).count() as u64;
    if outcome.counters.degraded != degraded_replies {
        return Err(format!(
            "degraded counter {} != {} degraded replies",
            outcome.counters.degraded, degraded_replies
        ));
    }
    let undelivered = outcome.replies.iter().filter(|r| !r.delivered).count() as u64;
    if outcome.counters.dropped_replies != undelivered {
        return Err(format!(
            "dropped_replies counter {} != {} undelivered replies",
            outcome.counters.dropped_replies, undelivered
        ));
    }
    for r in &outcome.replies {
        if !r.record.is_actionable() {
            if !r.record.allocations.is_empty() || r.record.degraded {
                return Err(format!(
                    "shed reply for window {} carries allocations or degraded flag",
                    r.record.window
                ));
            }
        } else if r.record.allocations.is_empty() {
            return Err(format!(
                "actionable reply for window {} has no allocations",
                r.record.window
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_diffuse() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SplitMix64::new(8);
        assert_ne!(xs[0], c.next_u64(), "adjacent seeds diverge immediately");
        let u = SplitMix64::new(3).unit();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn same_seed_same_schedule_different_seed_different_schedule() {
        let lines: Vec<String> = (0..20)
            .map(|w| format!("{{\"window\":{w},\"wip\":[1.0,2.0,3.0,4.0]}}"))
            .collect();
        let config = ChaosConfig {
            seed: 11,
            ..ChaosConfig::default()
        };
        let a = generate_schedule(&config, &lines);
        let b = generate_schedule(&config, &lines);
        assert_eq!(a, b);
        let other = generate_schedule(&ChaosConfig { seed: 12, ..config }, &lines);
        assert_ne!(a, other);
    }

    #[test]
    fn quiet_schedule_is_pure_lockstep() {
        let lines: Vec<String> = (0..5)
            .map(|w| format!("{{\"window\":{w},\"wip\":[1.0,1.0,1.0,1.0]}}"))
            .collect();
        let schedule = generate_schedule(&ChaosConfig::quiet(1), &lines);
        // Strict Deliver/Pop alternation: no faults, no overload.
        assert_eq!(schedule.events.len(), 10);
        for (i, event) in schedule.events.iter().enumerate() {
            if i % 2 == 0 {
                assert!(matches!(event, ChaosEvent::Deliver { client: 0, .. }));
            } else {
                assert!(matches!(event, ChaosEvent::Pop));
            }
        }
    }

    #[test]
    fn corpus_covers_every_rejection_kind() {
        let corpus = malformed_corpus();
        let kinds: std::collections::BTreeSet<&'static str> = corpus
            .iter()
            .filter_map(|line| crate::parse_observation_line(line, MAX_LINE_BYTES, Some(4)).err())
            .map(|e| e.kind())
            .collect();
        for want in ["parse", "oversized", "non_finite"] {
            assert!(
                kinds.contains(want),
                "corpus missing kind {want}: {kinds:?}"
            );
        }
    }
}
