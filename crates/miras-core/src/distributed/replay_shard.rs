//! Sharded replay handoff: one bounded SPSC channel per rollout worker.
//!
//! Each worker owns exactly one [`ShardSender`]; the learner holds the
//! matching [`ShardReceiver`]s and visits them in the fixed order
//! `g mod workers` for global wave `g`. Bounded capacity gives
//! backpressure: a worker that runs ahead of the learner blocks on `send`
//! instead of piling up waves, which caps both memory and the
//! weight-version lag a wave can be generated at.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvError, SyncSender};
use std::sync::Arc;

/// Waves a shard buffers before its worker blocks. Small on purpose: depth
/// bounds the staleness of in-flight data (a buffered wave was generated
/// against weights up to `workers × (capacity + 1)` versions old).
pub(super) const SHARD_CAPACITY: usize = 4;

/// One completed rollout wave: `steps × active` transitions in step-major
/// layout, plus the provenance the learner needs for the run manifest.
#[derive(Debug)]
pub(super) struct WaveResult {
    /// Worker that generated the wave.
    pub worker: usize,
    /// Global wave index.
    pub wave: usize,
    /// Weight version the wave was generated under.
    pub version: u64,
    /// Lanes active in this wave (the last wave may be narrower).
    pub active: usize,
    /// State/action dimensionality `J`.
    pub state_dim: usize,
    /// Steps per lane (the configured rollout length).
    pub steps: usize,
    /// Pre-step states, `steps × active × J`, step-major.
    pub states: Vec<f64>,
    /// Actions taken, same layout as `states`.
    pub actions: Vec<f64>,
    /// Rewards, `steps × active`, step-major.
    pub rewards: Vec<f64>,
    /// Post-step states, same layout as `states`.
    pub next_states: Vec<f64>,
    /// Lend–Giveback triggers fired during the wave.
    pub lend_triggers: u64,
}

impl WaveResult {
    /// An empty wave with buffers sized for `steps × active` transitions.
    pub(crate) fn with_capacity(
        worker: usize,
        wave: usize,
        version: u64,
        active: usize,
        state_dim: usize,
        steps: usize,
    ) -> Self {
        let n = steps * active * state_dim;
        WaveResult {
            worker,
            wave,
            version,
            active,
            state_dim,
            steps,
            states: Vec::with_capacity(n),
            actions: Vec::with_capacity(n),
            rewards: Vec::with_capacity(steps * active),
            next_states: Vec::with_capacity(n),
            lend_triggers: 0,
        }
    }
}

/// Creates one bounded replay shard, returning the worker and learner
/// halves. The pair shares a depth counter so the learner can export the
/// shard's fill level as a gauge without locking the channel.
pub(super) fn shard_channel() -> (ShardSender, ShardReceiver) {
    let (tx, rx) = std::sync::mpsc::sync_channel(SHARD_CAPACITY);
    let depth = Arc::new(AtomicUsize::new(0));
    (
        ShardSender {
            tx,
            depth: Arc::clone(&depth),
        },
        ShardReceiver { rx, depth },
    )
}

/// The worker half of a replay shard.
#[derive(Debug)]
pub(super) struct ShardSender {
    tx: SyncSender<WaveResult>,
    depth: Arc<AtomicUsize>,
}

impl ShardSender {
    /// Pushes a wave, blocking while the shard is full. Returns `Err` with
    /// the wave when the learner hung up (the worker should exit).
    // The large Err is deliberate: like `std::sync::mpsc::SendError`, it
    // returns the unsent wave to the caller instead of dropping it.
    #[allow(clippy::result_large_err)]
    pub(crate) fn send(&self, wave: WaveResult) -> Result<(), WaveResult> {
        // Count the wave before the (possibly blocking) send so the gauge
        // includes the in-flight wave a stalled worker is holding.
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.tx.send(wave).map_err(|e| {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            e.0
        })
    }
}

/// The learner half of a replay shard.
#[derive(Debug)]
pub(super) struct ShardReceiver {
    rx: Receiver<WaveResult>,
    depth: Arc<AtomicUsize>,
}

impl ShardReceiver {
    /// Pops the next wave, blocking until one arrives. `Err` means the
    /// worker exited (fault or schedule end) *and* the buffer is drained —
    /// `mpsc` receivers hand out everything buffered before reporting the
    /// hangup, so no completed wave is ever lost to a crash.
    pub(crate) fn recv(&self) -> Result<WaveResult, RecvError> {
        let wave = self.rx.recv()?;
        self.depth.fetch_sub(1, Ordering::Relaxed);
        Ok(wave)
    }

    /// Waves currently buffered or blocked in-flight on the worker side.
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize) -> WaveResult {
        WaveResult::with_capacity(0, n, 0, 1, 1, 1)
    }

    #[test]
    fn depth_tracks_buffered_waves_and_survives_hangup() {
        let (tx, rx) = shard_channel();
        tx.send(wave(0)).unwrap();
        tx.send(wave(1)).unwrap();
        assert_eq!(rx.depth(), 2);
        assert_eq!(rx.recv().unwrap().wave, 0);
        assert_eq!(rx.depth(), 1);
        // Worker hangs up with a wave still buffered: it must be drained
        // before the hangup is reported.
        drop(tx);
        assert_eq!(rx.recv().unwrap().wave, 1);
        assert!(rx.recv().is_err());
        assert_eq!(rx.depth(), 0);
    }

    #[test]
    fn send_to_hung_up_learner_returns_the_wave() {
        let (tx, rx) = shard_channel();
        drop(rx);
        let returned = tx.send(wave(7)).unwrap_err();
        assert_eq!(returned.wave, 7);
    }
}
