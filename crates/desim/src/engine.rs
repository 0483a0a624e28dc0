//! The simulation engine: a clock plus an event queue.

use crate::{EventQueue, SimTime};
use telemetry::Telemetry;

/// A discrete-event simulation engine.
///
/// The engine owns the simulated clock and the pending-event queue. Client
/// code drives the simulation by scheduling events and repeatedly calling
/// [`Engine::pop`] (or [`Engine::run_until`]), handling each event and
/// scheduling follow-up events in response.
///
/// The clock only moves forward: popping an event advances [`Engine::now`] to
/// that event's timestamp.
///
/// # Examples
///
/// ```
/// use desim::{Engine, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Arrive, Depart }
///
/// let mut engine = Engine::new();
/// engine.schedule(SimTime::from_secs(1), Ev::Arrive);
/// engine.schedule_after(SimTime::from_secs(3), Ev::Depart);
/// let (t1, e1) = engine.pop().unwrap();
/// assert_eq!((t1, e1), (SimTime::from_secs(1), Ev::Arrive));
/// let (t2, e2) = engine.pop().unwrap();
/// assert_eq!((t2, e2), (SimTime::from_secs(3), Ev::Depart));
/// ```
#[derive(Debug, Clone)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    telemetry: Telemetry,
    checkpoint_processed: u64,
    checkpoint_cascades: u64,
}

impl<E> Engine<E> {
    /// Creates an engine with an empty queue and the clock at
    /// [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            telemetry: Telemetry::noop(),
            checkpoint_processed: 0,
            checkpoint_cascades: 0,
        }
    }

    /// Attaches a telemetry handle. The engine records nothing in the event
    /// hot path; clients call [`Engine::telemetry_checkpoint`] at natural
    /// boundaries (e.g. once per decision window) to publish progress.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Publishes engine progress since the last checkpoint: the
    /// `desim.events_processed` and `desim.wheel_cascades` counter deltas
    /// plus `desim.pending` and `desim.now_secs` gauges. A no-op without an
    /// attached recorder.
    pub fn telemetry_checkpoint(&mut self) {
        let cascades = self.queue.cascades();
        if self.telemetry.is_enabled() {
            self.telemetry.counter(
                "desim.events_processed",
                self.processed - self.checkpoint_processed,
            );
            self.telemetry
                .counter("desim.wheel_cascades", cascades - self.checkpoint_cascades);
            #[allow(clippy::cast_precision_loss)]
            self.telemetry.gauge("desim.pending", self.pending() as f64);
            self.telemetry
                .gauge("desim.now_secs", self.now.as_secs_f64());
        }
        self.checkpoint_processed = self.processed;
        self.checkpoint_cascades = cascades;
    }

    /// The current simulated time (the timestamp of the most recently popped
    /// event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events popped so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now`: the event fires at the
    /// current instant (after already-pending events at that instant). This
    /// keeps the clock monotone in the face of, e.g., zero service times.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.queue.push(at, event);
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.queue.push(self.now.saturating_add(delay), event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    ///
    /// # Panics
    ///
    /// Panics if the queue yields an event timestamped before the current
    /// clock. [`Engine::schedule`] clamps past times to `now`, so this can
    /// only happen through queue corruption (e.g. restoring a tampered
    /// snapshot); the clock going backwards would silently corrupt every
    /// time-based measurement downstream, so it is fatal even in release
    /// builds.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.queue.pop()?;
        assert!(ev.time >= self.now, "event queue went back in time");
        self.now = ev.time;
        self.processed += 1;
        Some((ev.time, ev.event))
    }

    /// Pops the earliest event only if it fires at or before `horizon`.
    ///
    /// Returns `None` either when the queue is empty or when the next event is
    /// beyond the horizon (in which case the clock is advanced to `horizon`
    /// so that time-based measurements are well defined).
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.queue.peek_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => {
                if horizon > self.now {
                    self.now = horizon;
                }
                None
            }
        }
    }

    /// Drains events up to and including `horizon`, then advances the clock
    /// to `horizon`.
    pub fn run_until<F: FnMut(SimTime, E)>(&mut self, horizon: SimTime, mut handler: F) {
        while let Some((t, e)) = self.pop_until(horizon) {
            handler(t, e);
        }
    }

    /// Captures the engine's dynamic state for a checkpoint: the clock, the
    /// processed-event count, the pending events (with their original
    /// sequence numbers) and the queue's next sequence number.
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot<E>
    where
        E: Clone,
    {
        EngineSnapshot {
            now: self.now,
            processed: self.processed,
            events: self.queue.snapshot_events(),
            next_seq: self.queue.next_seq(),
        }
    }

    /// Rebuilds an engine from an [`Engine::snapshot`] capture. The restored
    /// engine delivers the exact same event sequence as the original,
    /// including FIFO ordering of simultaneous events. Telemetry is detached
    /// (re-attach with [`Engine::set_telemetry`]).
    #[must_use]
    pub fn from_snapshot(snapshot: EngineSnapshot<E>) -> Self {
        Engine {
            queue: EventQueue::from_snapshot(snapshot.events, snapshot.next_seq),
            now: snapshot.now,
            processed: snapshot.processed,
            telemetry: Telemetry::noop(),
            checkpoint_processed: snapshot.processed,
            checkpoint_cascades: 0,
        }
    }
}

/// The dynamic state of an [`Engine`], produced by [`Engine::snapshot`].
///
/// The struct itself is generic and therefore not serde-derived (the
/// vendored derive macro is monomorphic); checkpointing callers serialise
/// the public fields into their own concrete snapshot types.
#[derive(Debug, Clone)]
pub struct EngineSnapshot<E> {
    /// The simulated clock at capture time.
    pub now: SimTime,
    /// Total events popped before the capture.
    pub processed: u64,
    /// Pending `(time, seq, event)` triples in delivery order.
    pub events: Vec<(SimTime, u64, E)>,
    /// The queue's next FIFO tie-breaking sequence number.
    pub next_seq: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_pops() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_secs(5), ());
        e.schedule(SimTime::from_secs(2), ());
        assert_eq!(e.now(), SimTime::ZERO);
        e.pop();
        assert_eq!(e.now(), SimTime::from_secs(2));
        e.pop();
        assert_eq!(e.now(), SimTime::from_secs(5));
        assert_eq!(e.events_processed(), 2);
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_secs(10), "a");
        e.pop();
        e.schedule(SimTime::from_secs(1), "late");
        let (t, ev) = e.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(10));
        assert_eq!(ev, "late");
    }

    #[test]
    fn pop_until_respects_horizon_and_advances_clock() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_secs(1), 1);
        e.schedule(SimTime::from_secs(4), 4);
        assert_eq!(e.pop_until(SimTime::from_secs(2)).unwrap().1, 1);
        assert!(e.pop_until(SimTime::from_secs(2)).is_none());
        // Clock parked exactly at the horizon.
        assert_eq!(e.now(), SimTime::from_secs(2));
        // The later event is still pending.
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn run_until_handles_events_within_window_only() {
        let mut e = Engine::new();
        for s in 1..=10 {
            e.schedule(SimTime::from_secs(s), s);
        }
        let mut seen = Vec::new();
        e.run_until(SimTime::from_secs(5), |_, v| seen.push(v));
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(e.now(), SimTime::from_secs(5));
        assert_eq!(e.pending(), 5);
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_secs(3), "base");
        e.pop();
        e.schedule_after(SimTime::from_secs(2), "rel");
        assert_eq!(e.pop().unwrap().0, SimTime::from_secs(5));
    }

    #[test]
    fn run_drains_everything() {
        let mut e = Engine::new();
        for s in 0..100 {
            e.schedule(SimTime::from_millis(s * 10), s);
        }
        let mut n = 0;
        e.run_until(SimTime::from_micros(u64::MAX), |_, _| n += 1);
        assert_eq!(n, 100);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn telemetry_checkpoint_reports_event_deltas() {
        use telemetry::{JsonlSink, Recorder, Telemetry};
        let sink = JsonlSink::in_memory();
        let mut e = Engine::new();
        e.set_telemetry(Telemetry::new(sink.clone()));
        e.schedule(SimTime::from_secs(1), ());
        e.schedule(SimTime::from_secs(2), ());
        e.pop();
        e.telemetry_checkpoint();
        e.pop();
        e.telemetry_checkpoint();
        Recorder::flush(&*sink);
        let text = String::from_utf8(sink.take_output()).unwrap();
        assert!(text.contains("\"desim.events_processed\""));
        // Two checkpoints of one event each accumulate to 2.
        assert!(text.contains("\"value\":2"));
    }

    #[test]
    fn snapshot_restore_replays_identical_sequence() {
        let mut original = Engine::new();
        original.schedule(SimTime::from_secs(1), 1);
        original.schedule(SimTime::from_secs(2), 2);
        original.pop();
        // Two simultaneous events exercise FIFO restoration.
        original.schedule(SimTime::from_secs(3), 31);
        original.schedule(SimTime::from_secs(3), 32);
        let mut restored = Engine::from_snapshot(original.snapshot());
        assert_eq!(restored.now(), original.now());
        assert_eq!(restored.events_processed(), original.events_processed());
        loop {
            match (original.pop(), restored.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
        // Post-restore scheduling stays aligned too (same next_seq).
        original.schedule(SimTime::from_secs(4), 40);
        restored.schedule(SimTime::from_secs(4), 40);
        assert_eq!(original.pop(), restored.pop());
    }
}
