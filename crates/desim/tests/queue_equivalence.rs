//! Differential property tests: [`EventQueue`] must be operation-for-operation
//! indistinguishable from the reference model — one `std` binary heap over
//! every pending [`ScheduledEvent`] plus a sequence counter. The public
//! `ScheduledEvent` ordering (`(time, seq)`, earliest first) is the spec.
//!
//! Queue and model are driven with the same random program of pushes
//! (including simultaneous and far-future times), pops, clears, and
//! snapshot/restore at random cut points, asserting bitwise-equal
//! `(time, seq, event)` pop sequences and equal `next_seq` throughout.

use std::collections::BinaryHeap;

use desim::{EventQueue, ScheduledEvent, SimTime};
use proptest::prelude::*;

type Triple = (SimTime, u64, u32);

/// The reference model.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<ScheduledEvent<u32>>,
    next_seq: u64,
}

impl Model {
    fn push(&mut self, time: SimTime, event: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, event });
    }

    fn pop(&mut self) -> Option<Triple> {
        self.heap.pop().map(triple)
    }

    /// Pending events in delivery order.
    fn sorted(&self) -> Vec<Triple> {
        self.heap
            .clone()
            .into_sorted_vec()
            .into_iter()
            .rev()
            .map(triple)
            .collect()
    }
}

fn triple(e: ScheduledEvent<u32>) -> Triple {
    (e.time, e.seq, e.event)
}

/// Pushes `times` (payload = index) into a fresh queue and model alike.
fn filled(times: &[u64]) -> (EventQueue<u32>, Model) {
    let (mut queue, mut model) = (EventQueue::new(), Model::default());
    for (i, &t) in times.iter().enumerate() {
        #[allow(clippy::cast_possible_truncation)]
        let payload = i as u32;
        queue.push(SimTime::from_micros(t), payload);
        model.push(SimTime::from_micros(t), payload);
    }
    (queue, model)
}

/// Drains queue and model together, comparing every pop.
fn drain_lockstep(queue: &mut EventQueue<u32>, model: &mut Model) -> Result<(), TestCaseError> {
    loop {
        let (q, m) = (queue.pop().map(triple), model.pop());
        prop_assert_eq!(q, m, "drain diverged");
        if q.is_none() {
            return Ok(());
        }
    }
}

/// One step of a random queue program.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u64),
    Pop,
    Clear,
    SnapshotRestore,
}

/// Decodes a raw `(kind, small_time, big_time)` tuple into an [`Op`].
///
/// Push times mix a tiny range (forcing simultaneous events and FIFO
/// tie-breaking) with a huge range reaching far beyond the wheel's ~33 s
/// frame (forcing overflow-heap cascades).
fn decode(kind: u8, small: u64, big: u64) -> Op {
    match kind % 100 {
        0..=54 => Op::Push(if kind.is_multiple_of(2) { small } else { big }),
        55..=84 => Op::Pop,
        85..=89 => Op::Clear,
        _ => Op::SnapshotRestore,
    }
}

fn raw_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((0u8..=255, 0u64..50, 0u64..200_000_000), 1..400)
}

/// Runs the same program against the queue and the model in lockstep,
/// checking each observable after every step.
fn run_lockstep(raw: &[(u8, u64, u64)]) -> Result<(), TestCaseError> {
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut model = Model::default();
    for (i, &(kind, small, big)) in raw.iter().enumerate() {
        #[allow(clippy::cast_possible_truncation)]
        let payload = i as u32;
        match decode(kind, small, big) {
            Op::Push(micros) => {
                let t = SimTime::from_micros(micros);
                queue.push(t, payload);
                model.push(t, payload);
            }
            Op::Pop => {
                prop_assert_eq!(
                    queue.pop().map(triple),
                    model.pop(),
                    "pop diverged at step {}",
                    i
                );
            }
            Op::Clear => {
                queue.clear();
                model.heap.clear();
            }
            Op::SnapshotRestore => {
                let events = queue.snapshot_events();
                prop_assert_eq!(&events, &model.sorted(), "snapshot diverged at step {}", i);
                queue = EventQueue::from_snapshot(events, queue.next_seq());
            }
        }
        prop_assert_eq!(queue.len(), model.heap.len(), "len diverged at step {}", i);
        prop_assert_eq!(queue.is_empty(), model.heap.is_empty());
        prop_assert_eq!(
            queue.peek_time(),
            model.heap.peek().map(|e| e.time),
            "peek_time diverged at step {}",
            i
        );
        prop_assert_eq!(queue.next_seq(), model.next_seq);
    }
    drain_lockstep(&mut queue, &mut model)
}

proptest! {
    /// The queue pops a bitwise-identical `(time, seq, event)` sequence to
    /// the model over arbitrary programs of pushes, pops, clears and
    /// snapshot/restores.
    #[test]
    fn queue_matches_reference_heap_over_random_programs(raw in raw_ops()) {
        run_lockstep(&raw)?;
    }

    /// A snapshot taken at a random cut mid-drain restores to a queue that
    /// drains — and keeps assigning sequence numbers — exactly as the
    /// uninterrupted model does.
    #[test]
    fn restore_at_random_cut_is_equivalent(
        times in proptest::collection::vec(0u64..100_000_000, 0..150),
        cut in 0usize..150,
    ) {
        let (mut queue, mut model) = filled(&times);
        for _ in 0..cut.min(times.len() / 2) {
            queue.pop();
            model.pop();
        }
        let mut restored = EventQueue::from_snapshot(queue.snapshot_events(), queue.next_seq());
        prop_assert_eq!(restored.next_seq(), model.next_seq);
        // A simultaneous push after the restore must still sort behind the
        // restored events at that instant.
        if let Some(t) = restored.peek_time() {
            restored.push(t, u32::MAX);
            model.push(t, u32::MAX);
        }
        drain_lockstep(&mut restored, &mut model)?;
    }

    /// Both snapshot forms list the pending events in the model's delivery
    /// order.
    #[test]
    fn snapshots_are_in_delivery_order(
        times in proptest::collection::vec(0u64..100_000_000, 0..150),
    ) {
        let (queue, model) = filled(&times);
        let expected = model.sorted();
        prop_assert_eq!(&queue.snapshot_events(), &expected);
        prop_assert_eq!(queue.into_snapshot_events(), expected);
    }
}
