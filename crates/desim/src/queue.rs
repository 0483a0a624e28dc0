//! A stable min-priority queue of timestamped events: a calendar-queue
//! (timing-wheel) scheduler with a far-future overflow heap.
//!
//! The wheel keys events on coarse *ticks* of the [`SimTime`] axis
//! (`tick = micros >> TICK_SHIFT`) and spreads near-future ticks over a
//! power-of-two ring of slots. Steady-state cost per event is O(1) slot
//! arithmetic plus a small heapify among the events sharing one tick,
//! instead of the global `O(log n)` of a binary heap over every pending
//! event.
//!
//! Regions, by tick relative to the wheel cursor `current_tick`:
//!
//! * **current** — a small binary heap of events at ticks `<= current_tick`
//!   (including past-time pushes). Always the pop source; its heap order is
//!   exactly the [`ScheduledEvent`] `(time, seq)` order, so pops are
//!   bit-identical to one binary heap over every pending event.
//! * **wheel** — slot `tick & SLOT_MASK` holds events with
//!   `tick - current_tick` in `[1, NUM_SLOTS)`, unsorted (they are sorted by
//!   heapifying when their slot becomes current). A two-level occupancy
//!   bitmap (one summary word over 64 occupancy words) finds the next
//!   occupied slot without scanning empty ones. Only occupied slots own a
//!   buffer: the buffers sit in a dense `buckets` list, and a `u32` index
//!   per slot (16 KiB for the whole ring) names a slot's bucket. The cursor
//!   takes the buffer when it drains the slot, so the wheel's memory
//!   follows its pending events, not the number of slots nor the largest
//!   batch each slot held on any earlier lap of the frame.
//! * **far** — a binary heap for everything beyond the wheel horizon.
//!   When the cursor advances, far events that fall inside the new frame
//!   *cascade* into the wheel (or straight into `current`).
//!
//! Determinism argument: the three regions partition events by tick, and
//! ticks are monotone in time, so the earliest event overall is always in
//! the earliest non-empty region; merging equal-tick events from the wheel
//! slot and the far heap into `current` lets the `(time, seq)` heap order
//! resolve every remaining tie exactly as one global heap would —
//! `tests/queue_equivalence.rs` checks that against a `std` heap, operation
//! for operation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// An event together with its delivery time and a FIFO tie-breaking sequence
/// number.
///
/// Two events scheduled for the same [`SimTime`] are delivered in scheduling
/// order, which keeps simulations deterministic.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic insertion index used for stable ordering of ties.
    pub seq: u64,
    /// The caller's payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    // Reversed so that the std max-heap pops the *earliest* event first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// log2 of the tick length in microseconds: 2^13 µs ≈ 8.2 ms per tick.
const TICK_SHIFT: u32 = 13;
/// Number of wheel slots (power of two): horizon ≈ 4096 × 8.2 ms ≈ 33.6 s,
/// which covers a full 30 s decision window of arrivals plus the 5–10 s
/// container start-up delays without touching the far heap.
const NUM_SLOTS: u64 = 4096;
const SLOT_MASK: u64 = NUM_SLOTS - 1;
/// Occupancy words (64 slots per word) and bits in the summary word.
const WORDS: usize = (NUM_SLOTS / 64) as usize;
/// `slot_bucket` entry of a slot that owns no bucket.
const NIL: u32 = u32::MAX;

#[inline]
fn tick_of(time: SimTime) -> u64 {
    time.as_micros() >> TICK_SHIFT
}

/// A min-priority queue of events keyed by [`SimTime`], with stable FIFO
/// ordering for simultaneous events.
///
/// # Examples
///
/// ```
/// use desim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// q.push(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop().map(|e| e.event), Some("sooner"));
/// assert_eq!(q.pop().map(|e| e.event), Some("later"));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Events at ticks `<= current_tick`, popped in `(time, seq)` order.
    current: BinaryHeap<ScheduledEvent<E>>,
    /// Per wheel slot, the index of its bucket in `buckets`, or [`NIL`]
    /// when the slot is empty.
    slot_bucket: Vec<u32>,
    /// The occupied slots' unsorted event buffers, in no particular order.
    /// Draining a slot removes its bucket, so only occupied slots own one.
    buckets: Vec<Vec<ScheduledEvent<E>>>,
    /// `bucket_slot[b]` is the slot that owns `buckets[b]`, so a drain can
    /// `swap_remove` its bucket and re-point the slot of the bucket that
    /// moved into the hole.
    bucket_slot: Vec<u32>,
    /// `occupancy[w]` bit `b` set iff slot `w * 64 + b` is non-empty.
    occupancy: [u64; WORDS],
    /// Bit `w` set iff `occupancy[w] != 0`.
    summary: u64,
    /// Events beyond the wheel horizon.
    far: BinaryHeap<ScheduledEvent<E>>,
    /// The wheel cursor: every wheel/far event has a tick strictly above it.
    current_tick: u64,
    len: usize,
    /// Events moved from the far heap into the wheel frame so far.
    cascades: u64,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            current: BinaryHeap::new(),
            slot_bucket: vec![NIL; NUM_SLOTS as usize],
            buckets: Vec::new(),
            bucket_slot: Vec::new(),
            occupancy: [0; WORDS],
            summary: 0,
            far: BinaryHeap::new(),
            current_tick: 0,
            len: 0,
            cascades: 0,
            next_seq: 0,
        }
    }

    /// Events moved from the far-future overflow heap into the wheel frame
    /// so far.
    #[must_use]
    pub(crate) fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(ScheduledEvent { time, seq, event });
    }

    /// Files an event that already carries its sequence number.
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        let tick = tick_of(ev.time);
        if tick <= self.current_tick {
            self.current.push(ev);
        } else if tick - self.current_tick < NUM_SLOTS {
            self.insert_slot(tick, ev);
        } else {
            self.far.push(ev);
        }
        self.len += 1;
    }

    fn insert_slot(&mut self, tick: u64, ev: ScheduledEvent<E>) {
        let slot = (tick & SLOT_MASK) as usize;
        self.debug_check_slot(slot);
        let bucket = self.slot_bucket[slot];
        if bucket == NIL {
            let word = slot / 64;
            self.slot_bucket[slot] = self.buckets.len() as u32;
            self.bucket_slot.push(slot as u32);
            // The capacity a first push onto an empty `Vec` reserves.
            let mut events = Vec::with_capacity(4);
            events.push(ev);
            self.buckets.push(events);
            self.occupancy[word] |= 1 << (slot % 64);
            self.summary |= 1 << word;
        } else {
            self.buckets[bucket as usize].push(ev);
        }
        self.debug_check_slot(slot);
    }

    /// Debug-checks the wheel index at `slot`: the slot owns a bucket
    /// exactly when its occupancy bit is set, that bucket points back at
    /// the slot, and there is one bucket per occupied slot.
    fn debug_check_slot(&self, slot: usize) {
        if !cfg!(debug_assertions) {
            return;
        }
        let occupied = self.occupancy[slot / 64] & (1 << (slot % 64)) != 0;
        let bucket = self.slot_bucket[slot];
        debug_assert_eq!(
            bucket != NIL,
            occupied,
            "slot {slot}: index and bitmap disagree"
        );
        if bucket != NIL {
            debug_assert_eq!(
                self.bucket_slot[bucket as usize] as usize, slot,
                "bucket {bucket} does not point back at slot {slot}"
            );
        }
        let occupied_slots: u32 = self.occupancy.iter().map(|w| w.count_ones()).sum();
        debug_assert_eq!(self.buckets.len(), occupied_slots as usize, "bucket count");
        debug_assert_eq!(
            self.bucket_slot.len(),
            self.buckets.len(),
            "back-pointer count"
        );
    }

    /// Cyclic distance (in slots) from `start` to the nearest occupied slot,
    /// using the summary word to skip empty 64-slot spans.
    fn next_occupied_distance(&self, start: usize) -> Option<u64> {
        if self.summary == 0 {
            return None;
        }
        let (w0, b0) = (start / 64, (start % 64) as u32);
        // Same word, bits at or after the start position.
        let masked = self.occupancy[w0] & (u64::MAX << b0);
        if masked != 0 {
            return Some(u64::from(masked.trailing_zeros() - b0));
        }
        // Later words, wrapping once around the ring; the start word is
        // revisited last for its low bits.
        for step in 1..=WORDS {
            let w = (w0 + step) % WORDS;
            if self.summary & (1 << w) == 0 {
                continue;
            }
            let bits = if w == w0 {
                self.occupancy[w] & !(u64::MAX << b0)
            } else {
                self.occupancy[w]
            };
            if bits != 0 {
                let slot_in_word = u64::from(bits.trailing_zeros());
                let dist = (step as u64) * 64 + slot_in_word - u64::from(b0);
                return Some(dist);
            }
        }
        None
    }

    /// The tick of the earliest wheel event, if any.
    fn wheel_next_tick(&self) -> Option<u64> {
        let start = ((self.current_tick + 1) & SLOT_MASK) as usize;
        self.next_occupied_distance(start)
            .map(|d| self.current_tick + 1 + d)
    }

    /// Refills `current` from the earliest of the wheel and far regions,
    /// advancing the cursor. Far events that fall inside the new wheel frame
    /// cascade in. No-op when `current` is already non-empty or everything
    /// is drained.
    fn advance(&mut self) {
        if !self.current.is_empty() || self.len == 0 {
            return;
        }
        let wheel_tick = self.wheel_next_tick();
        let far_tick = self.far.peek().map(|e| tick_of(e.time));
        let next_tick = match (wheel_tick, far_tick) {
            (Some(w), Some(f)) => w.min(f),
            (Some(w), None) => w,
            (None, Some(f)) => f,
            (None, None) => unreachable!("len > 0 with all regions empty"),
        };
        self.current_tick = next_tick;
        if wheel_tick == Some(next_tick) {
            let slot = (next_tick & SLOT_MASK) as usize;
            let word = slot / 64;
            self.occupancy[word] &= !(1 << (slot % 64));
            if self.occupancy[word] == 0 {
                self.summary &= !(1 << word);
            }
            // `current` is empty here, so the slot's buffer becomes the heap
            // (heapified in place) and the drained slot owns no memory: the
            // wheel's footprint follows its pending events instead of the
            // largest batch each slot ever held. The last bucket moves into
            // the hole, so its slot's index is re-pointed.
            let bucket = std::mem::replace(&mut self.slot_bucket[slot], NIL) as usize;
            let events = self.buckets.swap_remove(bucket);
            self.bucket_slot.swap_remove(bucket);
            if let Some(&moved) = self.bucket_slot.get(bucket) {
                self.slot_bucket[moved as usize] = bucket as u32;
                self.debug_check_slot(moved as usize);
            }
            self.debug_check_slot(slot);
            self.current = BinaryHeap::from(events);
        }
        // Cascade far events now inside the frame. The far heap pops in
        // (time, seq) order and ticks are monotone in time, so the first
        // event beyond the horizon ends the drain.
        while let Some(top) = self.far.peek() {
            let tick = tick_of(top.time);
            if tick <= self.current_tick {
                let ev = self.far.pop().expect("peeked");
                self.current.push(ev);
            } else if tick - self.current_tick < NUM_SLOTS {
                let ev = self.far.pop().expect("peeked");
                self.insert_slot(tick, ev);
            } else {
                break;
            }
            self.cascades += 1;
        }
        debug_assert!(!self.current.is_empty());
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.current.is_empty() {
            self.advance();
        }
        let ev = self.current.pop()?;
        self.len -= 1;
        Some(ev)
    }

    /// Returns the delivery time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(ev) = self.current.peek() {
            return Some(ev.time);
        }
        // Regions hold disjoint tick ranges (current < wheel, far at or
        // beyond the wheel's ticks), so compare the wheel's earliest slot
        // minimum with the far minimum; an earlier tick always means an
        // earlier time.
        let wheel_min = self.wheel_next_tick().map(|tick| {
            let bucket = self.slot_bucket[(tick & SLOT_MASK) as usize];
            self.buckets[bucket as usize]
                .iter()
                .map(|e| e.time)
                .min()
                .expect("occupied slot is non-empty")
        });
        let far_min = self.far.peek().map(|e| e.time);
        match (wheel_min, far_min) {
            (Some(w), Some(f)) => Some(w.min(f)),
            (w, f) => w.or(f),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events, keeping the sequence counter so ordering
    /// stays stable across a clear. The cursor and cascade counter are kept
    /// too; every occupied slot releases its buffer, as a drained slot does.
    pub fn clear(&mut self) {
        self.current.clear();
        self.far.clear();
        for &slot in &self.bucket_slot {
            self.slot_bucket[slot as usize] = NIL;
        }
        self.buckets.clear();
        self.bucket_slot.clear();
        self.occupancy = [0; WORDS];
        self.summary = 0;
        self.len = 0;
    }

    /// The next sequence number that [`EventQueue::push`] would assign.
    /// Captured by checkpoints so FIFO tie-breaking survives a restore.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Pending events as `(time, seq, event)` triples, sorted by delivery
    /// order. Used to serialise the queue into a checkpoint.
    #[must_use]
    pub fn snapshot_events(&self) -> Vec<(SimTime, u64, E)>
    where
        E: Clone,
    {
        let mut events: Vec<(SimTime, u64, E)> = self
            .current
            .iter()
            .chain(self.buckets.iter().flatten())
            .chain(self.far.iter())
            .map(|e| (e.time, e.seq, e.event.clone()))
            .collect();
        events.sort_by_key(|(time, seq, _)| (*time, *seq));
        events
    }

    /// Consuming variant of [`EventQueue::snapshot_events`]: moves the
    /// pending events out instead of cloning them. Use on snapshot-then-drop
    /// paths where the queue is being discarded anyway.
    #[must_use]
    pub fn into_snapshot_events(self) -> Vec<(SimTime, u64, E)> {
        let mut events: Vec<(SimTime, u64, E)> = self
            .current
            .into_iter()
            .chain(self.buckets.into_iter().flatten())
            .chain(self.far)
            .map(|e| (e.time, e.seq, e.event))
            .collect();
        events.sort_by_key(|(time, seq, _)| (*time, *seq));
        events
    }

    /// Rebuilds a queue from a [`EventQueue::snapshot_events`] capture and
    /// the matching [`EventQueue::next_seq`], preserving the original
    /// sequence numbers so simultaneous events still pop in their original
    /// FIFO order.
    #[must_use]
    pub fn from_snapshot(events: Vec<(SimTime, u64, E)>, next_seq: u64) -> Self {
        let mut queue = EventQueue::new();
        queue.next_seq = next_seq;
        for (time, seq, event) in events {
            queue.insert(ScheduledEvent { time, seq, event });
        }
        queue
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<i32>) -> Vec<i32> {
        std::iter::from_fn(|| q.pop().map(|e| e.event)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pops_across_all_three_regions_in_order() {
        let mut q = EventQueue::new();
        let horizon_micros = NUM_SLOTS << TICK_SHIFT;
        // far, current, wheel — pushed out of order.
        q.push(SimTime::from_micros(horizon_micros * 3), 30);
        q.push(SimTime::from_micros(500), 10); // tick 0 → current
        q.push(SimTime::from_micros(1 << 20), 20); // within the wheel frame
        assert_eq!(drain(&mut q), vec![10, 20, 30]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn equal_tick_far_events_merge_by_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros((NUM_SLOTS + 100) << TICK_SHIFT); // beyond the horizon
        q.push(t, 1);
        q.push(t, 2);
        assert_eq!(drain(&mut q), vec![1, 2]);
        assert!(q.cascades() >= 1, "far events must have cascaded");
    }

    #[test]
    fn wrap_around_the_ring_is_handled() {
        let mut q = EventQueue::new();
        // Park the cursor near the end of the ring, then push an event
        // whose slot index wraps past zero.
        let near_end = SLOT_MASK - 2;
        q.push(SimTime::from_micros(near_end << TICK_SHIFT), 1);
        assert_eq!(q.pop().map(|e| e.event), Some(1));
        let wrapped = near_end + 10; // slot index (near_end + 10) & MASK < near_end
        q.push(SimTime::from_micros(wrapped << TICK_SHIFT), 2);
        assert_eq!(q.pop().map(|e| e.event), Some(2));
    }

    #[test]
    fn peek_time_reports_earliest_without_mutating() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(7), 0);
        q.push(SimTime::from_secs(4), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn clear_empties_but_keeps_fifo_stability() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.clear();
        assert!(q.is_empty());
        let t = SimTime::from_secs(1);
        q.push(t, 10);
        q.push(t, 11);
        assert_eq!(drain(&mut q), vec![10, 11]);
    }

    /// Event capacity owned by wheel buckets (the dense list's own
    /// headers excluded).
    fn slot_capacity(q: &EventQueue<i32>) -> usize {
        q.buckets.iter().map(Vec::capacity).sum()
    }

    #[test]
    fn fresh_queue_owns_only_the_slot_index() {
        let q = EventQueue::<i32>::new();
        assert_eq!(q.slot_bucket.len(), NUM_SLOTS as usize);
        assert!(q.slot_bucket.iter().all(|&b| b == NIL));
        assert_eq!(q.buckets.capacity(), 0, "a fresh wheel owns a bucket list");
        assert_eq!(
            q.bucket_slot.capacity(),
            0,
            "a fresh wheel owns back-pointers"
        );
        assert_eq!(q.current.capacity() + q.far.capacity(), 0);
    }

    #[test]
    fn clear_keeps_cursor() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_micros(i * 10_000), i as i32);
        }
        while q.len() > 50 {
            q.pop();
        }
        q.clear();
        assert_eq!(q.len(), 0);
        assert_eq!(slot_capacity(&q), 0, "a cleared slot kept its buffer");
        assert_eq!(q.pop().map(|e| e.event), None);
        // Past-time pushes after a clear land in `current` and still pop.
        q.push(SimTime::ZERO, 7);
        assert_eq!(q.pop().map(|e| e.event), Some(7));
    }

    #[test]
    fn drained_slots_release_their_buffers() {
        // Bursts of same-tick events at shifting offsets over many laps of
        // the frame: every slot the cursor drains must give its buffer back,
        // or the wheel keeps the largest batch each slot ever held.
        let mut q = EventQueue::new();
        let frame = NUM_SLOTS << TICK_SHIFT;
        for lap in 0..10u64 {
            for burst in 0..16u64 {
                let offset = (burst * 257 + lap * 61) % NUM_SLOTS;
                let t = SimTime::from_micros(lap * frame + (offset << TICK_SHIFT));
                for i in 0..64 {
                    q.push(t, i);
                }
            }
            while q.pop().is_some() {}
        }
        assert!(q.is_empty());
        assert_eq!(slot_capacity(&q), 0, "drained slots kept their buffers");
    }

    #[test]
    fn snapshot_round_trip_preserves_fifo_ties() {
        let mut a = EventQueue::new();
        let t = SimTime::from_secs(2);
        a.push(SimTime::from_secs(3), 30);
        for i in 0..10 {
            a.push(t, i);
        }
        let mut b = EventQueue::from_snapshot(a.snapshot_events(), a.next_seq());
        assert_eq!(a.next_seq(), b.next_seq());
        loop {
            match (a.pop(), b.pop()) {
                (None, None) => break,
                (x, y) => {
                    let x = x.expect("restored queue too long");
                    let y = y.expect("restored queue too short");
                    assert_eq!((x.time, x.seq, x.event), (y.time, y.seq, y.event));
                }
            }
        }
    }

    #[test]
    fn into_snapshot_events_matches_cloning_snapshot() {
        let mut q = EventQueue::new();
        for i in 0..20 {
            q.push(SimTime::from_millis((i * 37) % 11), i as i32);
        }
        let cloned = q.snapshot_events();
        assert_eq!(cloned.len(), 20, "snapshot dropped events");
        assert_eq!(cloned, q.into_snapshot_events());
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0);
        q.push(SimTime::ZERO, 0);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn every_constructor_builds_the_wheel() {
        // An event beyond the ~33.6 s frame goes to the far heap and
        // cascades in when popped; a plain heap would report 0.
        let far = SimTime::from_secs(3600);
        let mut new = EventQueue::new();
        new.push(far, 1);
        let mut default = EventQueue::default();
        default.push(far, 1);
        let restored = EventQueue::from_snapshot(vec![(far, 0, 1)], 1);
        for mut q in [new, default, restored] {
            assert_eq!(q.cascades(), 0);
            assert_eq!(q.pop().unwrap().event, 1);
            assert_eq!(q.cascades(), 1);
        }
    }
}
