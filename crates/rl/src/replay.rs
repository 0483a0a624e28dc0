//! Bounded experience replay.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// One stored `(s, a, r, s')` transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredTransition {
    /// State before the action.
    pub state: Vec<f64>,
    /// Action taken (continuous RL action, e.g. a softmax distribution).
    pub action: Vec<f64>,
    /// Reward observed.
    pub reward: f64,
    /// State after the action.
    pub next_state: Vec<f64>,
}

/// A fixed-capacity ring buffer of transitions with uniform sampling.
///
/// # Examples
///
/// ```
/// use rl::{ReplayBuffer, StoredTransition};
/// use rand::SeedableRng;
///
/// let mut buf = ReplayBuffer::new(2);
/// for i in 0..3 {
///     buf.push(StoredTransition {
///         state: vec![i as f64],
///         action: vec![0.0],
///         reward: 0.0,
///         next_state: vec![i as f64 + 1.0],
///     });
/// }
/// // Capacity 2: the oldest transition was evicted.
/// assert_eq!(buf.len(), 2);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let batch = buf.sample(2, &mut rng);
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayBuffer {
    capacity: usize,
    items: Vec<StoredTransition>,
    write_cursor: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        ReplayBuffer {
            capacity,
            items: Vec::new(),
            write_cursor: 0,
        }
    }

    /// Number of stored transitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer holds no transitions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Adds a transition, evicting the oldest when full.
    ///
    /// Transitions containing any non-finite value (NaN or ±∞ in the state,
    /// action, reward or next state) are **rejected** and the buffer is left
    /// unchanged — a single poisoned transition would otherwise surface in
    /// minibatches forever and corrupt every gradient it touches. Returns
    /// whether the transition was stored. Callers that need to count
    /// rejections (e.g. to drive a `replay.rejected_nonfinite` telemetry
    /// counter) branch on the result.
    pub fn push(&mut self, t: StoredTransition) -> bool {
        if !transition_is_finite(&t) {
            return false;
        }
        self.push_unchecked(t);
        true
    }

    /// Adds a transition without the finiteness check of
    /// [`ReplayBuffer::push`].
    ///
    /// This exists for fault-injection tests that deliberately poison the
    /// buffer to exercise the divergence watchdog; production code paths
    /// should always go through `push`.
    pub fn push_unchecked(&mut self, t: StoredTransition) {
        if self.items.len() < self.capacity {
            self.items.push(t);
        } else {
            self.items[self.write_cursor] = t;
        }
        self.write_cursor = (self.write_cursor + 1) % self.capacity;
    }

    /// Samples `n` transitions uniformly with replacement.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<&StoredTransition> {
        assert!(!self.is_empty(), "cannot sample from an empty buffer");
        (0..n)
            .map(|_| &self.items[rng.gen_range(0..self.items.len())])
            .collect()
    }

    /// Iterates over all stored transitions in storage order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredTransition> {
        self.items.iter()
    }
}

fn transition_is_finite(t: &StoredTransition) -> bool {
    t.reward.is_finite()
        && t.state.iter().all(|x| x.is_finite())
        && t.action.iter().all(|x| x.is_finite())
        && t.next_state.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn t(v: f64) -> StoredTransition {
        StoredTransition {
            state: vec![v],
            action: vec![v],
            reward: v,
            next_state: vec![v + 1.0],
        }
    }

    #[test]
    fn eviction_is_fifo() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(t(i as f64));
        }
        let rewards: Vec<f64> = buf.iter().map(|x| x.reward).collect();
        // Ring: slots now hold 3, 4, 2.
        assert_eq!(rewards.len(), 3);
        assert!(rewards.contains(&2.0));
        assert!(rewards.contains(&3.0));
        assert!(rewards.contains(&4.0));
        assert!(!rewards.contains(&0.0));
    }

    #[test]
    fn sample_draws_only_stored_items() {
        let mut buf = ReplayBuffer::new(10);
        for i in 0..4 {
            buf.push(t(i as f64));
        }
        let mut rng = SmallRng::seed_from_u64(1);
        for item in buf.sample(100, &mut rng) {
            assert!(item.reward >= 0.0 && item.reward < 4.0);
        }
    }

    #[test]
    fn sample_covers_buffer_eventually() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..8 {
            buf.push(t(i as f64));
        }
        let mut rng = SmallRng::seed_from_u64(2);
        let seen: std::collections::HashSet<u64> = buf
            .sample(400, &mut rng)
            .iter()
            .map(|x| x.reward as u64)
            .collect();
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn push_rejects_non_finite_values() {
        let mut buf = ReplayBuffer::new(4);
        assert!(buf.push(t(1.0)));
        let mut bad = t(2.0);
        bad.reward = f64::NAN;
        assert!(!buf.push(bad));
        let mut bad = t(3.0);
        bad.state[0] = f64::INFINITY;
        assert!(!buf.push(bad));
        let mut bad = t(4.0);
        bad.action[0] = f64::NEG_INFINITY;
        assert!(!buf.push(bad));
        let mut bad = t(5.0);
        bad.next_state[0] = f64::NAN;
        assert!(!buf.push(bad));
        assert_eq!(buf.len(), 1, "rejected transitions must not be stored");
    }

    #[test]
    fn push_unchecked_bypasses_validation() {
        let mut buf = ReplayBuffer::new(2);
        let mut bad = t(0.0);
        bad.reward = f64::NAN;
        buf.push_unchecked(bad);
        assert_eq!(buf.len(), 1);
        assert!(buf.iter().next().unwrap().reward.is_nan());
    }

    #[test]
    fn serde_round_trip_preserves_ring_state() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(t(i as f64));
        }
        let json = serde_json::to_string(&buf).unwrap();
        let restored: ReplayBuffer = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, buf);
        // The write cursor survives: both evict the same slot next.
        let mut a = buf;
        let mut b = restored;
        a.push(t(9.0));
        b.push(t(9.0));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cannot sample from an empty buffer")]
    fn sampling_empty_panics() {
        let buf = ReplayBuffer::new(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let _ = buf.sample(1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "replay capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ReplayBuffer::new(0);
    }
}
