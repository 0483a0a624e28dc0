//! A deterministic slab allocator for hot per-instance state.
//!
//! [`Slab`] replaces `HashMap<u64, T>` on the cluster's event hot path:
//! lookups become direct `Vec` indexing, removal pushes the slot onto a
//! LIFO free list for reuse (so memory stays bounded by the *peak*
//! population, not the cumulative one), and iteration runs in slot order —
//! a deterministic order, unlike a hash map's.
//!
//! Key reuse is safe here because the cluster only references an instance
//! while it is in flight: every pending event naming an instance keeps
//! `remaining_nodes` above zero, so a slot cannot be freed while an event
//! still points at it.

/// One slot: occupied by a value, or free (and threaded on the free list
/// by index in [`Slab::free`]).
#[derive(Debug, Clone, PartialEq)]
enum Slot<T> {
    Occupied(T),
    Free,
}

/// A `Vec`-backed map from reusable `u32` keys to values.
///
/// Keys are slot indices: [`Slab::insert`] pops the most recently freed
/// slot (LIFO) or appends a new one. Given the same insert/remove sequence,
/// two slabs assign identical keys — the property the simulator's
/// bit-reproducibility rests on. Checkpoints serialise the captures of
/// [`Slab::iter`] and [`Slab::free_list`] rather than the slab itself.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub(crate) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Stores `value`, returning its key (a reused slot index if one is
    /// free, else a fresh one).
    ///
    /// # Panics
    ///
    /// Panics if every `u32` key is occupied.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if let Some(key) = self.free.pop() {
            self.slots[key as usize] = Slot::Occupied(value);
            key
        } else {
            let key = u32::try_from(self.slots.len()).expect("slab holds at most 2^32 values");
            self.slots.push(Slot::Occupied(value));
            key
        }
    }

    /// Mutable access to the value at `key`, if occupied.
    pub(crate) fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        match self.slots.get_mut(key as usize) {
            Some(Slot::Occupied(value)) => Some(value),
            _ => None,
        }
    }

    /// Removes and returns the value at `key`, freeing the slot for reuse.
    pub(crate) fn remove(&mut self, key: u32) -> Option<T> {
        let slot = self.slots.get_mut(key as usize)?;
        if matches!(slot, Slot::Free) {
            return None;
        }
        let Slot::Occupied(value) = std::mem::replace(slot, Slot::Free) else {
            unreachable!("checked occupied above");
        };
        self.free.push(key);
        self.len -= 1;
        Some(value)
    }

    /// Iterates occupied entries in slot-index order (deterministic).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        // `insert` never grows the slab past `u32` keys.
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            if let Slot::Occupied(value) = slot {
                Some((i as u32, value))
            } else {
                None
            }
        })
    }

    /// The free list, most recently freed last. Checkpoints capture it so a
    /// restored slab reuses keys in the exact same order.
    pub(crate) fn free_list(&self) -> &[u32] {
        &self.free
    }

    /// Rebuilds a slab from occupied `(key, value)` pairs and a free list
    /// (the captures of [`Slab::iter`] and [`Slab::free_list`]).
    ///
    /// # Panics
    ///
    /// Panics if the keys are not a partition of `0..(occupied + free)` —
    /// i.e. the two captures do not come from the same slab state.
    pub(crate) fn from_parts(occupied: Vec<(u32, T)>, free: Vec<u32>) -> Self {
        let len = occupied.len();
        let total = len + free.len();
        let mut slots: Vec<Slot<T>> = (0..total).map(|_| Slot::Free).collect();
        for (key, value) in occupied {
            let idx = key as usize;
            assert!(
                matches!(slots.get(idx), Some(Slot::Free)),
                "slab snapshot has out-of-range or duplicate key {key}"
            );
            slots[idx] = Slot::Occupied(value);
        }
        for &key in &free {
            let idx = key as usize;
            assert!(
                idx < total && !matches!(slots[idx], Slot::Occupied(_)),
                "slab snapshot free list clashes with occupied key {key}"
            );
        }
        Slab { slots, free, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reuses_freed_slots_lifo() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        let c = slab.insert("c");
        assert_eq!((a, b, c), (0, 1, 2));
        slab.remove(a);
        slab.remove(c);
        // LIFO: the last freed slot (c's) is handed out first.
        assert_eq!(slab.insert("d"), c);
        assert_eq!(slab.insert("e"), a);
        assert_eq!(slab.insert("f"), 3);
        assert_eq!(slab.len(), 4);
    }

    #[test]
    fn get_mut_and_remove_respect_occupancy() {
        let mut slab = Slab::new();
        let k = slab.insert(10);
        *slab.get_mut(k).unwrap() += 5;
        assert_eq!(slab.remove(k), Some(15));
        assert_eq!(slab.remove(k), None);
        assert_eq!(slab.get_mut(k), None);
        assert_eq!(slab.get_mut(99), None);
        assert_eq!(slab.len(), 0);
    }

    #[test]
    fn iter_is_in_slot_order() {
        let mut slab = Slab::new();
        for v in 0..5 {
            slab.insert(v);
        }
        slab.remove(1);
        slab.remove(3);
        let seen: Vec<(u32, i32)> = slab.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(seen, vec![(0, 0), (2, 2), (4, 4)]);
    }

    #[test]
    fn snapshot_round_trip_preserves_key_assignment() {
        let mut slab = Slab::new();
        for v in 0..6 {
            slab.insert(v);
        }
        slab.remove(4);
        slab.remove(2);
        let occupied: Vec<(u32, i32)> = slab.iter().map(|(k, &v)| (k, v)).collect();
        let mut restored = Slab::from_parts(occupied, slab.free_list().to_vec());
        assert_eq!(restored, slab);
        // Future inserts land on the same keys in both.
        assert_eq!(slab.insert(7), restored.insert(7));
        assert_eq!(slab.insert(8), restored.insert(8));
        assert_eq!(slab.insert(9), restored.insert(9));
        assert_eq!(slab, restored);
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn from_parts_rejects_inconsistent_captures() {
        let _ = Slab::from_parts(vec![(0, 1), (0, 2)], vec![]);
    }
}
