//! A deliberately naive reference event queue.
//!
//! [`ReferenceQueue`] keeps every pending entry in one `Vec`, sorted on
//! each insert. It exists to be *obviously correct*, not fast: it is the
//! test oracle the property tests hold the production
//! [`EventQueue`](crate::event::EventQueue) heap to, entry by entry. It
//! is a standalone model, not a queue the simulator can run on.

/// Sorted-`Vec` priority queue over `(time, seq)` with FIFO tie-break.
///
/// Entries are kept sorted *descending* so the minimum sits at the end
/// and `pop` is O(1); `insert` is O(n) — fine for a test double.
pub struct ReferenceQueue<E> {
    items: Vec<(u64, u64, E)>,
}

impl<E> Default for ReferenceQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        ReferenceQueue { items: Vec::new() }
    }

    /// Empty queue pre-sized for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        ReferenceQueue {
            items: Vec::with_capacity(capacity),
        }
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Entries the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.items.capacity()
    }

    /// Ensure room for `len() + additional` entries.
    pub fn reserve(&mut self, additional: usize) {
        self.items.reserve(additional);
    }

    /// Insert an entry. `seq` must be unique per queue; feeding it the
    /// insertion index reproduces `EventQueue`'s FIFO tie-break.
    pub fn insert(&mut self, at: u64, seq: u64, event: E) {
        // Descending order: larger (at, seq) first. `partition_point`
        // finds the first index whose key is <= (at, seq); inserting
        // there keeps the vector sorted and puts equal-time entries in
        // seq order (later seq closer to the front, popped later).
        let pos = self.items.partition_point(|&(a, s, _)| (a, s) > (at, seq));
        self.items.insert(pos, (at, seq, event));
    }

    /// The minimum `(at, seq)` entry, without removing it.
    pub fn peek(&self) -> Option<(u64, u64)> {
        self.items.last().map(|&(a, s, _)| (a, s))
    }

    /// Remove and return the minimum `(at, seq)` entry.
    pub fn pop(&mut self) -> Option<(u64, u64, E)> {
        self.items.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = ReferenceQueue::new();
        q.insert(5, 0, "a");
        q.insert(3, 1, "b");
        q.insert(5, 2, "c");
        q.insert(3, 3, "d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(3, 1, "b"), (3, 3, "d"), (5, 0, "a"), (5, 2, "c")]
        );
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = ReferenceQueue::new();
        for (i, at) in [9u64, 2, 7, 2, 0].iter().enumerate() {
            q.insert(*at, i as u64, i);
        }
        while let Some((pa, ps)) = q.peek() {
            let (a, s, _) = q.pop().expect("peeked entry pops");
            assert_eq!((pa, ps), (a, s));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_is_respected() {
        let mut q: ReferenceQueue<u8> = ReferenceQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        q.reserve(128);
        assert!(q.capacity() >= 128);
    }
}
