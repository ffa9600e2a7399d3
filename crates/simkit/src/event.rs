//! The discrete-event queue.
//!
//! [`EventQueue`] is a priority queue of `(time, event)` pairs with a
//! monotonically advancing clock, backed by one `BinaryHeap` over
//! `(time, seq)`. Ties are broken by insertion order (`seq`), so a run
//! is fully deterministic regardless of event payloads. The naive
//! [`ReferenceQueue`] model is the test oracle for that order: the
//! property tests in `tests/proptests.rs` hold the heap to it entry by
//! entry.
//!
//! Capacity contract: `with_capacity(c)` guarantees `capacity() >= c`;
//! after `reserve(a)`, `capacity() >= pending() + a`; and `capacity()`
//! never decreases over the queue's lifetime — growth cycles and drains
//! never drop an earlier requested floor. The heap's own `Vec` storage
//! provides all three.
//!
//! [`ReferenceQueue`]: crate::reference::ReferenceQueue

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    // Reversed: BinaryHeap is a max-heap, we want the earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue with an embedded simulation clock.
///
/// Popping an event advances the clock to that event's timestamp. Events
/// scheduled "in the past" (before the current clock) are a logic error and
/// panic in debug builds; in release they are delivered at the current time.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: SimTime,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue pre-sized for `capacity` pending events,
    /// avoiding regrowth in long runs whose in-flight event count is
    /// predictable. Scheduling semantics are identical to [`new`].
    ///
    /// [`new`]: EventQueue::new
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Reserve room for at least `additional` more pending events:
    /// afterwards `capacity() >= pending() + additional`.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Number of pending events the queue can hold without reallocating.
    /// Never reports below any floor previously requested through
    /// [`with_capacity`](EventQueue::with_capacity) or
    /// [`reserve`](EventQueue::reserve), and never decreases.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at:?} < {:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Deliver the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Scheduled { at, event, .. } = self.heap.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
        Some((at, event))
    }

    /// Deliver the next event only if it fires at or before `deadline`.
    ///
    /// If the next event is later than `deadline`, the clock advances to
    /// `deadline` and `None` is returned (the event stays queued).
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => {
                if self.now < deadline {
                    self.now = deadline;
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceQueue;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_millis(30));
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "first");
        q.pop();
        q.schedule_after(SimDuration::from_secs(1), "second");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "second");
        assert_eq!(t, SimTime::from_secs(6));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), "late");
        assert!(q.pop_until(SimTime::from_secs(1)).is_none());
        assert_eq!(q.now(), SimTime::from_secs(1));
        assert_eq!(q.pending(), 1);
        let (t, e) = q.pop_until(SimTime::from_secs(3)).unwrap();
        assert_eq!((t, e), (SimTime::from_secs(2), "late"));
    }

    #[test]
    fn pop_until_with_empty_queue_advances_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop_until(SimTime::from_secs(7)).is_none());
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    fn with_capacity_preallocates_without_changing_semantics() {
        let mut pre = EventQueue::with_capacity(512);
        assert!(pre.capacity() >= 512);
        let mut plain = EventQueue::new();
        // Interleave same-time ties and distinct times; both queues
        // must agree on pending counts and pop order exactly.
        for i in 0..300u64 {
            let at = SimTime::from_millis(i % 7);
            pre.schedule(at, i);
            plain.schedule(at, i);
        }
        assert_eq!(pre.pending(), plain.pending());
        // No regrowth happened for the pre-sized queue.
        assert!(pre.capacity() >= 512);
        let a: Vec<_> = std::iter::from_fn(|| pre.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| plain.pop()).collect();
        assert_eq!(a, b);
        assert_eq!(pre.processed(), 300);
    }

    #[test]
    fn reserve_grows_capacity_and_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), "b");
        q.schedule(SimTime::from_secs(1), "a");
        q.reserve(1000);
        assert!(q.capacity() >= 1002);
        assert_eq!(q.pending(), 2);
        q.schedule(SimTime::from_secs(3), "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn capacity_floor_survives_regrowth_and_drain() {
        // The capacity consistency contract: neither a growth cycle well
        // past the initial size nor a full drain may ever drop
        // `capacity()` below a previously requested floor.
        let mut q = EventQueue::with_capacity(256);
        let initial = q.capacity();
        assert!(initial >= 256);
        let mut seen_min = usize::MAX;
        for round in 0..3u64 {
            for i in 0..2000u64 {
                q.schedule(SimTime(round * 10_000 + i * 3), i);
            }
            while q.pop().is_some() {}
            seen_min = seen_min.min(q.capacity());
        }
        assert!(
            seen_min >= initial,
            "capacity fell from {initial} to {seen_min}"
        );
        // reserve() floors capacity at pending + additional.
        for i in 0..10u64 {
            q.schedule(SimTime(1_000_000 + i), i);
        }
        q.reserve(5000);
        assert!(q.capacity() >= 5010);
        while q.pop().is_some() {}
        assert!(q.capacity() >= 5010, "drain dropped the floor");
    }

    /// Drive the queue and the reference model through the same
    /// schedule and require an identical pop sequence.
    fn assert_matches_reference(schedule: &[(u64, &'static str)]) {
        let mut q = EventQueue::new();
        let mut model = ReferenceQueue::new();
        for (seq, &(at, ev)) in schedule.iter().enumerate() {
            q.schedule(SimTime(at), ev);
            model.insert(at, seq as u64, ev);
        }
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let want: Vec<_> = std::iter::from_fn(|| model.pop())
            .map(|(at, _, e)| (SimTime(at), e))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn far_future_and_extreme_times_match_reference() {
        assert_matches_reference(&[
            (10, "a"),
            (100_000_000_000, "far-b"),
            (5, "c"),
            (100_000_000_000, "far-d"),
            (6_000_000_000, "mid-e"),
            (0, "zero-f"),
            (u64::MAX, "max-g"),
            (u64::MAX, "max-h"),
            (u64::MAX - 1, "almost-i"),
        ]);
    }

    #[test]
    fn dense_microsecond_schedules_match_reference() {
        let mut sched = Vec::new();
        for i in 0..500u64 {
            // Deterministic pseudo-scatter over a ~40 us horizon.
            sched.push((i.wrapping_mul(2_654_435_761) % 40_000, "x"));
        }
        assert_matches_reference(&sched);
    }

    #[test]
    fn peek_time_is_exact() {
        let mut q = EventQueue::new();
        for i in 0..200u64 {
            let at = (i.wrapping_mul(0x9E3779B97F4A7C15)) % 10_000_000_000;
            q.schedule(SimTime(at), i);
        }
        while let Some(t) = q.peek_time() {
            let (got, _) = q.pop().expect("peeked event pops");
            assert_eq!(got, t);
        }
    }
}
