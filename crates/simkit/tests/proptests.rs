//! Property-based tests for the simulation core.

use proptest::prelude::*;
use qi_simkit::event::EventQueue;
use qi_simkit::ratelimit::TokenBucket;
use qi_simkit::reference::ReferenceQueue;
use qi_simkit::stats::{moving_average, percentile, Histogram, OnlineStats};
use qi_simkit::table::AsciiTable;
use qi_simkit::time::{SimDuration, SimTime};

/// One step of an interleaved queue workout: schedule an event at
/// `now + delta`, or pop (a `delta` in the sentinel band means pop).
#[derive(Clone, Debug)]
enum QueueOp {
    Push(u64),
    Pop,
}

fn queue_ops(max_len: usize) -> impl Strategy<Value = Vec<QueueOp>> {
    // Deltas span every band a simulation schedules in: same-instant
    // ties (0), RPC- and disk-scale horizons, far-future timers (5–100 s)
    // and the u64::MAX extreme. A (selector, raw) pair per op stands in
    // for upstream's weighted `prop_oneof!`.
    prop::collection::vec((0u32..100, 0u64..u64::MAX), 1..max_len).prop_map(|raw| {
        raw.into_iter()
            .map(|(sel, r)| match sel {
                0..=39 => QueueOp::Pop,
                40..=49 => QueueOp::Push(0),
                50..=74 => QueueOp::Push(1 + r % 1_000_000),
                75..=89 => QueueOp::Push(1_000_000 + r % 99_000_000),
                90..=97 => QueueOp::Push(5_000_000_000 + r % 95_000_000_000),
                _ => QueueOp::Push(u64::MAX),
            })
            .collect()
    })
}

proptest! {
    /// Arbitrary interleaved push/pop sequences through the heap-backed
    /// `EventQueue` against the naive sorted-`Vec` model: both must emit
    /// the identical `(time, event)` order, including equal-timestamp
    /// FIFO ties and `u64::MAX` deltas (clamped to absolute `u64::MAX`,
    /// the zero-width far edge).
    #[test]
    fn event_queue_matches_reference_model_interleaved(ops in queue_ops(120)) {
        let mut q = EventQueue::new();
        // The model is fed the insertion index as its tie-break key.
        let mut model: ReferenceQueue<usize> = ReferenceQueue::new();
        let mut seq = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                QueueOp::Push(delta) => {
                    let at = SimTime(q.now().as_nanos().saturating_add(delta));
                    q.schedule(at, i);
                    model.insert(at.as_nanos(), seq, i);
                    seq += 1;
                }
                QueueOp::Pop => {
                    let want = model.pop().map(|(at, _, e)| (SimTime(at), e));
                    prop_assert_eq!(q.pop(), want, "diverged at op {}", i);
                }
            }
            prop_assert_eq!(q.pending(), model.len());
            prop_assert_eq!(q.peek_time(), model.peek().map(|(at, _)| SimTime(at)));
        }
        // Drain: the tails must agree too.
        loop {
            let want = model.pop().map(|(at, _, e)| (SimTime(at), e));
            prop_assert_eq!(q.pop(), want);
            if want.is_none() {
                break;
            }
        }
        prop_assert_eq!(q.processed(), seq);
    }

    /// Zero-time and max-time absolute schedules match the model (bulk
    /// load, no interleaving).
    #[test]
    fn event_queue_matches_reference_on_extreme_absolute_times(
        raw_times in prop::collection::vec((0u32..35, 0u64..u64::MAX), 1..60),
    ) {
        let times: Vec<u64> = raw_times
            .into_iter()
            .map(|(sel, r)| match sel {
                0..=4 => 0,
                5..=9 => u64::MAX,
                10..=14 => u64::MAX - 1,
                15..=24 => r % 1_000,
                _ => r,
            })
            .collect();
        let mut q = EventQueue::new();
        let mut model = ReferenceQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
            model.insert(t, i as u64, i);
        }
        for _ in 0..times.len() {
            let want = model.pop().map(|(at, _, e)| (SimTime(at), e));
            prop_assert_eq!(q.pop(), want);
        }
        prop_assert!(q.pop().is_none() && model.pop().is_none());
    }

    /// The capacity contract holds for any construction capacity and
    /// reserve request.
    #[test]
    fn capacity_contract_holds(
        cap in 0usize..600,
        extra in 0usize..600,
        n in 0usize..300,
    ) {
        let mut q = EventQueue::with_capacity(cap);
        prop_assert!(q.capacity() >= cap);
        for i in 0..n {
            q.schedule(SimTime((i as u64) * 17 % 1000), i);
        }
        q.reserve(extra);
        prop_assert!(q.capacity() >= q.pending() + extra);
        let before = q.capacity();
        while q.pop().is_some() {}
        prop_assert!(q.capacity() >= before.min(cap.max(n + extra)));
        prop_assert!(q.capacity() >= cap);
    }

    /// Events always pop in non-decreasing time order, with ties in
    /// insertion order.
    #[test]
    fn event_queue_orders_any_schedule(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut count = 0;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "tie broken out of insertion order");
                }
            }
            prop_assert_eq!(t, SimTime(times[i]));
            last = Some((t, i));
            count += 1;
        }
        prop_assert_eq!(count, times.len());
        prop_assert_eq!(q.processed(), times.len() as u64);
    }

    /// pop_until never delivers an event beyond the deadline and always
    /// advances the clock exactly to the deadline when it returns None.
    #[test]
    fn pop_until_respects_any_deadline(
        times in prop::collection::vec(0u64..1000, 1..50),
        deadline in 0u64..1200,
    ) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime(t), t);
        }
        let deadline = SimTime(deadline);
        let mut delivered = 0;
        while let Some((t, _)) = q.pop_until(deadline) {
            prop_assert!(t <= deadline);
            delivered += 1;
        }
        prop_assert_eq!(q.now(), deadline.max(q.now()));
        let expect = times.iter().filter(|&&t| SimTime(t) <= deadline).count();
        prop_assert_eq!(delivered, expect);
    }

    /// Merging two Welford accumulators equals accumulating sequentially.
    #[test]
    fn stats_merge_is_associative(
        xs in prop::collection::vec(-1e6f64..1e6, 0..100),
        split in 0usize..100,
    ) {
        let split = split.min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() <= 1e-4 * (1.0 + whole.variance()));
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentile_is_monotone_and_bounded(
        xs in prop::collection::vec(-1e5f64..1e5, 1..80),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let a = percentile(&xs, lo);
        let b = percentile(&xs, hi);
        prop_assert!(a <= b + 1e-9);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min - 1e-9 && b <= max + 1e-9);
    }

    /// Moving averages stay within the input's min/max and preserve
    /// length.
    #[test]
    fn moving_average_is_bounded(
        xs in prop::collection::vec(-1e4f64..1e4, 1..100),
        w in 1usize..20,
    ) {
        let sm = moving_average(&xs, w);
        prop_assert_eq!(sm.len(), xs.len());
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &v in &sm {
            prop_assert!(v >= min - 1e-6 && v <= max + 1e-6);
        }
    }

    /// Histograms never lose observations.
    #[test]
    fn histogram_conserves_counts(
        xs in prop::collection::vec(-100.0f64..200.0, 0..300),
        buckets in 1usize..32,
    ) {
        let mut h = Histogram::new(0.0, 100.0, buckets);
        for &x in &xs {
            h.record(x);
        }
        prop_assert_eq!(h.total(), xs.len() as u64);
        let bucketed: u64 = h.buckets().iter().sum();
        prop_assert_eq!(bucketed + h.underflow() + h.overflow(), xs.len() as u64);
    }

    /// CSV rendering always yields header + one line per row, and the
    /// ASCII table has constant line width.
    #[test]
    fn tables_render_consistently(
        rows in prop::collection::vec(prop::collection::vec("[a-z0-9 ,\"]{0,12}", 3), 0..20),
    ) {
        let mut t = AsciiTable::new(vec!["a", "b", "c"]);
        for r in &rows {
            t.add_row(r.clone());
        }
        let csv = t.to_csv();
        prop_assert_eq!(csv.lines().count(), rows.len() + 1);
        let rendered = t.render();
        let widths: Vec<usize> = rendered.lines().map(|l| l.chars().count()).collect();
        prop_assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    /// Duration arithmetic round-trips through seconds within 1 ns.
    #[test]
    fn duration_seconds_round_trip(ns in 0u64..10_000_000_000) {
        let d = SimDuration::from_nanos(ns);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        prop_assert!(back.as_nanos().abs_diff(ns) <= 1);
    }

    /// Token-bucket admission, for ANY request schedule: grants are
    /// non-decreasing (FIFO — a later request never overtakes an earlier
    /// one), each grant is at or after its request, and the total cost
    /// granted by the last grant instant never exceeds the initial burst
    /// plus what the configured rate could have refilled — i.e. the
    /// long-run admitted rate is bounded by `rate`.
    #[test]
    fn token_bucket_grants_fifo_and_rate_bounded(
        rate in 0.5f64..500.0,
        burst in 0.1f64..100.0,
        arrivals in prop::collection::vec((0u64..200_000_000, 0.01f64..20.0), 1..60),
    ) {
        let mut bucket = TokenBucket::new(rate, burst);
        let mut now = SimTime::ZERO;
        let mut last_grant = SimTime::ZERO;
        let mut granted_cost = 0.0f64;
        for &(gap_ns, cost) in &arrivals {
            now += SimDuration::from_nanos(gap_ns);
            let grant = bucket.earliest(now, cost);
            prop_assert!(grant >= now, "grant {grant} before request {now}");
            prop_assert!(
                grant >= last_grant,
                "grant {grant} overtook earlier grant {last_grant}"
            );
            last_grant = grant;
            granted_cost += cost;
            // Capacity available by the grant instant: the initial
            // burst plus rate * elapsed (1e-6 covers f64 rounding).
            let capacity = burst + rate * last_grant.as_secs_f64();
            prop_assert!(
                granted_cost <= capacity + 1e-6,
                "granted {granted_cost} tokens by {last_grant}, capacity only {capacity}"
            );
        }
    }
}
