//! Property tests for the conservative epoch scheduler and the
//! cross-shard mailbox (an `EventQueue` of pending deliveries):
//! arbitrary interleaved sends must never be delivered before their
//! timestamp, and the drain order must match a naive sorted-`Vec`
//! reference model.

use proptest::prelude::*;
use qi_simkit::epoch::EpochSchedule;
use qi_simkit::event::EventQueue;
use qi_simkit::time::{SimDuration, SimTime};

/// One cross-shard send: issued by `shard` at `sent`, delivered no
/// earlier than `sent + delay` where `delay ≥ lookahead`.
#[derive(Clone, Debug)]
struct Send {
    shard: u8,
    sent: u64,
    delay: u64,
}

const LOOKAHEAD: u64 = 100_000; // 100 µs in nanoseconds

fn sends(max: usize) -> impl Strategy<Value = Vec<Send>> {
    // Sends happen strictly after the run start: events at exactly t=0
    // are pre-run injections, which the coordinator routes before the
    // first epoch rather than through the mailbox.
    prop::collection::vec((0u8..4, 1u64..5_000_000, LOOKAHEAD..400_000), 1..max).prop_map(|raw| {
        raw.into_iter()
            .map(|(shard, sent, delay)| Send { shard, sent, delay })
            .collect()
    })
}

proptest! {
    /// Drive an epoch loop: at each barrier, sends issued inside the
    /// finished epoch enter the mailbox (in canonical shard order) and
    /// deliveries due by the *next* boundary drain. No delivery may be
    /// observed before its timestamp, at a barrier later than its
    /// timestamp's epoch, or out of `(time, push order)` order. Every
    /// push lands at or after the mailbox clock (the last boundary it
    /// drained to), which `EventQueue::schedule` debug-asserts.
    #[test]
    fn mailbox_never_delivers_early(sends in sends(64)) {
        let mut sends = sends;
        let schedule = EpochSchedule::new(SimDuration::from_nanos(LOOKAHEAD))
            .with_tick(SimDuration::from_millis(1), SimDuration::from_nanos(1));
        // Canonical barrier ordering: by send time, ties by shard id —
        // the same discipline the cluster coordinator uses.
        sends.sort_by_key(|s| (s.sent, s.shard));
        let horizon = sends
            .iter()
            .map(|s| s.sent + s.delay)
            .max()
            .unwrap_or(0);

        let mut mailbox: EventQueue<(u8, u64)> = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new(); // (deliver, push idx)
        let mut pushed = 0usize;
        let mut delivered: Vec<(u64, u8, u64)> = Vec::new(); // (deliver, shard, sent)
        let mut b = SimTime::ZERO;
        let mut next_send = 0usize;

        while b.as_nanos() <= horizon {
            let e = schedule.next_after(b);
            prop_assert!(e - b <= SimDuration::from_nanos(LOOKAHEAD));
            // Barrier at `e`: collect sends issued in (b, e]. A send at
            // exactly SimTime::ZERO belongs to the first epoch too.
            while next_send < sends.len() {
                let s = &sends[next_send];
                if SimTime(s.sent) > e {
                    break;
                }
                let deliver = s.sent + s.delay;
                // Conservative safety: the delivery lands strictly
                // after the epoch that produced it.
                prop_assert!(deliver > e.as_nanos());
                mailbox.schedule(SimTime(deliver), (s.shard, s.sent));
                reference.push((deliver, pushed));
                pushed += 1;
                next_send += 1;
            }
            // Drain deliveries due by the end of the NEXT epoch.
            let ne = schedule.next_after(e);
            while let Some((at, (shard, sent))) = mailbox.pop_until(ne) {
                prop_assert!(at.as_nanos() >= sent + LOOKAHEAD, "delivered early");
                prop_assert!(at > e, "delivered inside the sending epoch");
                delivered.push((at.as_nanos(), shard, sent));
            }
            b = e;
        }
        while let Some((at, (shard, sent))) = mailbox.pop_until(SimTime::MAX) {
            delivered.push((at.as_nanos(), shard, sent));
        }

        // Drain order matches the sorted-Vec reference model: stable
        // sort by delivery time, ties by push order.
        reference.sort_by_key(|&(deliver, idx)| (deliver, idx));
        prop_assert_eq!(delivered.len(), reference.len());
        for (got, &(want_at, idx)) in delivered.iter().zip(reference.iter()) {
            prop_assert_eq!(got.0, want_at);
            let s = &sends[idx];
            prop_assert_eq!(got.1, s.shard);
            prop_assert_eq!(got.2, s.sent);
        }
    }

    /// The boundary sequence is strictly increasing, gap-bounded by the
    /// lookahead, and `last_before` always names the base of the epoch
    /// containing its argument — with no tick, a regular tick, or the
    /// degenerate 1 ns tick whose 1 ns offset lands on the next tick.
    #[test]
    fn schedule_boundaries_are_consistent(
        start in 0u64..10_000_000,
        steps in 1usize..200,
        with_tick in 0u32..3,
        tick_interval in 1_000u64..2_000_000,
    ) {
        let tick = match with_tick {
            0 => None,
            1 => Some(tick_interval),
            _ => Some(1),
        };
        let mut schedule = EpochSchedule::new(SimDuration::from_nanos(LOOKAHEAD));
        if let Some(c) = tick {
            schedule = schedule.with_tick(
                SimDuration::from_nanos(c),
                SimDuration::from_nanos(1),
            );
        }
        let mut b = SimTime(start);
        for _ in 0..steps {
            let n = schedule.next_after(b);
            prop_assert!(n > b);
            prop_assert!(n - b <= SimDuration::from_nanos(LOOKAHEAD));
            // Fast-forward consistency: the epoch restarted at
            // `last_before(t)` still covers t for any t in (b, n].
            let t = n;
            let base = schedule.last_before(t);
            prop_assert!(base < t);
            prop_assert!(schedule.next_after(base) >= t);
            b = n;
        }
    }
}
