//! Conservative epoch scheduling for parallel simulation.
//!
//! A sharded simulation advances all shards through a sequence of
//! *epochs*: half-open-left windows `(b, b']` of simulated time. Within
//! an epoch every shard processes only its own events; anything that
//! crosses a shard boundary (an RPC, a reply) is buffered and exchanged
//! at the *barrier* between epochs. This is safe — no shard can ever see
//! an event "from the past" — as long as every epoch is no longer than
//! the *lookahead*: the minimum latency any cross-shard interaction
//! needs before it can affect another shard. For the PFS simulator the
//! lookahead is the minimum network latency: a message sent at time `t`
//! cannot be delivered before `t + latency`, so a send performed inside
//! `(b, b']` always lands strictly after `b'` (epoch length ≤ latency).
//!
//! [`EpochSchedule`] produces the boundary sequence. Besides the regular
//! lookahead grid it can pin extra boundaries at a recurring *tick*
//! (e.g. a controller interval): placing `j·C` and `j·C + offset` on the
//! boundary set guarantees the tick event is processed in its own
//! mini-epoch, after every delivery from before the tick has been
//! materialised and before any delivery following it is routed — which
//! is what keeps globally ordered control decisions identical between
//! sequential and sharded execution.
//!
//! Cross-shard deliveries wait in a plain
//! [`EventQueue`](crate::event::EventQueue): it drains in `(time,
//! insertion order)`, so the merge order at a barrier depends only on
//! the (canonical) order in which the coordinator pushed them — never on
//! thread scheduling. Every push lands at or after the queue's clock (the
//! last boundary drained to), because a delivery happens at least one
//! lookahead after its send and no epoch is longer than the lookahead.

use crate::time::{SimDuration, SimTime};

/// Generator of conservative epoch boundaries.
///
/// Boundaries are the union of the regular grid `{k·lookahead}` and, if
/// a tick is configured, the points `{j·interval}` and
/// `{j·interval + offset}`. Consecutive boundaries are therefore never
/// more than `lookahead` apart, which is the conservative-synchronisation
/// safety condition.
#[derive(Clone, Copy, Debug)]
pub struct EpochSchedule {
    lookahead: SimDuration,
    tick: Option<(SimDuration, SimDuration)>,
}

impl EpochSchedule {
    /// Schedule with the plain lookahead grid. `lookahead` must be
    /// non-zero.
    pub fn new(lookahead: SimDuration) -> Self {
        assert!(lookahead > SimDuration::ZERO, "lookahead must be non-zero");
        EpochSchedule {
            lookahead,
            tick: None,
        }
    }

    /// Add recurring tick boundaries at `j·interval` and
    /// `j·interval + offset` for `j ≥ 1`. `offset` must not exceed
    /// `interval`; at `offset == interval` the offset points coincide
    /// with the next tick (a 1 ns tick at a 1 ns offset makes every
    /// nanosecond a boundary).
    pub fn with_tick(mut self, interval: SimDuration, offset: SimDuration) -> Self {
        assert!(
            interval > SimDuration::ZERO,
            "tick interval must be non-zero"
        );
        assert!(
            offset <= interval,
            "tick offset must not pass the next tick"
        );
        self.tick = Some((interval, offset));
        self
    }

    /// The configured lookahead (maximum epoch length).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// The first boundary strictly after `b`. Never more than
    /// `lookahead` past `b`.
    pub fn next_after(&self, b: SimTime) -> SimTime {
        let l = self.lookahead.as_nanos();
        let mut next = (b.as_nanos() / l + 1) * l;
        if let Some((c, o)) = self.tick {
            let (c, o) = (c.as_nanos(), o.as_nanos());
            let j = b.as_nanos() / c;
            for cand in [j * c, j * c + o, (j + 1) * c, (j + 1) * c + o] {
                if cand > b.as_nanos() && cand < next {
                    next = cand;
                }
            }
        }
        SimTime(next)
    }

    /// The last boundary strictly *before* `t` (zero if there is none):
    /// the base from which the epoch containing `t` starts. Used to
    /// fast-forward over stretches with no pending work.
    pub fn last_before(&self, t: SimTime) -> SimTime {
        if t == SimTime::ZERO {
            return SimTime::ZERO;
        }
        let x = t.as_nanos() - 1;
        let l = self.lookahead.as_nanos();
        let mut last = (x / l) * l;
        if let Some((c, o)) = self.tick {
            let (c, o) = (c.as_nanos(), o.as_nanos());
            let j = x / c;
            for cand in [j * c, j * c + o] {
                if cand <= x && cand > last {
                    last = cand;
                }
            }
        }
        SimTime(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_never_exceed_lookahead() {
        let s = EpochSchedule::new(SimDuration::from_micros(100))
            .with_tick(SimDuration::from_millis(1), SimDuration::from_nanos(1));
        let mut b = SimTime::ZERO;
        for _ in 0..10_000 {
            let n = s.next_after(b);
            assert!(n > b);
            assert!(n - b <= SimDuration::from_micros(100));
            b = n;
        }
    }

    #[test]
    fn tick_points_are_boundaries() {
        let s = EpochSchedule::new(SimDuration::from_micros(100))
            .with_tick(SimDuration::from_millis(1), SimDuration::from_nanos(1));
        // Walking from just before a tick must land exactly on j·C, then
        // on j·C + 1ns.
        let close = SimTime(1_000_000);
        let before = SimTime(close.as_nanos() - 50);
        assert_eq!(s.next_after(before), close);
        assert_eq!(s.next_after(close), SimTime(close.as_nanos() + 1));
    }

    #[test]
    fn last_before_is_inverse_of_next_after() {
        let s = EpochSchedule::new(SimDuration::from_micros(100))
            .with_tick(SimDuration::from_millis(1), SimDuration::from_nanos(1));
        for t in [
            1u64, 99_999, 100_000, 100_001, 1_000_000, 1_000_001, 1_000_002,
        ] {
            let t = SimTime(t);
            let b = s.last_before(t);
            assert!(b < t, "base {b:?} not before {t:?}");
            assert!(s.next_after(b) >= t, "epoch ({b:?}, ..] skips {t:?}");
        }
    }
}
