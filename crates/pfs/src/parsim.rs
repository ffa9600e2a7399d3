//! The parallel simulation driver: conservative epoch synchronisation
//! over the server shards.
//!
//! Runs when `sim_shards > 1`. Time advances through epochs `(b, e]`
//! whose length never exceeds the lookahead (the minimum network
//! latency): a message sent inside an epoch cannot be delivered inside
//! it, so shards may process their epochs concurrently without ever
//! seeing an event from the past. Each epoch:
//!
//! 1. **Materialise** cross-boundary deliveries due in `(b, e]` from the
//!    mailbox onto their owning queues (data RPCs consult the realm's
//!    token-bucket filters here, at delivery time).
//! 2. **Realm phase** (sequential): clients, MDS/MDT, control. Runs
//!    first so directives can update shard replicas before shard events
//!    of the same epoch execute.
//! 3. **Shard phase** (rayon): every shard drains its queue to `e`,
//!    deferring network sends into its outbox.
//! 4. **Barrier** (sequential): apply all deferred sends to the shared
//!    NIC clocks in global timestamp order (stable ties: realm first,
//!    then shards ascending — the canonical order), push the resulting
//!    deliveries into the mailbox, and merge monitor samples into the
//!    trace in (time, device) order.
//!
//! Controller ticks get dedicated mini-epoch boundaries at `j·C` and
//! `j·C + 1 ns`, so a tick observes exactly the windows a sequential run
//! would show it. See DESIGN.md ("Parallel simulation") for the full
//! determinism argument and the residual tie-ordering caveats.

use qi_faults::FaultEvent;
use qi_simkit::epoch::EpochSchedule;
use rayon::prelude::*;

use super::*;

/// Minimum total pending events (across shards with work due in the
/// epoch) before the shard phase fans out to rayon. Below it, the
/// fork-join wakeup costs more than the epoch's work — the common case
/// in sparse stretches (sampler ticks, drain tails) — so the shards run
/// serially instead. The two paths are observably identical: shards own
/// disjoint state, so their relative execution order cannot matter.
const PAR_WORK_THRESHOLD: usize = 128;

/// Earliest of two optional instants.
fn min_time(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl Cluster {
    pub(super) fn run_parallel(mut self, deadline: SimTime, stop_app: Option<AppId>) -> RunTrace {
        let sched = {
            let base = EpochSchedule::new(self.cfg.net.latency);
            if self.controller.is_some() {
                base.with_tick(self.control_interval, SimDuration::from_nanos(1))
            } else {
                base
            }
        };
        self.stage_parallel_start();

        // Cross-boundary deliveries in flight, drained in (time,
        // push order). Every push lands at or after the mailbox clock:
        // a delivery is at least one latency after its send, and no
        // epoch is longer than one latency.
        let mut mailbox: EventQueue<Msg> = EventQueue::new();
        let mut intents: Vec<SendIntent> = Vec::new();
        let mut merged: Vec<ServerSample> = Vec::new();
        let mut b = SimTime::ZERO;
        let mut stopped: Option<SimTime> = None;

        loop {
            // Earliest pending instant anywhere; nothing before it can
            // exist, so empty stretches fast-forward whole epochs.
            let mut m = self.events.peek_time();
            for sh in &self.shards {
                m = min_time(m, sh.q.peek_time());
            }
            m = min_time(m, mailbox.peek_time());
            let Some(m) = m else { break };
            if m > deadline {
                break;
            }
            let mut e = sched.next_after(b);
            if m > e {
                b = sched.last_before(m);
                e = sched.next_after(b);
            }
            let e = e.min(deadline);
            debug_assert!(e > b, "empty epoch with pending work at {m:?}");

            // 1. Materialise cross-boundary deliveries due this epoch.
            while let Some((at, msg)) = mailbox.pop_until(e) {
                self.route_delivery(at, msg);
            }

            // 2. Realm phase.
            while let Some((now, ev)) = self.events.pop_until(e) {
                self.handle(now, ev);
                if let Some(app) = stop_app {
                    if self.trace.app_completion[app.0 as usize].is_some() {
                        stopped = Some(now);
                        break;
                    }
                }
            }

            // 3. Shard phase. On an early stop the shards advance only
            // to the stop instant, like the sequential loop's break.
            let until = stopped.unwrap_or(e);
            let cfg = &self.cfg;
            let (due, work) = self
                .shards
                .iter()
                .filter(|sh| sh.q.peek_time().is_some_and(|t| t <= until))
                .fold((0usize, 0usize), |(n, w), sh| (n + 1, w + sh.q.pending()));
            if due >= 2 && work >= PAR_WORK_THRESHOLD {
                self.shards
                    .par_iter_mut()
                    .for_each(|sh| sh.run_epoch(until, cfg));
            } else {
                for sh in &mut self.shards {
                    sh.run_epoch(until, cfg);
                }
            }

            // 4a. Barrier: NIC clocks advance in global timestamp order.
            // The sort is stable, so same-instant intents keep the
            // canonical realm-then-ascending-shards order.
            intents.append(&mut self.realm_outbox);
            for sh in &mut self.shards {
                intents.append(&mut sh.outbox);
            }
            intents.sort_by_key(|i| i.at);
            for i in intents.drain(..) {
                let deliver = self.net.send(i.at, i.src, i.dst, i.payload);
                if let Some(msg) = i.msg {
                    mailbox.schedule(deliver + i.extra, msg);
                }
            }

            // 4b. Merge monitor samples in (time, device) order — the
            // exact order the sequential sampler pushes.
            merged.append(&mut self.realm_samples);
            for sh in &mut self.shards {
                merged.append(&mut sh.st.sample_buf);
            }
            merged.sort_by_key(|s| (s.time, s.dev.0));
            for s in merged.drain(..) {
                self.trace.samples.push(s);
            }

            if stopped.is_some() {
                break;
            }
            b = e;
        }

        if stopped.is_none() {
            // Match the sequential loop: the clock parks at the deadline
            // when it runs out of (in-range) events.
            let _ = self.events.pop_until(deadline);
        }
        self.trace.end = self.events.now();
        let mut processed = self.events.processed();
        for sh in &self.shards {
            processed += sh.q.processed();
        }
        self.trace.events_processed = processed;
        self.trace.metrics = self.metrics_snapshot(self.events.now());
        self.trace
    }

    /// Route one materialised network delivery to its owning queue.
    /// Data RPCs clear the (realm-owned) token-bucket filter here, at
    /// delivery time, exactly as the sequential `deliver` does.
    fn route_delivery(&mut self, at: SimTime, msg: Msg) {
        match msg {
            Msg::ReadReq { len, token, .. } | Msg::WriteReq { len, token, .. } => {
                let admitted = match self.tbf.get_mut(&token.app) {
                    Some(bucket) => bucket.earliest(at, len as f64),
                    None => at,
                };
                let s = self.shard_of_dev(Self::msg_dev(&msg).0);
                if admitted > at {
                    self.shards[s].q.schedule(admitted, Ev::TbfAdmitted(msg));
                } else {
                    self.shards[s].q.schedule(at, Ev::Deliver(msg));
                }
            }
            _ => self.events.schedule(at, Ev::Deliver(msg)),
        }
    }

    /// Run-start staging for the parallel driver: route pre-run
    /// injections and the fault plan to their owning queues, kick the
    /// ranks, start the realm (MDT) and per-shard sampler chains, and
    /// schedule the first controller tick.
    fn stage_parallel_start(&mut self) {
        for (at, ev) in std::mem::take(&mut self.pending_init) {
            match ev {
                Ev::FailSlow { dev, .. } if (dev as usize) < self.ost_shard.len() => {
                    let s = self.ost_shard[dev as usize];
                    self.shards[s].q.schedule(at, ev);
                }
                _ => self.events.schedule(at, ev),
            }
        }
        self.schedule_fault_plan_parallel();
        for a in 0..self.apps.len() {
            for r in 0..self.apps[a].ranks.len() {
                self.events.schedule(
                    SimTime::ZERO,
                    Ev::RankNext {
                        app: a as u32,
                        rank: r as u32,
                    },
                );
            }
        }
        let first = SimTime::ZERO + self.cfg.sample_interval;
        self.events.schedule(first, Ev::Sample);
        for sh in &mut self.shards {
            sh.q.schedule(first, Ev::Sample);
        }
        if self.controller.is_some() {
            self.events.schedule(
                SimTime::ZERO + self.control_interval + SimDuration::from_nanos(1),
                Ev::Control,
            );
        }
    }

    /// Split the fault plan by owner: device/OSS faults of a shard's
    /// range go on that shard's queue, everything else (network rules,
    /// lock storms, MDT device faults) stays with the realm scheduler.
    fn schedule_fault_plan_parallel(&mut self) {
        let plan = std::mem::take(&mut self.fault_plan);
        let n_osts = self.ost_shard.len();
        let ost_shard = &self.ost_shard;
        let osts_per_oss = self.cfg.osts_per_oss;
        let (realm, parts) = plan.split_by(self.shards.len(), |ev| match *ev {
            FaultEvent::SlowDisk { dev, .. } | FaultEvent::DiskStall { dev, .. }
                if (dev as usize) < n_osts =>
            {
                Some(ost_shard[dev as usize])
            }
            FaultEvent::OssThreadCrash { oss, .. } => {
                Some(ost_shard[(oss * osts_per_oss) as usize])
            }
            _ => None,
        });
        self.fault_plan = realm;
        self.schedule_fault_plan();
        for (s, sub) in parts.into_iter().enumerate() {
            for ev in sub.events() {
                let q = &mut self.shards[s].q;
                match *ev {
                    FaultEvent::SlowDisk {
                        dev,
                        factor,
                        from,
                        until,
                    } => {
                        q.schedule(from, Ev::FailSlow { dev, factor });
                        q.schedule(until, Ev::FailSlow { dev, factor: 1.0 });
                    }
                    FaultEvent::DiskStall { dev, at, duration } => {
                        q.schedule(
                            at,
                            Ev::DiskStall {
                                dev,
                                until: at + duration,
                            },
                        );
                    }
                    FaultEvent::OssThreadCrash {
                        oss,
                        at,
                        restart,
                        remaining,
                    } => {
                        q.schedule(
                            at,
                            Ev::OssFactor {
                                oss,
                                factor: 1.0 / remaining,
                            },
                        );
                        if let Some(r) = restart {
                            q.schedule(r, Ev::OssFactor { oss, factor: 1.0 });
                        }
                    }
                    _ => unreachable!("realm fault routed to a shard"),
                }
            }
        }
    }
}
