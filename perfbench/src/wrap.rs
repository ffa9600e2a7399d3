//! Timing wrappers around the public traits the library calls back into
//! (`Workload`, `ClusterController`, `PredictService`,
//! `MitigationPolicy`), plus a scenario runner that deploys wrapped
//! workloads. Every wrapper forwards each call unchanged, so a wrapped
//! run produces the same outputs as an unwrapped one (tested below).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use qi_control::{MitigationPolicy, WindowObservation};
use qi_pfs::cluster::Cluster;
use qi_pfs::config::ClusterConfig;
use qi_pfs::control::{ClusterController, ControlDirective};
use qi_pfs::ids::AppId;
use qi_pfs::ops::RunTrace;
use qi_serve::{Admission, ModelRegistry, PredictRequest, PredictService, Prediction};
use qi_simkit::time::{SimDuration, SimTime};
use qi_simkit::QiError;
use qi_telemetry::MetricsSnapshot;
use qi_workloads::common::deploy_delayed;
use qi_workloads::{PrecreateFile, ScriptStep, Workload};
use quanterference::Scenario;

use crate::trace;

/// A workload whose script generation is recorded as `workloads.script`.
pub struct TimedWorkload {
    inner: Arc<dyn Workload>,
}

impl TimedWorkload {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Workload>) -> Self {
        TimedWorkload { inner }
    }
}

impl Workload for TimedWorkload {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn precreate(&self, ns: AppId, ranks: u32, cfg: &ClusterConfig) -> Vec<PrecreateFile> {
        self.inner.precreate(ns, ranks, cfg)
    }

    fn script(
        &self,
        ns: AppId,
        rank: u32,
        ranks: u32,
        seed: u64,
        cfg: &ClusterConfig,
    ) -> Vec<ScriptStep> {
        let _s = trace::span("workloads.script", u64::from(ns.0));
        self.inner.script(ns, rank, ranks, seed, cfg)
    }
}

/// Run `s` exactly as [`Scenario::run_with`] does, but deploy every
/// workload behind a [`TimedWorkload`] and record the event loop as
/// `pfs.run_until_app` (request id `req`).
pub fn run_scenario(
    s: &Scenario,
    req: u64,
    prepare: impl FnOnce(&mut Cluster),
) -> Result<(AppId, RunTrace), QiError> {
    let mut builder = Cluster::builder().config(s.cluster.clone()).seed(s.seed);
    if let Some(plan) = &s.fault_plan {
        builder = builder.fault_plan(plan.clone());
    }
    let mut cl = builder.build()?;
    let build = |kind: qi_workloads::WorkloadKind| -> Arc<dyn Workload> {
        let w = if s.small {
            kind.build_small()
        } else {
            kind.build()
        };
        Arc::new(TimedWorkload::new(w))
    };
    let warmup = if s.interference.is_empty() {
        SimDuration::ZERO
    } else {
        s.warmup
    };
    let target = deploy_delayed(
        &mut cl,
        &build(s.target),
        s.target_ranks,
        &s.target_nodes(),
        s.seed,
        false,
        warmup,
    );
    let noise_nodes = s.noise_nodes();
    let mut salt = 1u64;
    for spec in &s.interference {
        let w = build(spec.kind);
        for inst in 0..spec.instances {
            let nodes: Vec<_> = (0..noise_nodes.len())
                .map(|i| noise_nodes[(inst as usize + i) % noise_nodes.len()])
                .collect();
            deploy_delayed(
                &mut cl,
                &w,
                spec.ranks,
                &nodes,
                s.seed ^ (salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                true,
                SimDuration::ZERO,
            );
            salt += 1;
        }
    }
    prepare(&mut cl);
    let deadline = SimTime::ZERO + warmup + s.deadline;
    let _s = trace::span("pfs.run_until_app", req);
    Ok((target, cl.run_until_app(target, deadline)))
}

/// A controller whose ticks are recorded as `control.on_window` and
/// whose host time per tick is logged for the decision percentiles.
pub struct TimedController<C> {
    inner: C,
    req: u64,
    ticks_ns: Arc<Mutex<Vec<u64>>>,
}

impl<C> TimedController<C> {
    /// Wrap `inner`; each tick's host nanoseconds are appended to
    /// `ticks_ns`.
    pub fn new(inner: C, req: u64, ticks_ns: Arc<Mutex<Vec<u64>>>) -> Self {
        TimedController {
            inner,
            req,
            ticks_ns,
        }
    }
}

impl<C: ClusterController> ClusterController for TimedController<C> {
    fn interval(&self) -> SimDuration {
        self.inner.interval()
    }

    fn on_window(
        &mut self,
        now: SimTime,
        window: u64,
        trace: &RunTrace,
        out: &mut Vec<ControlDirective>,
    ) {
        let _s = trace::span("control.on_window", self.req);
        let t = Instant::now();
        self.inner.on_window(now, window, trace, out);
        let ns = t.elapsed().as_nanos() as u64;
        self.ticks_ns.lock().expect("tick log lock").push(ns);
    }

    fn metrics_into(&self, snap: &mut MetricsSnapshot) {
        self.inner.metrics_into(snap);
    }
}

/// Serving counters accumulated by a [`TimedService`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Requests submitted.
    pub submits: u64,
    /// Predictions handed back.
    pub preds: u64,
    /// Σ 1/batch over predictions: the number of batches, once every
    /// batch has been answered.
    pub batch_weight: f64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests answered stale at admission.
    pub stale: u64,
    /// Host nanoseconds spent inside `submit` and `finish`.
    pub busy_ns: u64,
}

impl ServeStats {
    /// Whole batches answered.
    pub fn batches(&self) -> u64 {
        self.batch_weight.round() as u64
    }

    /// Add another engine's counters.
    pub fn add(&mut self, o: &ServeStats) {
        self.submits += o.submits;
        self.preds += o.preds;
        self.batch_weight += o.batch_weight;
        self.shed += o.shed;
        self.stale += o.stale;
        self.busy_ns += o.busy_ns;
    }

    fn absorb(&mut self, preds: &[Prediction]) {
        self.preds += preds.len() as u64;
        self.batch_weight += preds.iter().map(|p| 1.0 / p.batch as f64).sum::<f64>();
    }
}

/// A prediction service whose `submit` and `finish` calls are recorded
/// as `serve.submit` and counted in shared [`ServeStats`].
pub struct TimedService<S> {
    inner: S,
    req: u64,
    stats: Arc<Mutex<ServeStats>>,
}

impl<S> TimedService<S> {
    /// Wrap `inner`, accumulating into `stats`.
    pub fn new(inner: S, req: u64, stats: Arc<Mutex<ServeStats>>) -> Self {
        TimedService { inner, req, stats }
    }
}

impl<S: PredictService> PredictService for TimedService<S> {
    fn registry(&self) -> &ModelRegistry {
        self.inner.registry()
    }

    fn submit(
        &mut self,
        now: SimTime,
        req: PredictRequest,
    ) -> Result<(Admission, Vec<Prediction>), QiError> {
        let _s = trace::span("serve.submit", self.req);
        let t = Instant::now();
        let res = self.inner.submit(now, req);
        let ns = t.elapsed().as_nanos() as u64;
        let mut st = self.stats.lock().expect("serve stats lock");
        st.busy_ns += ns;
        st.submits += 1;
        if let Ok((admission, done)) = &res {
            st.absorb(done);
            match admission {
                Admission::Enqueued => {}
                Admission::Stale(_) => st.stale += 1,
                Admission::Shed => st.shed += 1,
            }
        }
        res
    }

    fn finish(&mut self, now: SimTime) -> Result<Vec<Prediction>, QiError> {
        let _s = trace::span("serve.submit", self.req);
        let t = Instant::now();
        let res = self.inner.finish(now);
        let ns = t.elapsed().as_nanos() as u64;
        let mut st = self.stats.lock().expect("serve stats lock");
        st.busy_ns += ns;
        if let Ok(done) = &res {
            st.absorb(done);
        }
        res
    }
}

/// A mitigation policy whose decisions are recorded as `control.policy`.
pub struct TimedPolicy<P> {
    inner: P,
    req: u64,
}

impl<P> TimedPolicy<P> {
    /// Wrap `inner`.
    pub fn new(inner: P, req: u64) -> Self {
        TimedPolicy { inner, req }
    }
}

impl<P: MitigationPolicy> MitigationPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn needs_predictions(&self) -> bool {
        self.inner.needs_predictions()
    }

    fn decide(&mut self, obs: &WindowObservation<'_>, out: &mut Vec<ControlDirective>) {
        let _s = trace::span("control.policy", self.req);
        self.inner.decide(obs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::trace_digest;
    use crate::loops::{guided_loop, regime_scenario, train_text, REGIMES};
    use quanterference::{GuidedThrottle, InterferenceSpec, WorkloadKind};

    fn small_scenario() -> Scenario {
        Scenario {
            cluster: ClusterConfig::small(),
            small: true,
            target_ranks: 2,
            ..Scenario::baseline(WorkloadKind::IorEasyRead, 11)
        }
        .with_interference(InterferenceSpec {
            kind: WorkloadKind::IorEasyWrite,
            instances: 2,
            ranks: 2,
        })
    }

    #[test]
    fn wrapped_workloads_replay_the_same_trace() {
        let s = small_scenario();
        let (app, plain) = s.run().expect("plain run");
        let (wapp, wrapped) = run_scenario(&s, 0, |_| {}).expect("wrapped run");
        assert_eq!(app, wapp);
        assert!(!plain.ops.is_empty());
        assert_eq!(trace_digest(&plain), trace_digest(&wrapped));
    }

    #[test]
    fn wrapped_control_loop_emits_the_same_directives() {
        let (text, _) = train_text(&[1, 2, 3], 11, 8);
        let r = &REGIMES[0];
        let s = regime_scenario(r, 5);
        let (_, plain) = s
            .run_with(|cl| cl.install_controller(Box::new(guided_loop(&text, &s, None))))
            .expect("plain controlled run");

        let ticks = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(Mutex::new(ServeStats::default()));
        let ctl = TimedController::new(
            guided_loop(&text, &s, Some((7, Arc::clone(&stats)))),
            7,
            Arc::clone(&ticks),
        );
        let (_, wrapped) = s
            .run_with(|cl| cl.install_controller(Box::new(ctl)))
            .expect("wrapped controlled run");

        assert!(!plain.directives.is_empty(), "the loop never acted");
        assert_eq!(plain.directives, wrapped.directives);
        assert_eq!(trace_digest(&plain), trace_digest(&wrapped));
        let n_ticks = ticks.lock().expect("tick log").len() as u64;
        assert_eq!(Some(n_ticks), wrapped.metrics.counter("control.ticks"));
        let st = stats.lock().expect("serve stats").clone();
        assert_eq!(
            Some(st.submits),
            wrapped.metrics.counter("control.requests")
        );
        assert_eq!(st.preds, st.submits, "every admitted request is answered");
    }

    #[test]
    fn wrapped_policy_forwards_decisions() {
        let mut plain = GuidedThrottle::new(AppId(0), vec![AppId(1)], 1, 1e6).expect("policy");
        let mut wrapped = TimedPolicy::new(
            GuidedThrottle::new(AppId(0), vec![AppId(1)], 1, 1e6).expect("policy"),
            0,
        );
        assert_eq!(plain.name(), wrapped.name());
        let hot = [Prediction {
            tenant: AppId(0),
            window: 3,
            class: 1,
            queued: SimDuration::ZERO,
            batch: 1,
            done_at: SimTime::ZERO,
            version: 1,
        }];
        let obs = WindowObservation {
            window: 3,
            now: SimTime::ZERO,
            predictions: &hot,
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        plain.decide(&obs, &mut a);
        wrapped.decide(&obs, &mut b);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }
}
