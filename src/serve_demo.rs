//! The canonical online-serving session, shared by
//! `examples/serve_loop.rs` and the golden-snapshot test in
//! `tests/telemetry_golden.rs`.
//!
//! One fixed, smoke-scale story: train two model versions offline, load
//! both into a versioned registry from their `QIMODEL` text form, then
//! replay a *fresh* interfered run — executed under an active
//! [`FaultPlan`] — through the feature pipeline into the micro-batching
//! service. The same trace is replayed twice through one engine with a
//! hot swap to version 2 in between, and once more through a separate
//! engine with deliberately tight per-tenant admission so the `Shed`
//! overload policy fires. Everything is driven from simulated time, so
//! the session — serving telemetry included — is byte-identical across
//! reruns and shard counts.

use qi_ml::serialize::model_to_text;
use qi_ml::train::{train_with_schema, ModelShape};
use qi_pfs::ids::AppId;
use qi_serve::{
    replay_trace, ModelRegistry, OverloadPolicy, ReplaySummary, ServeConfig, ShardedServeEngine,
};
use qi_simkit::time::SimDuration;
use qi_telemetry::MetricsSnapshot;

use crate::framework::prelude::*;

/// Everything one serving session produced.
pub struct ServeSession {
    /// Offline held-out F1 of model version 1.
    pub offline_f1: f64,
    /// The shape both model versions were validated against.
    pub shape: ModelShape,
    /// First replay: model version 1, generous service.
    pub v1: ReplaySummary,
    /// Second replay on the SAME engine, after the hot swap to v2.
    pub v2: ReplaySummary,
    /// Single replay through the tight-admission engine (Shed policy).
    pub overload: ReplaySummary,
    /// Final telemetry of the main engine (both passes + the swap).
    pub snapshot: MetricsSnapshot,
    /// Final telemetry of the overload engine.
    pub overload_snapshot: MetricsSnapshot,
}

impl ServeSession {
    /// The serving-layer accounting invariant, on both engines: every
    /// submitted request was answered fresh, answered stale, or shed
    /// (queues are empty after `finish`). Returns a description of the
    /// first violation, if any.
    pub fn check_accounting(&self) -> Result<(), String> {
        for (name, snap) in [
            ("main", &self.snapshot),
            ("overload", &self.overload_snapshot),
        ] {
            let c = |k: &str| snap.counter(k).unwrap_or(0);
            let (req, ans, stale, shed) = (
                c("serve.requests"),
                c("serve.answered"),
                c("serve.stale"),
                c("serve.shed"),
            );
            if req != ans + stale + shed {
                return Err(format!(
                    "{name} engine: requests {req} != answered {ans} + stale {stale} + shed {shed}"
                ));
            }
        }
        let c = |k: &str| self.overload_snapshot.counter(k).unwrap_or(0);
        if c("serve.shed") == 0 {
            return Err("overload engine shed nothing; admission not tight enough".into());
        }
        if self.overload.shed != c("serve.shed") {
            return Err(format!(
                "shed admissions seen by the driver ({}) disagree with the shed counter ({})",
                self.overload.shed,
                c("serve.shed")
            ));
        }
        Ok(())
    }
}

/// Run the whole session with both engines at `n_shards` worker shards.
/// The returned telemetry must be byte-identical for any `n_shards` —
/// the golden test and `examples/serve_loop.rs` both gate on that.
pub fn run_serve_session(n_shards: usize) -> Result<ServeSession, QiError> {
    // ------------------------------------------------------------------
    // 1. Offline: train two model versions on a reduced smoke grid.
    //    (v2 simply trains longer — a plausible "nightly retrain".)
    // ------------------------------------------------------------------
    let mut spec = DatasetSpec::smoke();
    spec.seeds = vec![1, 2, 3, 4];
    spec.intensities = vec![1, 2, 3];
    let tcfg = TrainConfig {
        epochs: 25,
        ..TrainConfig::default()
    };
    let (generated, predictor, report) = train_and_evaluate(&spec, &tcfg, 5)?;
    let offline_f1 = report.headline_f1();
    let v1 = predictor.into_model();
    let tcfg2 = TrainConfig {
        epochs: 18,
        ..TrainConfig::default()
    };
    let v2 = train_with_schema(&generated.data, &tcfg2, generated.schema.clone())?;
    let shape = v1.shape();
    let schema = generated.schema.clone();

    // ------------------------------------------------------------------
    // 2. A fresh interfered run the models never saw, under an active
    //    fault plan (a disk slowed 3x for the first half-minute).
    // ------------------------------------------------------------------
    let scenario = Scenario {
        cluster: ClusterConfig::small(),
        small: true,
        target_ranks: 2,
        ..Scenario::baseline(WorkloadKind::IorEasyRead, 77)
    }
    .with_interference(InterferenceSpec {
        kind: WorkloadKind::IorEasyWrite,
        instances: 2,
        ranks: 2,
    })
    .with_fault_plan(FaultPlan::new().with(FaultEvent::SlowDisk {
        dev: 0,
        factor: 3.0,
        from: qi_simkit::time::SimTime::ZERO,
        until: qi_simkit::time::SimTime::ZERO + SimDuration::from_secs(30),
    }));
    let (_, trace) = scenario.run()?;
    let n_devices = scenario.cluster.n_devices();
    let tenants: Vec<AppId> = (0..trace.app_completion.len())
        .map(|i| AppId(i as u32))
        .collect();

    // ------------------------------------------------------------------
    // 3. Registry: both versions enter through their QIMODEL text form
    //    (the same serialization a deployment would ship), v1 active.
    // ------------------------------------------------------------------
    let mut registry = ModelRegistry::new(shape, schema.clone());
    registry.load_text(1, &model_to_text(&v1))?;
    registry.load_text(2, &model_to_text(&v2))?;
    registry.activate(1)?;

    // ------------------------------------------------------------------
    // 4. Main engine: micro-batching, no admission pressure. Replay the
    //    trace under v1, hot-swap to v2 between replays, replay again.
    // ------------------------------------------------------------------
    let cfg = ServeConfig {
        max_batch: 4,
        max_delay: spec.window.window,
        queue_cap: 16,
        admission: None,
        overload: OverloadPolicy::Shed,
        tenants: tenants.clone(),
        threads: None,
    };
    let mut engine = ShardedServeEngine::new(cfg, registry, n_shards)?;
    let pass1 = replay_trace(&mut engine, &trace, n_devices)?;
    let flushed = engine.activate(trace.end, 2)?;
    debug_assert!(flushed.is_empty(), "replay_trace drains the queue");
    let pass2 = replay_trace(&mut engine, &trace, n_devices)?;
    let snapshot = engine.metrics_snapshot();

    // ------------------------------------------------------------------
    // 5. Overload engine: same trace, but each tenant's admission is
    //    tight enough that its token bucket cannot keep up and the Shed
    //    policy fires.
    // ------------------------------------------------------------------
    let tight = ServeConfig {
        max_batch: 4,
        max_delay: spec.window.window,
        queue_cap: 8,
        admission: Some((0.5, 1.0)),
        overload: OverloadPolicy::Shed,
        tenants,
        threads: None,
    };
    let mut registry2 = ModelRegistry::new(shape, schema);
    registry2.load_text(1, &model_to_text(&v1))?;
    registry2.activate(1)?;
    let mut shed_engine = ShardedServeEngine::new(tight, registry2, n_shards)?;
    let overload = replay_trace(&mut shed_engine, &trace, n_devices)?;
    let overload_snapshot = shed_engine.metrics_snapshot();

    Ok(ServeSession {
        offline_f1,
        shape,
        v1: pass1,
        v2: pass2,
        overload,
        snapshot,
        overload_snapshot,
    })
}
