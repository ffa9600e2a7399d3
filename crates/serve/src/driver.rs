//! Event-time replay driver: trace → feature pipeline → serve engine.
//!
//! The deterministic stand-in for a live metric feed. A finished
//! [`RunTrace`] is pushed through the canonical
//! [`FeaturePipeline`] — the same windowing/accumulation/assembly code
//! training data was built with — and the instant a window is emitted,
//! one [`PredictRequest`](crate::engine::PredictRequest) per active
//! application is submitted to the engine at that window's close time.
//! Because every timestamp comes from the trace, replaying the same
//! trace yields the same requests at the same simulated instants — and
//! therefore byte-identical serving telemetry.
//!
//! The monitoring configuration is **not** a parameter: it is derived
//! from the engine registry's expected [`FeatureSchema`], so the replay
//! can never assemble vectors under a layout different from the one the
//! active model was validated against.

use qi_monitor::pipeline::FeaturePipeline;
use qi_pfs::ops::RunTrace;
use qi_simkit::error::QiError;
use qi_simkit::time::SimTime;

use crate::engine::{Admission, PredictRequest, Prediction, ShardedServeEngine};
use crate::registry::ModelRegistry;

/// What the replay driver (and the control loop) needs from a
/// prediction service. [`ShardedServeEngine`] is the library's
/// implementation; callers substitute their own through this trait, for
/// example to wrap the engine with timing.
pub trait PredictService {
    /// The registry backing the service (the replay derives its
    /// pipeline configuration from the registry's expected schema).
    fn registry(&self) -> &ModelRegistry;
    /// Submit one request at simulated instant `now`.
    fn submit(
        &mut self,
        now: SimTime,
        req: PredictRequest,
    ) -> Result<(Admission, Vec<Prediction>), QiError>;
    /// End of stream: flush whatever is queued.
    fn finish(&mut self, now: SimTime) -> Result<Vec<Prediction>, QiError>;
}

impl PredictService for ShardedServeEngine {
    fn registry(&self) -> &ModelRegistry {
        ShardedServeEngine::registry(self)
    }
    fn submit(
        &mut self,
        now: SimTime,
        req: PredictRequest,
    ) -> Result<(Admission, Vec<Prediction>), QiError> {
        ShardedServeEngine::submit(self, now, req)
    }
    fn finish(&mut self, now: SimTime) -> Result<Vec<Prediction>, QiError> {
        ShardedServeEngine::finish(self, now)
    }
}

/// What a replay produced, in emission order.
#[derive(Debug, Default)]
pub struct ReplaySummary {
    /// Windows the monitor emitted.
    pub windows: u64,
    /// Requests submitted to the engine (one per active app per window).
    pub submitted: u64,
    /// Requests answered with a fresh (possibly batched) prediction.
    pub predictions: Vec<Prediction>,
    /// Requests answered from a stale class (DegradeToStale).
    pub stale: u64,
    /// Requests shed (never answered).
    pub shed: u64,
}

/// Replay `trace` through a fresh [`FeaturePipeline`] into `engine`.
///
/// The pipeline's window and feature configuration come from the
/// registry's expected schema ([`crate::ModelRegistry::expected_schema`]);
/// a registry configured with an unbound ([`custom`]) schema cannot
/// drive a replay and errors out up front.
///
/// Each emitted window is converted to per-app feature blocks via
/// [`EmittedWindow::feature_blocks`][qi_monitor::pipeline::EmittedWindow::feature_blocks]
/// (apps in ascending id order) and submitted at the window's close
/// instant, `wcfg.start_of(window + 1)`. After the stream drains, the
/// pipeline's trailing windows are flushed and the engine is finished,
/// so every admitted request is answered.
///
/// [`custom`]: qi_monitor::schema::FeatureSchema::custom
pub fn replay_trace<S: PredictService>(
    engine: &mut S,
    trace: &RunTrace,
    n_devices: u32,
) -> Result<ReplaySummary, QiError> {
    let schema = engine.registry().expected_schema();
    let wcfg = schema.window_config().ok_or_else(|| {
        QiError::Serve(format!(
            "registry schema [{schema}] has no window length; replay needs a windowed schema"
        ))
    })?;
    let fcfg = schema.feature_config();
    let mut pipeline = FeaturePipeline::new(wcfg, fcfg, n_devices);
    let mut summary = ReplaySummary::default();
    let mut now = SimTime(0);

    let emitted = pipeline.ingest_trace(trace)?;
    let final_windows = pipeline.finish();
    for w in emitted.iter().chain(final_windows.iter()) {
        summary.windows += 1;
        let close = wcfg.start_of(w.window + 1);
        now = close.max(now);
        for (app, block, _avail) in w.feature_blocks(fcfg, n_devices, wcfg.window) {
            summary.submitted += 1;
            let req = PredictRequest {
                tenant: app,
                window: w.window,
                block,
            };
            let (admission, done) = engine.submit(now, req)?;
            summary.predictions.extend(done);
            match admission {
                Admission::Enqueued => {}
                Admission::Stale(_) => summary.stale += 1,
                Admission::Shed => summary.shed += 1,
            }
        }
    }
    summary.predictions.extend(engine.finish(now)?);
    Ok(summary)
}
