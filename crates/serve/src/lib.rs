//! # qi-serve
//!
//! The online half of the paper's two-phase framework (Fig. 2, §III-C):
//! train offline, then *predict at runtime, per time window, while the
//! applications run*. This crate turns a [`qi_ml::train::TrainedModel`]
//! into a production-style prediction service with the machinery a real
//! deployment needs — and keeps every bit of it deterministic, because
//! it is driven entirely from **simulated time**:
//!
//! - [`registry`] — a versioned model registry over `qi_ml::serialize`:
//!   load/validate/activate `QIMODEL` files by version, hot-swap the
//!   active model between batches, reject models whose shape or embedded
//!   [`qi_monitor::FeatureSchema`] does not match the monitor's feature
//!   layout.
//! - [`engine`] — the serving engine, [`ShardedServeEngine`]: one
//!   micro-batching lane per tenant (bounded queue, flushed as a single
//!   stacked forward pass when the batch-size or batch-delay threshold
//!   trips, with per-tenant token-bucket admission and an explicit
//!   overload policy — [`engine::OverloadPolicy`]: shed, block, or
//!   degrade to stale answers), lanes grouped into worker shards by
//!   tenant hash, all serving from ONE shared registry through the
//!   fused immutable inference path.
//! - [`driver`] — replays a finished [`qi_pfs::ops::RunTrace`] through
//!   the [`qi_monitor::FeaturePipeline`] and any [`PredictService`] in
//!   event-time order, the deterministic stand-in for a live metric
//!   stream. The pipeline configuration is derived from the registry's
//!   expected schema, so replay and validation can never disagree.
//!
//! Determinism argument: no wall clock is ever read — arrival times,
//! batch-delay deadlines, admission grants, and the modelled inference
//! cost are all [`qi_simkit::time::SimTime`] arithmetic; the batched
//! forward pass runs through `qi_ml`'s fused immutable kernels, which
//! are bit-identical to the training-path forward (proven by property
//! tests); no observable state lives at shard granularity; and every
//! telemetry key exists from construction, so snapshot key sets are
//! stable across scenarios. Identical inputs therefore produce
//! byte-identical outputs and telemetry, replay after replay, at any
//! shard count and any thread count.

#![forbid(unsafe_code)]

pub mod driver;
pub mod engine;
pub mod registry;

pub use driver::{replay_trace, PredictService, ReplaySummary};
pub use engine::{
    shard_of_tenant, Admission, OverloadPolicy, PredictRequest, Prediction, ServeConfig,
    ShardWorker, ShardedServeEngine,
};
pub use registry::ModelRegistry;
