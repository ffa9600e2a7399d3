//! The serving engine: per-tenant micro-batching lanes behind one
//! shared registry, grouped into worker shards by tenant hash.
//!
//! One prediction request arrives per emitted `(app, window)` cell and
//! lands in its tenant's **lane**: a bounded queue that flushes as a
//! single stacked forward pass when either threshold trips —
//!
//! - **batch size** — the lane reached [`ServeConfig::max_batch`];
//! - **batch delay** — the lane's oldest request has waited
//!   [`ServeConfig::max_delay`] (checked by [`ShardedServeEngine::poll`],
//!   which callers drive from simulated time).
//!
//! Ahead of each lane sits its own [`TokenBucket`] admission controller
//! (`ServeConfig::admission` rates every tenant separately, so one noisy
//! tenant cannot starve the rest) and an explicit [`OverloadPolicy`];
//! behind it, the batched forward pass runs through the fused immutable
//! inference path ([`TrainedModel::predict_batch_into`]): `&self` on the
//! model, shard-owned scratch buffers, zero allocation per batch, and
//! kernels bit-identical to the training-path forward. Inference cost is
//! *modelled* (a deterministic affine function of batch size in
//! simulated time), so latency telemetry is byte-stable across replays.
//!
//! Lanes are grouped into `n_shards` worker shards by **tenant hash**
//! (FNV-1a of the application id, mod shard count, [`shard_of_tenant`]).
//! A shard owns its lanes and its inference scratch; one shard serves
//! every tenant, more shards let callers drive tenants from parallel
//! threads ([`ShardedServeEngine::workers`]).
//!
//! ## The determinism argument
//!
//! Predicted classes and the telemetry snapshot are **byte-identical at
//! any shard count and any thread count**, because *no observable state
//! lives at shard granularity*:
//!
//! - every queue, token bucket, stale-answer cache, and statistic is
//!   owned by a lane; a shard is nothing but the set of lanes the
//!   tenant hash assigns it, so reassigning lanes to a different number
//!   of shards moves ownership without touching any lane's request
//!   stream;
//! - batches never span tenants, so batch composition — sizes,
//!   classes, queue waits, modelled `done_at` instants — is a pure
//!   function of each tenant's own stream;
//! - shards share no mutable state (statistics are exclusively owned,
//!   via disjoint `&mut`, not atomics), and the snapshot merges lane
//!   statistics in **ascending tenant order** — a fixed order,
//!   independent of shard assignment, which matters because
//!   [`OnlineStats::merge`] is order-sensitive in the last
//!   floating-point bits;
//! - the one shared resource, the registry, is read-only between
//!   hot-swap points, and [`ShardedServeEngine::activate`] flushes
//!   every lane *before* flipping the version, so no batch ever mixes
//!   model versions (each [`Prediction`] records the version that
//!   answered it).
//!
//! Accounting invariant (asserted in tests): every submitted request is
//! answered by inference, answered stale, shed, or still queued —
//! `requests == answered + stale + shed + queue_depth`.

use std::collections::HashMap;

use qi_ml::train::TrainedModel;
use qi_ml::InferScratch;
use qi_pfs::ids::AppId;
use qi_simkit::error::QiError;
use qi_simkit::ratelimit::TokenBucket;
use qi_simkit::stats::{Histogram, OnlineStats};
use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::{MetricValue, MetricsSnapshot};

use crate::registry::ModelRegistry;

/// Modelled inference cost: fixed dispatch overhead per batch…
const INFER_BASE_US: u64 = 150;
/// …plus a per-sample cost. Batching amortises the base term — that is
/// the whole point of micro-batching, and the bench measures the real
/// (wall-clock) analogue of the same effect.
const INFER_PER_SAMPLE_US: u64 = 40;

/// What the service does when a request cannot be admitted (the
/// tenant's token bucket is empty or its lane queue is at capacity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Drop the request and count it; the caller gets no answer.
    /// Queue depth stays bounded by construction.
    Shed,
    /// Admit anyway: token debt delays the request's effective arrival
    /// (the caller waits for admission), and a full queue forces an
    /// immediate flush to make room. Latency absorbs the overload.
    Block,
    /// Answer immediately from the tenant's most recent prediction
    /// (class 0 — "no interference" — before any answer exists) without
    /// touching the queue or the model. Freshness absorbs the overload.
    DegradeToStale,
}

/// Engine configuration. Every bound applies per tenant lane.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Flush a lane when this many of its requests are queued.
    pub max_batch: usize,
    /// Flush a lane when its oldest queued request has waited this long.
    pub max_delay: SimDuration,
    /// Lane queue capacity; admission beyond it triggers the overload
    /// policy.
    pub queue_cap: usize,
    /// Optional token-bucket admission control `(rate_per_sec, burst)`,
    /// one bucket per tenant.
    pub admission: Option<(f64, f64)>,
    /// What to do when admission fails.
    pub overload: OverloadPolicy,
    /// Tenants allowed to submit. Fixed up front so the per-tenant
    /// telemetry key set is stable across scenarios.
    pub tenants: Vec<AppId>,
    /// Ignored: the engine never reads it. Callers that want parallel
    /// shards drive [`ShardedServeEngine::workers`] from their own
    /// threads. The field remains because perfbench builds
    /// `ServeConfig` with a struct literal.
    pub threads: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_delay: SimDuration::from_millis(200),
            queue_cap: 32,
            admission: None,
            overload: OverloadPolicy::Shed,
            tenants: Vec::new(),
            threads: None,
        }
    }
}

impl ServeConfig {
    /// Refuse a nonsensical config up front: zero batch size, a queue
    /// smaller than a batch, zero delay, bad admission parameters.
    fn validate(&self) -> Result<(), QiError> {
        if self.max_batch == 0 {
            return Err(QiError::Serve("max_batch must be at least 1".into()));
        }
        if self.queue_cap < self.max_batch {
            return Err(QiError::Serve(format!(
                "queue_cap {} smaller than max_batch {}",
                self.queue_cap, self.max_batch
            )));
        }
        if self.max_delay.as_nanos() == 0 {
            return Err(QiError::Serve("max_delay must be positive".into()));
        }
        if let Some((rate, burst)) = self.admission {
            if rate <= 0.0 || burst <= 0.0 {
                return Err(QiError::Serve(format!(
                    "admission rate/burst must be positive, got ({rate}, {burst})"
                )));
            }
        }
        Ok(())
    }
}

/// One prediction request: the feature block of one `(app, window)`
/// cell, as produced by `EmittedWindow::feature_blocks`.
#[derive(Clone, Debug)]
pub struct PredictRequest {
    /// The application the prediction is for.
    pub tenant: AppId,
    /// The monitor window the block describes.
    pub window: u64,
    /// Flattened `n_servers × n_features` feature block.
    pub block: Vec<f32>,
}

/// A completed prediction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The application the prediction is for.
    pub tenant: AppId,
    /// The monitor window it describes.
    pub window: u64,
    /// Predicted severity bin.
    pub class: usize,
    /// Time spent queued (effective arrival → flush).
    pub queued: SimDuration,
    /// Size of the batch this prediction was flushed in.
    pub batch: usize,
    /// Instant the answer became available (flush + modelled cost).
    pub done_at: SimTime,
    /// Registry version of the model that answered. Every prediction in
    /// one batch carries the same version — the hot-swap point flushes
    /// first, so a batch never mixes model versions.
    pub version: u64,
}

/// What happened to a request at submission time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Queued; its prediction arrives from a later flush.
    Enqueued,
    /// Answered immediately with a stale class (DegradeToStale).
    Stale(usize),
    /// Dropped (Shed); it will never be answered.
    Shed,
}

/// Shard index for `tenant` at a given shard count: FNV-1a over the
/// little-endian application id, mod `n_shards`. Stable across
/// processes and platforms — the routing table is part of the
/// engine's observable contract (see the routing-stability test).
pub fn shard_of_tenant(tenant: AppId, n_shards: usize) -> usize {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in tenant.0.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    (h % n_shards as u64) as usize
}

/// One queued request.
struct LaneRequest {
    req: PredictRequest,
    /// Effective arrival: submission time, pushed later by token debt
    /// under [`OverloadPolicy::Block`].
    arrival: SimTime,
}

/// Serving statistics: owned exclusively by one lane, and merged in
/// ascending tenant order into the engine totals at snapshot time.
struct LaneStats {
    requests: u64,
    answered: u64,
    stale: u64,
    shed: u64,
    blocked: u64,
    batches: u64,
    batch_size: OnlineStats,
    queue_depth: OnlineStats,
    queue_wait: Histogram,
    infer: Histogram,
    admission_wait: Histogram,
}

impl LaneStats {
    fn new() -> Self {
        LaneStats {
            requests: 0,
            answered: 0,
            stale: 0,
            shed: 0,
            blocked: 0,
            batches: 0,
            batch_size: OnlineStats::new(),
            queue_depth: OnlineStats::new(),
            queue_wait: Histogram::new(0.0, 2_000_000.0, 40),
            infer: Histogram::new(0.0, 5_000.0, 50),
            admission_wait: Histogram::new(0.0, 2_000_000.0, 40),
        }
    }

    fn merge(&mut self, other: &LaneStats) {
        self.requests += other.requests;
        self.answered += other.answered;
        self.stale += other.stale;
        self.shed += other.shed;
        self.blocked += other.blocked;
        self.batches += other.batches;
        self.batch_size.merge(&other.batch_size);
        self.queue_depth.merge(&other.queue_depth);
        self.queue_wait.merge(&other.queue_wait);
        self.infer.merge(&other.infer);
        self.admission_wait.merge(&other.admission_wait);
    }
}

/// All serving state of one tenant. The unit of work ownership: a
/// shard is a set of lanes, and moving a lane between shards (by
/// changing the shard count) cannot change anything the lane computes.
struct Lane {
    tenant: AppId,
    pending: Vec<LaneRequest>,
    bucket: Option<TokenBucket>,
    /// Most recent answered class (0 before any answer), for
    /// [`OverloadPolicy::DegradeToStale`].
    last_answer: usize,
    stats: LaneStats,
}

impl Lane {
    /// Count a request the lane cannot admit under `Shed` or
    /// `DegradeToStale`, and say how it was answered.
    fn refuse(&mut self, policy: OverloadPolicy) -> Admission {
        if policy == OverloadPolicy::Shed {
            self.stats.shed += 1;
            Admission::Shed
        } else {
            self.stats.stale += 1;
            Admission::Stale(self.last_answer)
        }
    }
}

/// One worker shard: the lanes the tenant hash assigned to it, plus
/// the shard-private inference scratch. Nothing in here is shared.
struct Shard {
    /// Lanes in ascending tenant order.
    lanes: Vec<Lane>,
    scratch: InferScratch,
    row_buf: Vec<f32>,
    class_buf: Vec<usize>,
}

/// `(version, model)` of the active registry entry, resolved once per
/// engine call. A free function so the borrow stays on the registry
/// field alone while shards are borrowed mutably.
fn active_of(registry: &ModelRegistry) -> Option<(u64, &TrainedModel)> {
    let v = registry.active_version()?;
    Some((v, registry.active_model()?))
}

/// The request check shared by both submission entry points: the block
/// must hold the registry's `n_servers × n_features` floats.
fn check_block(registry: &ModelRegistry, req: &PredictRequest) -> Result<(), QiError> {
    let shape = registry.expected_shape();
    let expected = shape.n_servers * shape.n_features;
    if req.block.len() != expected {
        return Err(QiError::Shape {
            what: "serve request block floats",
            expected,
            got: req.block.len(),
        });
    }
    Ok(())
}

impl Shard {
    fn new() -> Self {
        Shard {
            lanes: Vec::new(),
            scratch: InferScratch::new(),
            row_buf: Vec::new(),
            class_buf: Vec::new(),
        }
    }

    /// Position of `tenant`'s lane in this shard, if it routes here.
    fn lane_pos(&self, tenant: AppId) -> Option<usize> {
        self.lanes
            .binary_search_by_key(&tenant.0, |l| l.tenant.0)
            .ok()
    }

    /// Flush one lane's pending batch through the fused forward pass.
    fn flush_lane(
        &mut self,
        active: Option<(u64, &TrainedModel)>,
        lane_idx: usize,
        now: SimTime,
    ) -> Result<Vec<Prediction>, QiError> {
        let Shard {
            lanes,
            scratch,
            row_buf,
            class_buf,
        } = self;
        let lane = &mut lanes[lane_idx];
        if lane.pending.is_empty() {
            return Ok(Vec::new());
        }
        let (version, model) =
            active.ok_or_else(|| QiError::Serve("no active model version".into()))?;
        let batch = std::mem::take(&mut lane.pending);
        let k = batch.len();
        row_buf.clear();
        for p in &batch {
            row_buf.extend_from_slice(&p.req.block);
        }
        model.predict_batch_into(row_buf, k, scratch, class_buf);
        debug_assert_eq!(class_buf.len(), k);

        let cost = SimDuration::from_micros(INFER_BASE_US + INFER_PER_SAMPLE_US * k as u64);
        let done_at = now + cost;
        lane.stats.batches += 1;
        lane.stats.batch_size.push(k as f64);
        lane.stats.infer.record(cost.as_nanos() as f64 / 1_000.0);
        let mut out = Vec::with_capacity(k);
        for (p, &class) in batch.into_iter().zip(class_buf.iter()) {
            let queued = now.saturating_since(p.arrival);
            lane.stats
                .queue_wait
                .record(queued.as_nanos() as f64 / 1_000.0);
            lane.stats.answered += 1;
            lane.last_answer = class;
            out.push(Prediction {
                tenant: p.req.tenant,
                window: p.req.window,
                class,
                queued,
                batch: k,
                done_at,
                version,
            });
        }
        Ok(out)
    }

    /// Flush the lane if its oldest request's delay threshold expired.
    fn poll_lane(
        &mut self,
        cfg: &ServeConfig,
        active: Option<(u64, &TrainedModel)>,
        lane_idx: usize,
        now: SimTime,
    ) -> Result<Vec<Prediction>, QiError> {
        let expired = self.lanes[lane_idx]
            .pending
            .first()
            .is_some_and(|p| p.arrival + cfg.max_delay <= now);
        if expired {
            self.flush_lane(active, lane_idx, now)
        } else {
            Ok(Vec::new())
        }
    }

    /// The submission path of one lane: admission and overload handling
    /// against the tenant's own bucket and queue, then enqueue.
    fn submit(
        &mut self,
        cfg: &ServeConfig,
        active: Option<(u64, &TrainedModel)>,
        lane_idx: usize,
        now: SimTime,
        req: PredictRequest,
    ) -> Result<(Admission, Vec<Prediction>), QiError> {
        let mut completed = self.poll_lane(cfg, active, lane_idx, now)?;

        let lane = &mut self.lanes[lane_idx];
        lane.stats.requests += 1;

        // Admission: one token per request, probed on a copy so a shed
        // or stale request consumes nothing from the lane's bucket.
        let mut arrival = now;
        if let Some(bucket) = &lane.bucket {
            let mut probe = bucket.clone();
            let grant = probe.earliest(now, 1.0);
            if grant > now {
                match cfg.overload {
                    OverloadPolicy::Block => {
                        // The caller waits for admission: the request's
                        // effective arrival is the grant instant.
                        lane.bucket = Some(probe);
                        lane.stats.blocked += 1;
                        lane.stats
                            .admission_wait
                            .record(grant.saturating_since(now).as_nanos() as f64 / 1_000.0);
                        arrival = grant;
                    }
                    policy => return Ok((lane.refuse(policy), completed)),
                }
            } else {
                lane.bucket = Some(probe);
                lane.stats.admission_wait.record(0.0);
            }
        }

        // Bounded lane queue: the other overload trigger.
        if lane.pending.len() >= cfg.queue_cap {
            match cfg.overload {
                // Backpressure: drain the lane now to make room.
                OverloadPolicy::Block => {
                    completed.extend(self.flush_lane(active, lane_idx, now)?);
                }
                policy => return Ok((lane.refuse(policy), completed)),
            }
        }

        let lane = &mut self.lanes[lane_idx];
        lane.pending.push(LaneRequest { req, arrival });
        lane.stats.queue_depth.push(lane.pending.len() as f64);
        if lane.pending.len() >= cfg.max_batch {
            completed.extend(self.flush_lane(active, lane_idx, now)?);
        }
        Ok((Admission::Enqueued, completed))
    }
}

/// The prediction service: per-tenant lanes grouped into worker
/// shards. See the module docs for the routing and determinism story.
pub struct ShardedServeEngine {
    cfg: ServeConfig,
    registry: ModelRegistry,
    shards: Vec<Shard>,
    /// tenant → (shard index, lane position within the shard).
    route: HashMap<AppId, (usize, usize)>,
    /// All lanes in ascending tenant order, as (shard, lane) pairs —
    /// the one true iteration order for drains and stat merges.
    order: Vec<(usize, usize)>,
}

impl ShardedServeEngine {
    /// Build an engine over a registry with `n_shards` worker shards
    /// (1 serves every tenant from one shard). Fails on a nonsensical
    /// config (zero batch size, queue smaller than a batch, zero delay,
    /// bad admission parameters) or `n_shards == 0`.
    pub fn new(
        cfg: ServeConfig,
        registry: ModelRegistry,
        n_shards: usize,
    ) -> Result<Self, QiError> {
        if n_shards == 0 {
            return Err(QiError::Serve("n_shards must be at least 1".into()));
        }
        cfg.validate()?;

        let mut tenants = cfg.tenants.clone();
        tenants.sort_unstable_by_key(|a| a.0);
        tenants.dedup();

        let mut shards: Vec<Shard> = (0..n_shards).map(|_| Shard::new()).collect();
        let mut route = HashMap::new();
        let mut order = Vec::with_capacity(tenants.len());
        for &t in &tenants {
            let s = shard_of_tenant(t, n_shards);
            let lane_idx = shards[s].lanes.len();
            shards[s].lanes.push(Lane {
                tenant: t,
                pending: Vec::new(),
                bucket: cfg
                    .admission
                    .map(|(rate, burst)| TokenBucket::new(rate, burst)),
                last_answer: 0,
                stats: LaneStats::new(),
            });
            route.insert(t, (s, lane_idx));
            order.push((s, lane_idx));
        }

        Ok(ShardedServeEngine {
            cfg,
            registry,
            shards,
            route,
            order,
        })
    }

    /// Number of worker shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `tenant` routes to (`None` for unknown tenants).
    pub fn shard_of(&self, tenant: AppId) -> Option<usize> {
        self.route.get(&tenant).map(|&(s, _)| s)
    }

    /// The shared model registry (inspection).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Load a serialized model into the registry under `version`.
    pub fn load_model_text(&mut self, version: u64, text: &str) -> Result<(), QiError> {
        self.registry.load_text(version, text)
    }

    /// Requests currently queued, across every lane.
    pub fn queue_depth(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.lanes.iter())
            .map(|l| l.pending.len())
            .sum()
    }

    /// Submit one request: route to its tenant's lane and run the
    /// lane-local admission path. Only the owning shard is touched.
    pub fn submit(
        &mut self,
        now: SimTime,
        req: PredictRequest,
    ) -> Result<(Admission, Vec<Prediction>), QiError> {
        check_block(&self.registry, &req)?;
        let Some(&(s, l)) = self.route.get(&req.tenant) else {
            return Err(QiError::Serve(format!(
                "unknown tenant app{} (not in ServeConfig::tenants)",
                req.tenant.0
            )));
        };
        let active = active_of(&self.registry);
        self.shards[s].submit(&self.cfg, active, l, now, req)
    }

    /// Flush every lane whose delay threshold expired, in ascending
    /// tenant order.
    pub fn poll(&mut self, now: SimTime) -> Result<Vec<Prediction>, QiError> {
        let active = active_of(&self.registry);
        let mut out = Vec::new();
        for &(s, l) in &self.order {
            out.extend(self.shards[s].poll_lane(&self.cfg, active, l, now)?);
        }
        Ok(out)
    }

    /// End of stream: flush everything queued, in ascending tenant
    /// order.
    pub fn finish(&mut self, now: SimTime) -> Result<Vec<Prediction>, QiError> {
        let active = active_of(&self.registry);
        let mut out = Vec::new();
        for &(s, l) in &self.order {
            out.extend(self.shards[s].flush_lane(active, l, now)?);
        }
        Ok(out)
    }

    /// Hot-swap the active model. Every shard's pending work flushes
    /// under the OLD version before the flip, so no batch — on any
    /// shard — ever mixes model versions. Returns the flushed
    /// predictions (each stamped with the pre-swap version).
    pub fn activate(&mut self, now: SimTime, version: u64) -> Result<Vec<Prediction>, QiError> {
        let flushed = self.finish(now)?;
        self.registry.activate(version)?;
        Ok(flushed)
    }

    /// One worker per shard: disjoint `&mut` shard borrows over the
    /// shared registry, for driving shards from parallel threads. The
    /// borrows end when the workers drop; statistics land in the lanes
    /// either way, so a parallel drive snapshots identically to a
    /// serial one.
    pub fn workers(&mut self) -> Vec<ShardWorker<'_>> {
        let cfg = &self.cfg;
        let registry = &self.registry;
        self.shards
            .iter_mut()
            .enumerate()
            .map(|(index, shard)| ShardWorker {
                cfg,
                registry,
                shard,
                index,
            })
            .collect()
    }

    /// Serving telemetry, merged from every lane in ascending tenant
    /// order: aggregate counters, batch/queue statistics, latency
    /// histograms with p50/p95/p99 gauges, per-tenant counters, and
    /// registry state. Every key is present from construction, so key
    /// sets are stable, and NO key depends on the shard count, which is
    /// what makes the snapshot byte-identical at any shard count.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let mut total = LaneStats::new();
        for &(s, l) in &self.order {
            let lane = &self.shards[s].lanes[l];
            let st = &lane.stats;
            total.merge(st);
            let t = lane.tenant.0;
            snap.put(
                &format!("serve.tenant.app{t}.requests"),
                MetricValue::Counter(st.requests),
            );
            snap.put(
                &format!("serve.tenant.app{t}.answered"),
                MetricValue::Counter(st.answered),
            );
            snap.put(
                &format!("serve.tenant.app{t}.shed"),
                MetricValue::Counter(st.shed),
            );
        }
        snap.put("serve.requests", MetricValue::Counter(total.requests));
        snap.put("serve.answered", MetricValue::Counter(total.answered));
        snap.put("serve.stale", MetricValue::Counter(total.stale));
        snap.put("serve.shed", MetricValue::Counter(total.shed));
        snap.put("serve.blocked", MetricValue::Counter(total.blocked));
        snap.put("serve.batches", MetricValue::Counter(total.batches));
        snap.put("serve.batch_size", MetricValue::Stats(total.batch_size));
        snap.put("serve.queue_depth", MetricValue::Stats(total.queue_depth));
        for (name, h) in [
            ("serve.queue_wait_us", &total.queue_wait),
            ("serve.infer_us", &total.infer),
        ] {
            for (tag, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                snap.put(&format!("{name}.{tag}"), MetricValue::Gauge(h.quantile(q)));
            }
        }
        snap.put(
            "serve.queue_wait_us",
            MetricValue::Histogram(total.queue_wait),
        );
        snap.put("serve.infer_us", MetricValue::Histogram(total.infer));
        snap.put(
            "serve.admission_wait_us",
            MetricValue::Histogram(total.admission_wait),
        );
        self.registry.metrics_into(&mut snap);
        snap
    }
}

/// Exclusive handle to one shard, over the shared registry. Obtained
/// from [`ShardedServeEngine::workers`]; each worker can be driven
/// from its own thread because workers share no mutable state.
pub struct ShardWorker<'a> {
    cfg: &'a ServeConfig,
    registry: &'a ModelRegistry,
    shard: &'a mut Shard,
    index: usize,
}

impl ShardWorker<'_> {
    /// This worker's shard index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Does `tenant` route to this shard?
    pub fn owns(&self, tenant: AppId) -> bool {
        self.shard.lane_pos(tenant).is_some()
    }

    /// Submit a request for a tenant this shard owns.
    pub fn submit(
        &mut self,
        now: SimTime,
        req: PredictRequest,
    ) -> Result<(Admission, Vec<Prediction>), QiError> {
        check_block(self.registry, &req)?;
        let Some(lane) = self.shard.lane_pos(req.tenant) else {
            return Err(QiError::Serve(format!(
                "tenant app{} does not route to shard {}",
                req.tenant.0, self.index
            )));
        };
        let active = active_of(self.registry);
        self.shard.submit(self.cfg, active, lane, now, req)
    }

    /// Flush this shard's expired lanes (ascending tenant order).
    pub fn poll(&mut self, now: SimTime) -> Result<Vec<Prediction>, QiError> {
        let active = active_of(self.registry);
        let mut out = Vec::new();
        for l in 0..self.shard.lanes.len() {
            out.extend(self.shard.poll_lane(self.cfg, active, l, now)?);
        }
        Ok(out)
    }

    /// Flush everything queued on this shard (ascending tenant order).
    pub fn finish(&mut self, now: SimTime) -> Result<Vec<Prediction>, QiError> {
        let active = active_of(self.registry);
        let mut out = Vec::new();
        for l in 0..self.shard.lanes.len() {
            out.extend(self.shard.flush_lane(active, l, now)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use qi_ml::data::Dataset;
    use qi_ml::train::{train, TrainConfig, TrainedModel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SERVERS: usize = 3;
    const FEATS: usize = 4;

    fn model(seed: u64) -> TrainedModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let pos = i % 2 == 0;
            let block: Vec<f32> = (0..SERVERS * FEATS)
                .map(|_| {
                    if pos {
                        rng.gen_range(1.0..2.0)
                    } else {
                        rng.gen_range(-2.0..-1.0)
                    }
                })
                .collect();
            samples.push(block);
            y.push(usize::from(pos));
        }
        let cfg = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        train(&Dataset::from_samples(samples, y, SERVERS), &cfg)
    }

    fn engine(cfg: ServeConfig) -> ShardedServeEngine {
        let m = model(1);
        let mut reg = ModelRegistry::new(m.shape(), m.schema().clone());
        reg.insert(1, m).expect("load");
        reg.activate(1).expect("activate");
        ShardedServeEngine::new(cfg, reg, 1).expect("valid config")
    }

    fn req(tenant: u32, window: u64, hot: bool) -> PredictRequest {
        let v = if hot { 1.5 } else { -1.5 };
        PredictRequest {
            tenant: AppId(tenant),
            window,
            block: vec![v; SERVERS * FEATS],
        }
    }

    fn t_ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn size_threshold_trips_a_batch() {
        let mut e = engine(ServeConfig {
            max_batch: 3,
            tenants: vec![AppId(0)],
            ..ServeConfig::default()
        });
        let (_, c1) = e.submit(t_ms(0), req(0, 0, true)).unwrap();
        let (_, c2) = e.submit(t_ms(1), req(0, 1, false)).unwrap();
        assert!(c1.is_empty() && c2.is_empty());
        assert_eq!(e.queue_depth(), 2);
        let (_, c3) = e.submit(t_ms(2), req(0, 2, true)).unwrap();
        assert_eq!(c3.len(), 3, "size threshold flushed the batch");
        assert_eq!(e.queue_depth(), 0);
        assert!(c3.iter().all(|p| p.batch == 3));
        // Batched answers equal the per-sample model output.
        let snap = e.metrics_snapshot();
        assert_eq!(snap.counter("serve.answered"), Some(3));
        assert_eq!(snap.counter("serve.batches"), Some(1));
    }

    #[test]
    fn delay_threshold_trips_via_poll() {
        let mut e = engine(ServeConfig {
            max_batch: 8,
            max_delay: SimDuration::from_millis(50),
            tenants: vec![AppId(0)],
            ..ServeConfig::default()
        });
        e.submit(t_ms(0), req(0, 0, true)).unwrap();
        assert!(e.poll(t_ms(49)).unwrap().is_empty(), "not yet expired");
        let out = e.poll(t_ms(50)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].queued, SimDuration::from_millis(50));
        assert_eq!(out[0].done_at, t_ms(50) + SimDuration::from_micros(190));
    }

    #[test]
    fn batched_equals_unbatched_classes() {
        let mk = |max_batch| {
            let mut e = engine(ServeConfig {
                max_batch,
                tenants: vec![AppId(0)],
                ..ServeConfig::default()
            });
            let mut classes = Vec::new();
            for w in 0..10u64 {
                let (_, done) = e.submit(t_ms(w), req(0, w, w % 3 == 0)).unwrap();
                classes.extend(done.into_iter().map(|p| (p.window, p.class)));
            }
            classes.extend(
                e.finish(t_ms(10))
                    .unwrap()
                    .into_iter()
                    .map(|p| (p.window, p.class)),
            );
            classes.sort_unstable();
            classes
        };
        assert_eq!(mk(1), mk(8), "batching must not change predictions");
    }

    #[test]
    fn shed_policy_bounds_the_queue_and_counts_exactly() {
        let mut e = engine(ServeConfig {
            max_batch: 4,
            queue_cap: 4,
            admission: Some((10.0, 2.0)), // 2-token burst, 10/s refill
            overload: OverloadPolicy::Shed,
            tenants: vec![AppId(0)],
            ..ServeConfig::default()
        });
        // 6 requests at the same instant: 2 admitted (burst), 4 shed.
        let mut shed = 0;
        let mut answered = 0;
        for w in 0..6u64 {
            let (adm, done) = e.submit(t_ms(0), req(0, w, true)).unwrap();
            if adm == Admission::Shed {
                shed += 1;
            }
            answered += done.len();
        }
        answered += e.finish(t_ms(1)).unwrap().len();
        assert_eq!(shed, 4);
        assert_eq!(answered, 2);
        assert!(e.queue_depth() <= 4);
        let snap = e.metrics_snapshot();
        assert_eq!(snap.counter("serve.shed"), Some(4));
        assert_eq!(snap.counter("serve.tenant.app0.shed"), Some(4));
        assert_eq!(
            snap.counter("serve.requests"),
            Some(snap.counter("serve.answered").unwrap() + snap.counter("serve.shed").unwrap())
        );
    }

    #[test]
    fn block_policy_delays_instead_of_dropping() {
        let mut e = engine(ServeConfig {
            max_batch: 2,
            admission: Some((10.0, 1.0)),
            overload: OverloadPolicy::Block,
            tenants: vec![AppId(0)],
            ..ServeConfig::default()
        });
        let (a1, _) = e.submit(t_ms(0), req(0, 0, true)).unwrap();
        let (a2, done) = e.submit(t_ms(0), req(0, 1, true)).unwrap();
        assert_eq!(a1, Admission::Enqueued);
        assert_eq!(a2, Admission::Enqueued, "blocked, not shed");
        // Second request waited 100 ms for a token; flush at t=0 came
        // from the size threshold, so its queue wait saturates at zero.
        assert_eq!(done.len(), 2);
        let snap = e.metrics_snapshot();
        assert_eq!(snap.counter("serve.blocked"), Some(1));
        assert_eq!(snap.counter("serve.shed"), Some(0));
        assert_eq!(snap.counter("serve.answered"), Some(2));
    }

    #[test]
    fn degrade_to_stale_reuses_the_last_answer() {
        let mut e = engine(ServeConfig {
            max_batch: 1, // every request flushes immediately when admitted
            admission: Some((10.0, 1.0)),
            overload: OverloadPolicy::DegradeToStale,
            tenants: vec![AppId(0)],
            ..ServeConfig::default()
        });
        let (a1, done) = e.submit(t_ms(0), req(0, 0, true)).unwrap();
        assert_eq!(a1, Admission::Enqueued);
        let fresh = done[0].class;
        let (a2, _) = e.submit(t_ms(0), req(0, 1, false)).unwrap();
        assert_eq!(a2, Admission::Stale(fresh), "last answer echoed");
        let snap = e.metrics_snapshot();
        assert_eq!(snap.counter("serve.stale"), Some(1));
    }

    #[test]
    fn hot_swap_flushes_between_batches() {
        let m2 = model(2);
        let mut e = engine(ServeConfig {
            max_batch: 8,
            tenants: vec![AppId(0)],
            ..ServeConfig::default()
        });
        // Queue two requests, then activate a new version: the queued
        // work must flush under the OLD version first.
        e.submit(t_ms(0), req(0, 0, true)).unwrap();
        e.submit(t_ms(1), req(0, 1, false)).unwrap();
        let mut reg_snap = MetricsSnapshot::new();
        e.registry().metrics_into(&mut reg_snap);
        assert_eq!(reg_snap.gauge("serve.registry.active_version"), Some(1.0));
        // (register v2 through the engine's registry access)
        let text = qi_ml::serialize::model_to_text(&m2);
        e.load_model_text(2, &text).unwrap();
        let flushed = e.activate(t_ms(2), 2).unwrap();
        assert_eq!(flushed.len(), 2, "pending work flushed before the swap");
        assert_eq!(e.registry().active_version(), Some(2));
    }

    #[test]
    fn config_and_request_validation() {
        let m = model(1);
        let shape = m.shape();
        let mk_reg = || {
            let mut r = ModelRegistry::new(shape, m.schema().clone());
            r.insert(1, model(1)).unwrap();
            r.activate(1).unwrap();
            r
        };
        assert!(ShardedServeEngine::new(
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            mk_reg(),
            1,
        )
        .is_err());
        assert!(ShardedServeEngine::new(
            ServeConfig {
                max_batch: 8,
                queue_cap: 4,
                ..ServeConfig::default()
            },
            mk_reg(),
            1,
        )
        .is_err());
        assert!(ShardedServeEngine::new(
            ServeConfig {
                admission: Some((0.0, 5.0)),
                ..ServeConfig::default()
            },
            mk_reg(),
            1,
        )
        .is_err());
        let mut e = ShardedServeEngine::new(
            ServeConfig {
                tenants: vec![AppId(0)],
                ..ServeConfig::default()
            },
            mk_reg(),
            1,
        )
        .unwrap();
        // Wrong block shape.
        let bad = PredictRequest {
            tenant: AppId(0),
            window: 0,
            block: vec![0.0; 3],
        };
        assert!(matches!(e.submit(t_ms(0), bad), Err(QiError::Shape { .. })));
        // Unknown tenant.
        assert!(e.submit(t_ms(0), req(9, 0, true)).is_err());
        // No active model: flushing errors, but only when work exists.
        let mut r = ModelRegistry::new(shape, m.schema().clone());
        r.insert(1, model(1)).unwrap();
        let mut e2 = ShardedServeEngine::new(
            ServeConfig {
                max_batch: 1,
                tenants: vec![AppId(0)],
                ..ServeConfig::default()
            },
            r,
            1,
        )
        .unwrap();
        assert!(e2.finish(t_ms(0)).unwrap().is_empty());
        assert!(e2.submit(t_ms(0), req(0, 0, true)).is_err());
    }

    #[test]
    fn telemetry_key_set_is_stable_and_quantiles_present() {
        let e = engine(ServeConfig {
            tenants: vec![AppId(0), AppId(3)],
            ..ServeConfig::default()
        });
        let snap = e.metrics_snapshot();
        for key in [
            "serve.requests",
            "serve.answered",
            "serve.stale",
            "serve.shed",
            "serve.blocked",
            "serve.batches",
            "serve.tenant.app0.requests",
            "serve.tenant.app3.shed",
            "serve.registry.models_loaded",
            "serve.registry.active_version",
        ] {
            assert!(snap.get(key).is_some(), "missing {key}");
        }
        assert_eq!(snap.gauge("serve.queue_wait_us.p50"), Some(0.0));
        assert_eq!(snap.gauge("serve.infer_us.p99"), Some(0.0));
        assert!(snap.histogram("serve.queue_wait_us").is_some());
    }

    #[test]
    fn replay_is_byte_identical() {
        let run = || {
            let mut e = engine(ServeConfig {
                max_batch: 4,
                admission: Some((100.0, 8.0)),
                tenants: vec![AppId(0), AppId(1)],
                ..ServeConfig::default()
            });
            for w in 0..20u64 {
                let _ = e.submit(t_ms(w * 10), req((w % 2) as u32, w, w % 3 == 0));
            }
            e.finish(t_ms(200)).unwrap();
            e.metrics_snapshot().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn admission_is_per_tenant_so_a_flood_never_sheds_a_neighbour() {
        let mut e = engine(ServeConfig {
            max_batch: 1,
            admission: Some((2.0, 2.0)),
            overload: OverloadPolicy::Shed,
            tenants: vec![AppId(0), AppId(1)],
            ..ServeConfig::default()
        });
        // Over 5 s, tenant 0 submits every 50 ms (10x its 2/s rate);
        // tenant 1 submits once a second, well inside its own rate.
        let mut neighbour = Vec::new();
        for i in 0..100u64 {
            e.submit(t_ms(i * 50), req(0, i, true)).unwrap();
            if i % 20 == 0 {
                neighbour.push(e.submit(t_ms(i * 50), req(1, i, false)).unwrap().0);
            }
        }
        e.finish(t_ms(5_000)).unwrap();
        assert!(neighbour.iter().all(|a| *a == Admission::Enqueued));
        let snap = e.metrics_snapshot();
        assert!(snap.counter("serve.tenant.app0.shed").unwrap() > 80);
        assert_eq!(snap.counter("serve.tenant.app1.shed"), Some(0));
        assert_eq!(snap.counter("serve.tenant.app1.answered"), Some(5));
        assert_eq!(
            snap.counter("serve.shed"),
            snap.counter("serve.tenant.app0.shed")
        );
    }
}
