//! `model_fit`: the batch pipeline after simulation. Set-up runs the
//! smoke grid once and keeps its traces; every timed pass labels and
//! featurizes them into the dataset (as `generate` does), trains and
//! evaluates the kernel network, serves every window, and fits and
//! scores an isolation forest.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qi_ml::anomaly::{AnomalyScorer, ForestConfig};
use qi_ml::data::Dataset;
use qi_ml::serialize::model_to_text;
use qi_ml::train::{train_with_schema, TrainedModel};
use qi_serve::{
    ModelRegistry, OverloadPolicy, PredictRequest, PredictService, Prediction, ServeConfig,
};
use qi_simkit::time::{SimDuration, SimTime};
use quanterference::prelude::*;

use crate::digest::Digest;
use crate::report::{Counts, Outcome, Run, SETUP_REPS};
use crate::stats::{BestOf, Iteration};
use crate::wrap::{ServeStats, TimedService};
use crate::{derive_seed, trace};

/// Tenants every window is served for.
const TENANTS: u32 = 8;
/// Serving micro-batch size.
const SERVE_BATCH: usize = 32;
/// Training epochs.
const EPOCHS: usize = 40;
/// Smoke-grid seeds behind the dataset (~40 windows each).
const FIT_SEEDS: u64 = 60;

/// What serving every window for every tenant produced.
pub struct Served {
    /// Class per request `window * TENANTS + tenant`.
    pub classes: Vec<usize>,
    /// Host microseconds from each request's submit to the call that
    /// returned its answer, per request (NaN if never answered).
    pub latency_us: Vec<f64>,
    /// Host seconds of the submit loop.
    pub busy_s: f64,
    /// Host seconds of the whole phase: model load plus submit loop.
    pub total_s: f64,
    /// Requests answered more than once.
    pub duplicates: u64,
    /// Requests never answered.
    pub unanswered: u64,
    /// Serving counters.
    pub stats: ServeStats,
}

struct Answers {
    classes: Vec<usize>,
    latency_us: Vec<f64>,
    duplicates: u64,
}

impl Answers {
    /// File the predictions returned at host time `at_ns`.
    fn record(&mut self, done: Vec<Prediction>, submitted_ns: &[u64], at_ns: u64) {
        for p in done {
            let i = p.window as usize * TENANTS as usize + p.tenant.0 as usize;
            if self.classes[i] != usize::MAX {
                self.duplicates += 1;
            }
            self.classes[i] = p.class;
            self.latency_us[i] = (at_ns - submitted_ns[i]) as f64 / 1e3;
        }
    }
}

/// Serialize `model`, load it into a fresh registry behind a two-shard
/// `ShardedServeEngine`, and serve every window of `data` for
/// [`TENANTS`] tenants in window order at batch [`SERVE_BATCH`].
pub fn serve_all(model: &TrainedModel, data: &Dataset) -> Result<Served, QiError> {
    let start = Instant::now();
    let tenants: Vec<AppId> = (0..TENANTS).map(AppId).collect();
    let engine = {
        let _s = trace::span("serve.load", 0);
        let text = model_to_text(model);
        let mut registry = ModelRegistry::new(model.shape(), model.schema().clone());
        registry.load_text(1, &text)?;
        registry.activate(1)?;
        let cfg = ServeConfig {
            max_batch: SERVE_BATCH,
            max_delay: SimDuration::from_secs(1),
            queue_cap: SERVE_BATCH,
            admission: None,
            overload: OverloadPolicy::Shed,
            tenants,
            threads: Some(1),
        };
        ShardedServeEngine::new(cfg, registry, 2)?
    };
    let stats = Arc::new(Mutex::new(ServeStats::default()));
    let mut svc = TimedService::new(engine, 0, Arc::clone(&stats));

    let block = data.n_servers * data.n_features();
    let xs = data.x.data();
    let n = data.len() * TENANTS as usize;
    let mut submitted_ns = vec![0u64; n];
    let mut answers = Answers {
        classes: vec![usize::MAX; n],
        latency_us: vec![f64::NAN; n],
        duplicates: 0,
    };
    let t0 = Instant::now();
    for w in 0..data.len() {
        for t in 0..TENANTS {
            submitted_ns[w * TENANTS as usize + t as usize] = t0.elapsed().as_nanos() as u64;
            let req = PredictRequest {
                tenant: AppId(t),
                window: w as u64,
                block: xs[w * block..(w + 1) * block].to_vec(),
            };
            let (_, done) = svc.submit(SimTime::ZERO, req)?;
            answers.record(done, &submitted_ns, t0.elapsed().as_nanos() as u64);
        }
    }
    let done = svc.finish(SimTime::ZERO)?;
    answers.record(done, &submitted_ns, t0.elapsed().as_nanos() as u64);
    let busy_s = t0.elapsed().as_secs_f64();
    let Answers {
        classes,
        latency_us,
        duplicates,
    } = answers;
    let unanswered = classes.iter().filter(|&&c| c == usize::MAX).count() as u64;
    let stats = stats.lock().expect("serve stats lock").clone();
    Ok(Served {
        classes,
        latency_us,
        busy_s,
        total_s: start.elapsed().as_secs_f64(),
        duplicates,
        unanswered,
        stats,
    })
}

/// Check the served classes against `predict_batch` over the same
/// blocks, and that every request was answered exactly once.
fn check_served(model: &mut TrainedModel, data: &Dataset, s: &Served, out: &mut Outcome) {
    let direct = model.predict_batch(&data.x);
    let mismatched = s
        .classes
        .iter()
        .enumerate()
        .filter(|&(i, &c)| direct[i / TENANTS as usize] != c)
        .count();
    out.check(
        "served classes equal predict_batch",
        mismatched == 0,
        &format!("{mismatched} of {} requests differ", s.classes.len()),
    );
    out.check(
        "every admitted request answered once",
        s.unanswered == 0 && s.duplicates == 0 && s.stats.shed == 0 && s.stats.stale == 0,
        &format!(
            "{} unanswered, {} answered twice, {} shed, {} stale",
            s.unanswered, s.duplicates, s.stats.shed, s.stats.stale
        ),
    );
}

/// Split, train, evaluate: the Fig. 3 protocol (80/20 split, binary
/// bins), with split and training seeds derived from `seed`. Returns
/// the model, the headline F1, and the counts.
fn train_eval(
    data: &Dataset,
    schema: &FeatureSchema,
    seed: u64,
    counts: &mut Counts,
) -> Result<(TrainedModel, f64), QiError> {
    let (train_set, test_set) = data.split(0.2, derive_seed(seed, 2));
    let tcfg = TrainConfig {
        epochs: EPOCHS,
        seed: derive_seed(seed, 3),
        n_classes: 2,
        ..TrainConfig::default()
    };
    let mut model = {
        let _s = trace::span("ml.train", 0);
        train_with_schema(&train_set, &tcfg, schema.clone())?
    };
    let cm = {
        let _s = trace::span("ml.evaluate", 0);
        model.evaluate(&test_set)
    };
    counts.sample_epochs += (train_set.len() * model.loss_curve.len()) as u64;
    counts.eval_rows += test_set.len() as u64;
    Ok((model, cm.f1_positive()))
}

fn dataset_digest(data: &Dataset) -> u64 {
    let mut d = Digest::default();
    d.u64(data.n_servers as u64).f32s(data.x.data());
    for &y in &data.y {
        d.u64(y as u64);
    }
    d.finish()
}

// ---------------------------------------------------------------------
// The grid: run once in set-up, labelled in every pass.

/// The grid's scenario for `(target, seed)`, as `generate` builds it.
fn grid_scenario(spec: &DatasetSpec, target: WorkloadKind, seed: u64) -> Scenario {
    Scenario {
        target,
        target_ranks: spec.target_ranks,
        interference: Vec::new(),
        cluster: spec.cluster.clone(),
        seed,
        deadline: spec.deadline,
        small: spec.small,
        warmup: SimDuration::from_secs(if spec.small { 3 } else { 6 }),
        fault_plan: None,
    }
}

/// One interfered run of the grid: its position in the canonical grid
/// order (targets × noises × intensities × seeds × faults), the target
/// app, the trace, and the metadata its samples carry.
struct GridRun {
    pos: [usize; 5],
    app: AppId,
    trace: RunTrace,
    meta: SampleMeta,
}

/// One `(target, seed)` key of the grid: the baseline and its runs.
struct GridKey {
    app: AppId,
    base: RunTrace,
    meta: SampleMeta,
    runs: Vec<GridRun>,
}

/// Run every scenario of the grid, as `generate` does; failed runs are
/// counted in `failed_runs`.
fn run_grid(spec: &DatasetSpec, failed_runs: &mut u64) -> Result<Vec<GridKey>, QiError> {
    let mut keys = Vec::new();
    for (ti, &target) in spec.targets.iter().enumerate() {
        for (si, &seed) in spec.seeds.iter().enumerate() {
            let base_s = grid_scenario(spec, target, seed);
            let (app, base) = base_s.run().inspect_err(|_| *failed_runs += 1)?;
            if base.completion_of(app).is_none() {
                *failed_runs += 1;
                return Err(QiError::Incomplete(format!(
                    "baseline {target} (seed {seed}) hit the deadline"
                )));
            }
            let meta = SampleMeta {
                target,
                noise: None,
                fault: FaultSpec::Healthy,
                seed,
                window: 0,
                level: 0.0,
            };
            let mut runs = Vec::new();
            for (ni, &noise) in spec.noise_kinds.iter().enumerate() {
                for (ii, &intensity) in spec.intensities.iter().enumerate() {
                    for (fi, &fault) in spec.faults.iter().enumerate() {
                        let mut s = base_s.clone().with_interference(InterferenceSpec {
                            kind: noise,
                            instances: intensity,
                            ranks: spec.noise_ranks,
                        });
                        s.fault_plan = fault.plan(&spec.cluster);
                        let (app, trace) = s.run().inspect_err(|_| *failed_runs += 1)?;
                        runs.push(GridRun {
                            pos: [ti, ni, ii, si, fi],
                            app,
                            trace,
                            meta: SampleMeta {
                                noise: Some((noise, intensity)),
                                fault,
                                ..meta.clone()
                            },
                        });
                    }
                }
            }
            keys.push(GridKey {
                app,
                base,
                meta,
                runs,
            });
        }
    }
    Ok(keys)
}

type Harvest = (Vec<Vec<f32>>, Vec<usize>, Vec<SampleMeta>);

/// Label one run's windows against its baseline and assemble their
/// feature vectors, as `generate` does for every run it harvests.
fn harvest(
    spec: &DatasetSpec,
    trace: &RunTrace,
    base: &RunTrace,
    app: AppId,
    meta: SampleMeta,
    req: u64,
    counts: &mut Counts,
) -> Harvest {
    let levels = {
        let _s = trace::span("core.window_degradation", req);
        let idx = BaselineIndex::new(base, app);
        window_degradation(&idx, trace, app, spec.window)
    };
    let vectors = {
        let _s = trace::span("monitor.window_vectors", req);
        let n_devices = spec.cluster.n_devices();
        window_vectors_with(
            trace,
            app,
            spec.window,
            spec.features,
            n_devices,
            spec.imputation,
        )
    };
    counts.labelled_windows += levels.len() as u64;
    counts.monitor_windows += vectors.len() as u64;
    let mut windows: Vec<u64> = levels.keys().copied().collect();
    windows.sort_unstable();
    let mut h: Harvest = (Vec::new(), Vec::new(), Vec::new());
    for w in windows {
        let Some(v) = vectors.get(&w) else { continue };
        let level = levels[&w];
        h.0.push(v.clone());
        h.1.push(spec.bins.classify(level));
        h.2.push(SampleMeta {
            window: w,
            level,
            ..meta.clone()
        });
    }
    h
}

/// The rest of `generate` over the stored traces: label and featurize
/// every run (one timed unit in `units_s` each, so best-of timing works
/// per run), then stitch in the canonical order — interfered runs in
/// grid order, then the baseline windows per key.
fn harvest_grid(
    spec: &DatasetSpec,
    keys: &[GridKey],
    counts: &mut Counts,
    units_s: &mut Vec<f64>,
) -> Result<GeneratedDataset, QiError> {
    let mut combos: BTreeMap<[usize; 5], Harvest> = BTreeMap::new();
    let mut baselines: Vec<Harvest> = Vec::new();
    let mut req = 0u64;
    for k in keys {
        for r in &k.runs {
            let t = Instant::now();
            let h = harvest(spec, &r.trace, &k.base, r.app, r.meta.clone(), req, counts);
            combos.insert(r.pos, h);
            req += 1;
            units_s.push(t.elapsed().as_secs_f64());
        }
        if spec.include_baseline_windows {
            let t = Instant::now();
            baselines.push(harvest(
                spec,
                &k.base,
                &k.base,
                k.app,
                k.meta.clone(),
                req,
                counts,
            ));
            req += 1;
            units_s.push(t.elapsed().as_secs_f64());
        }
    }
    let t = Instant::now();
    let _s = trace::span("core.dataset", 0);
    let (mut samples, mut labels, mut meta) = (Vec::new(), Vec::new(), Vec::new());
    for (s, l, m) in combos.into_values().chain(baselines) {
        samples.extend(s);
        labels.extend(l);
        meta.extend(m);
    }
    if samples.is_empty() {
        return Err(QiError::Pipeline("dataset grid produced no samples".into()));
    }
    let gen = GeneratedDataset {
        data: Dataset::from_samples(samples, labels, spec.cluster.n_devices() as usize),
        meta,
        bins: spec.bins.clone(),
        schema: FeatureSchema::current(spec.window, spec.features, spec.imputation),
    };
    units_s.push(t.elapsed().as_secs_f64());
    Ok(gen)
}

fn same_dataset(a: &GeneratedDataset, b: &GeneratedDataset) -> bool {
    let bits = |d: &Dataset| d.x.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.data.n_servers == b.data.n_servers
        && a.data.x.rows() == b.data.x.rows()
        && a.data.x.cols() == b.data.x.cols()
        && bits(&a.data) == bits(&b.data)
        && a.data.y == b.data.y
        && format!("{:?}", a.meta) == format!("{:?}", b.meta)
        && a.schema == b.schema
}

fn classes_digest(classes: &[usize]) -> u64 {
    let mut d = Digest::default();
    for &c in classes {
        d.u64(c as u64);
    }
    d.finish()
}

// ---------------------------------------------------------------------
// model_fit

/// The smoke grid at 100 ms windows over `n_seeds` derived seeds.
fn fit_spec(seed: u64, n_seeds: u64) -> DatasetSpec {
    let mut spec = DatasetSpec::smoke();
    spec.window = WindowConfig::millis(100);
    spec.seeds = (0..n_seeds).map(|k| derive_seed(seed, 100 + k)).collect();
    spec
}

struct FitPass {
    /// Host times: units each run's labelling, the stitch, train +
    /// evaluate, serve, forest fit, scoring.
    times: Iteration,
    gen: GeneratedDataset,
    model: TrainedModel,
    f1: f64,
    served: Served,
    scores: Vec<f64>,
    counts: Counts,
}

fn fit_pass(spec: &DatasetSpec, keys: &[GridKey], seed: u64) -> Result<FitPass, QiError> {
    let mut counts = Counts::default();
    let mut times = Iteration::default();
    let _root = trace::span("bench.iteration", 0);
    let gen = harvest_grid(spec, keys, &mut counts, &mut times.units_s)?;
    let t = Instant::now();
    let (model, f1) = train_eval(&gen.data, &gen.schema, seed, &mut counts)?;
    times.units_s.push(t.elapsed().as_secs_f64());
    let served = serve_all(&model, &gen.data)?;
    times.units_s.push(served.total_s);
    let t = Instant::now();
    let block = gen.data.n_servers * gen.data.n_features();
    let rows: Vec<Vec<f32>> = gen
        .data
        .x
        .data()
        .chunks(block)
        .map(<[f32]>::to_vec)
        .collect();
    let scorer = {
        let _s = trace::span("ml.anomaly.fit", 0);
        let baseline_rows: Vec<Vec<f32>> = rows
            .iter()
            .zip(&gen.meta)
            .filter(|(_, m)| m.noise.is_none())
            .map(|(r, _)| r.clone())
            .collect();
        let cfg = ForestConfig {
            seed: derive_seed(seed, 4),
            ..ForestConfig::default()
        };
        AnomalyScorer::fit_healthy(cfg, &baseline_rows, 95.0)
    };
    times.units_s.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let scores = {
        let _s = trace::span("ml.anomaly.score", 0);
        scorer.forest().score_batch(&rows)
    };
    times.units_s.push(t.elapsed().as_secs_f64());
    counts.anomaly_vectors += scores.len() as u64;
    times.serve_s.push(served.busy_s);
    times.decisions_us.clone_from(&served.latency_us);
    times.preds = served.stats.preds;
    counts.serve.add(&served.stats);
    Ok(FitPass {
        times,
        gen,
        model,
        f1,
        served,
        scores,
        counts,
    })
}

fn fit_digest(p: &FitPass) -> u64 {
    let mut d = Digest::default();
    d.u64(classes_digest(&p.served.classes));
    for &s in &p.scores {
        d.f64(s);
    }
    d.finish()
}

/// Digests and output checks of one pass: the labelled dataset equals
/// `generate`'s byte for byte, and serving answered every request with
/// `predict_batch`'s class.
fn check_fit_pass(p: &mut FitPass, reference: &GeneratedDataset, out: &mut Outcome) {
    out.same_digest("features+labels", dataset_digest(&p.gen.data));
    out.same_digest("predictions+scores", fit_digest(p));
    out.check(
        "labelled dataset equals generate",
        same_dataset(reference, &p.gen),
        "the dataset labelled from the stored traces differs from generate's",
    );
    check_served(&mut p.model, &p.gen.data, &p.served, out);
}

/// Run the `model_fit` workload on a one-thread pool.
pub fn model_fit(cfg: &Run) -> Outcome {
    let mut out = Outcome::new();
    let pool = cfg.pool(1);
    let spec = fit_spec(cfg.seed, FIT_SEEDS);
    let mut failed_runs = 0;
    let (setup_times, keys) =
        cfg.repeat_setup(|| pool.install(|| run_grid(&spec, &mut failed_runs)));
    out.setup(&setup_times);
    let grid_runs = (spec.n_runs() + spec.targets.len() * spec.seeds.len()) as u64;
    let mut attempted = grid_runs * SETUP_REPS as u64;
    let mut failed = failed_runs;
    let (keys, reference) = match (keys, pool.install(|| generate(&spec))) {
        (Ok(k), Ok(r)) => (k, r),
        (Err(e), _) | (_, Err(e)) => {
            out.check("the grid runs", false, &e.to_string());
            out.account(attempted, failed.max(1));
            return out;
        }
    };
    out.note(&format!(
        "{grid_runs} grid runs, {} windows, class counts {:?}",
        reference.data.len(),
        reference.class_counts()
    ));
    let mut best = BestOf::default();
    let mut f1 = 0.0;
    let peak = cfg.measure(&mut best, || {
        match pool.install(|| fit_pass(&spec, &keys, cfg.seed)) {
            Ok(mut p) => {
                attempted += p.served.stats.submits;
                failed += p.served.stats.shed + p.served.stats.stale + p.served.unanswered;
                f1 = p.f1;
                check_fit_pass(&mut p, &reference, &mut out);
                Some(p.times)
            }
            Err(e) => {
                attempted += 1;
                failed += 1;
                out.check("model pipeline runs", false, &e.to_string());
                None
            }
        }
    });
    out.account(attempted, failed);
    if !cfg.trace {
        out.end_to_end(&best, peak, f1);
        return out;
    }

    let n = best.iterations().clamp(1, 8);
    let mut traced = BestOf::default();
    let mut counts = Counts::default();
    trace::start();
    for _ in 0..n {
        match pool.install(|| fit_pass(&spec, &keys, cfg.seed)) {
            Ok(mut p) => {
                check_fit_pass(&mut p, &reference, &mut out);
                traced.add(&p.times);
                counts.add(&p.counts);
            }
            Err(e) => out.check("traced model pipeline runs", false, &e.to_string()),
        }
    }
    let spans = trace::stop();
    out.per_layer(spans, &counts, &traced, &best);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harvested_grid_equals_generate() {
        let spec = fit_spec(1, 2);
        let mut failed = 0;
        let keys = run_grid(&spec, &mut failed).expect("grid runs");
        assert_eq!(failed, 0);
        let mut units = Vec::new();
        let gen =
            harvest_grid(&spec, &keys, &mut Counts::default(), &mut units).expect("grid harvests");
        assert!(same_dataset(&generate(&spec).expect("generate"), &gen));
        // One unit per labelled run (interfered and baseline) plus the stitch.
        let keys_n = spec.targets.len() * spec.seeds.len();
        assert_eq!(units.len(), spec.n_runs() + keys_n + 1);
    }

    #[test]
    fn traced_and_untraced_model_fit_agree() {
        let spec = fit_spec(2, 3);
        let keys = run_grid(&spec, &mut 0).expect("grid runs");
        let plain = fit_pass(&spec, &keys, 2).expect("untraced pass");
        trace::start();
        let traced = fit_pass(&spec, &keys, 2).expect("traced pass");
        let spans = trace::stop();
        assert_eq!(fit_digest(&plain), fit_digest(&traced));
        assert_eq!(
            dataset_digest(&plain.gen.data),
            dataset_digest(&traced.gen.data)
        );
        assert_eq!(plain.served.unanswered, 0);
        for name in [
            "core.window_degradation",
            "monitor.window_vectors",
            "core.dataset",
            "ml.train",
            "ml.evaluate",
            "serve.submit",
            "ml.anomaly.fit",
            "ml.anomaly.score",
        ] {
            assert!(spans.iter().any(|s| s.name == name), "no {name} span");
        }
        // Self times of a traced pass sum to its root span.
        let root = spans
            .iter()
            .position(|s| s.name == "bench.iteration")
            .expect("root span");
        let total: u64 = trace::self_times(&spans).iter().sum();
        assert_eq!(total, spans[root].end_ns - spans[root].start_ns);
    }
}
