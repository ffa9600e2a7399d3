//! **Serving throughput** (DESIGN.md — serving layer, sharded).
//!
//! Two sweeps, one output file:
//!
//! 1. **Batch sweep** — a fixed single-tenant stream of prediction
//!    requests through a one-shard [`ShardedServeEngine`] at batch
//!    sizes 1, 8, and 32 (the fused immutable inference path).
//! 2. **Shard sweep** — a multi-tenant stream (8 tenants) through
//!    [`ShardedServeEngine`] at 1/2/4/8 shards, every shard driven from
//!    its own rayon worker, reporting aggregate predictions/second.
//!
//! Writes `BENCH_serve.json` at the repository root with median
//! wall-clock times, per-row `shards`, the best
//! `aggregate_preds_per_sec`, and a `gate` object recording what was
//! gated and why (including any waiver reason).
//!
//! Gates:
//! - **Determinism (never waived):** every batch size and every shard
//!   count must produce identical predicted classes.
//! - **Throughput:** on multi-core hosts the sharded sweep must reach
//!   ≥ 1,000,000 aggregate preds/s. On a single hardware thread that
//!   target is auto-waived (recorded in the JSON) and the gate becomes:
//!   single-shard fused throughput ≥ 1.5× the PR-4 recorded baseline
//!   of 328,414 preds/s (≈ 492,621). Smoke/quick runs auto-waive the
//!   throughput gate entirely — never the determinism gate.
//! - **p95 regression:** each row's p95 must stay within +10% of the
//!   previous recorded run (rows matched by name/threads/shards;
//!   baselines written before the `shards` column count as shards=1).
//!
//! Knobs:
//! - `QI_SERVE_SHARDS=1,2,4,8` overrides the shard-count sweep.
//! - `QI_SKIP_SERVE_GATE=1` skips the throughput gate (recorded).
//! - `QI_SKIP_P95_GATE=1` skips the p95 regression gate.
//! - `QI_BENCH_OUT=path.json` overrides the output path.
//! - `QI_BENCH_QUICK=1` (or `QI_SMOKE=1`) shrinks the request stream.

use std::time::Duration;

use criterion::Criterion;
use qi_bench::is_smoke;
use qi_ml::data::Dataset;
use qi_ml::train::{train, TrainConfig, TrainedModel};
use qi_pfs::ids::AppId;
use qi_serve::{ModelRegistry, OverloadPolicy, PredictRequest, ServeConfig, ShardedServeEngine};
use qi_simkit::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Realistic serving shape: the small-cluster monitor emits 5 server
/// blocks of 42 features each (see `examples/serve_loop.rs`).
const SERVERS: usize = 5;
const FEATS: usize = 42;

/// Tenants for the sharded sweep: the FNV-1a routing spreads these
/// across up to 8 shards.
const N_TENANTS: u32 = 8;

/// PR-4's recorded single-engine throughput (BENCH_serve.json,
/// batch 32, 1 thread) — the reference for the single-core fused gate.
const PR4_BASELINE_PREDS_PER_SEC: f64 = 328_414.0;

fn model() -> TrainedModel {
    let mut rng = StdRng::seed_from_u64(42);
    let mut samples = Vec::new();
    let mut y = Vec::new();
    for i in 0..240 {
        let pos = i % 2 == 0;
        let block: Vec<f32> = (0..SERVERS * FEATS)
            .map(|_| {
                if pos {
                    rng.gen_range(0.5..2.0)
                } else {
                    rng.gen_range(-2.0..-0.5)
                }
            })
            .collect();
        samples.push(block);
        y.push(usize::from(pos));
    }
    let cfg = TrainConfig {
        epochs: 6,
        ..TrainConfig::default()
    };
    train(&Dataset::from_samples(samples, y, SERVERS), &cfg)
}

fn block_for(i: usize) -> Vec<f32> {
    (0..SERVERS * FEATS)
        .map(|j| {
            let h = ((i * SERVERS * FEATS + j) as u32)
                .wrapping_mul(2_654_435_761)
                .wrapping_add(7);
            (h >> 8) as f32 / (1u32 << 24) as f32 * 4.0 - 2.0
        })
        .collect()
}

/// The fixed single-tenant request stream: deterministic hash-filled
/// feature blocks.
fn requests(n: usize) -> Vec<PredictRequest> {
    (0..n)
        .map(|i| PredictRequest {
            tenant: AppId(0),
            window: i as u64,
            block: block_for(i),
        })
        .collect()
}

/// The multi-tenant stream for the sharded sweep: the same blocks,
/// round-robined over `N_TENANTS` applications.
fn sharded_requests(n: usize) -> Vec<PredictRequest> {
    (0..n)
        .map(|i| PredictRequest {
            tenant: AppId(1 + (i as u32 % N_TENANTS)),
            window: (i as u64) / u64::from(N_TENANTS),
            block: block_for(i),
        })
        .collect()
}

fn registry() -> ModelRegistry {
    let m = model();
    let mut reg = ModelRegistry::new(m.shape(), m.schema().clone());
    reg.insert(1, m).expect("model loads");
    reg.activate(1).expect("model activates");
    reg
}

fn engine(max_batch: usize) -> ShardedServeEngine {
    ShardedServeEngine::new(
        ServeConfig {
            max_batch,
            // The stream is driven by the size threshold alone.
            max_delay: SimDuration::from_secs(1_000_000),
            queue_cap: max_batch.max(32),
            admission: None,
            overload: OverloadPolicy::Shed,
            tenants: vec![AppId(0)],
            threads: None,
        },
        registry(),
        1,
    )
    .expect("valid config")
}

fn sharded_engine(n_shards: usize) -> ShardedServeEngine {
    ShardedServeEngine::new(
        ServeConfig {
            max_batch: 32,
            max_delay: SimDuration::from_secs(1_000_000),
            queue_cap: 64,
            admission: None,
            overload: OverloadPolicy::Shed,
            tenants: (1..=N_TENANTS).map(AppId).collect(),
            threads: None,
        },
        registry(),
        n_shards,
    )
    .expect("valid sharded config")
}

/// Push the whole stream through `e`, starting the simulated clock at
/// `tick` (the engine requires non-decreasing time across iterations).
fn drive(e: &mut ShardedServeEngine, stream: &[PredictRequest], tick: &mut u64) -> Vec<usize> {
    let mut classes = Vec::with_capacity(stream.len());
    for req in stream {
        *tick += 1_000;
        let (_, done) = e.submit(SimTime(*tick), req.clone()).expect("bench submit");
        classes.extend(done.into_iter().map(|p| p.class));
    }
    *tick += 1_000;
    classes.extend(
        e.finish(SimTime(*tick))
            .expect("bench finish")
            .into_iter()
            .map(|p| p.class),
    );
    classes
}

/// Split the sharded stream by owning shard, preserving order and the
/// global index (which sets each request's simulated arrival instant).
fn partition(
    eng: &ShardedServeEngine,
    stream: &[PredictRequest],
) -> Vec<Vec<(usize, PredictRequest)>> {
    let mut per_shard = vec![Vec::new(); eng.n_shards()];
    for (i, req) in stream.iter().enumerate() {
        let s = eng.shard_of(req.tenant).expect("known tenant");
        per_shard[s].push((i, req.clone()));
    }
    per_shard
}

/// Drive every shard from its own rayon task; `base` offsets the
/// simulated clock so repeated iterations keep time non-decreasing.
/// Returns `(tenant, window, class)` triples from every shard.
fn drive_sharded(
    eng: &mut ShardedServeEngine,
    per_shard: &[Vec<(usize, PredictRequest)>],
    pool: &rayon::ThreadPool,
    base: u64,
    span: u64,
) -> Vec<(u32, u64, usize)> {
    let mut workers = eng.workers();
    let outs: Vec<Vec<(u32, u64, usize)>> = pool.install(|| {
        workers
            .par_iter_mut()
            .map(|w| {
                let mine = &per_shard[w.index()];
                let mut got = Vec::with_capacity(mine.len());
                for (i, req) in mine {
                    let now = SimTime(base + (*i as u64 + 1) * 1_000);
                    let (_, done) = w.submit(now, req.clone()).expect("shard submit");
                    got.extend(done.into_iter().map(|p| (p.tenant.0, p.window, p.class)));
                }
                got.extend(
                    w.finish(SimTime(base + span - 1_000))
                        .expect("shard finish")
                        .into_iter()
                        .map(|p| (p.tenant.0, p.window, p.class)),
                );
                got
            })
            .collect()
    });
    outs.into_iter().flatten().collect()
}

fn counts_from_env(var: &str, default: Vec<usize>) -> Vec<usize> {
    if let Ok(spec) = std::env::var(var) {
        let mut counts: Vec<usize> = spec
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect();
        counts.dedup();
        if !counts.is_empty() {
            return counts;
        }
    }
    default
}

struct BenchRow {
    name: String,
    batch: usize,
    threads: usize,
    shards: usize,
    median_ms: f64,
    p95_ms: f64,
    preds_per_sec: f64,
}

/// What the throughput gate decided, recorded verbatim in the JSON.
struct GateRecord {
    target: f64,
    measured: f64,
    passed: bool,
    waived: bool,
    reason: String,
}

/// A previous run's row, read back from `BENCH_serve.json` so the
/// current run can be gated against it.
struct BaselineRow {
    name: String,
    threads: usize,
    shards: usize,
    p95_ms: f64,
}

/// Parse the baseline JSON with plain string scanning (the repo has no
/// JSON dependency). Returns `(requests_per_run, rows-with-p95)`; rows
/// written before the `shards` column count as `shards = 1`, and rows
/// written before `p95_ms` are simply absent from the result.
fn read_baseline(out: &std::path::Path) -> Option<(usize, Vec<BaselineRow>)> {
    let text = std::fs::read_to_string(out).ok()?;
    let field = |chunk: &str, key: &str| -> Option<f64> {
        let at = chunk.find(&format!("\"{key}\":"))?;
        chunk[at..]
            .split_once(':')?
            .1
            .trim_start()
            .split(|c: char| c == ',' || c == '}' || c.is_whitespace())
            .next()?
            .parse()
            .ok()
    };
    let string_field = |chunk: &str, key: &str| -> Option<String> {
        let at = chunk.find(&format!("\"{key}\": \""))?;
        let rest = &chunk[at + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let requests = field(&text, "requests_per_run")? as usize;
    let benches = &text[text.find("\"benches\"")?..];
    let rows = benches
        .split('{')
        .skip(1)
        .filter_map(|chunk| {
            Some(BaselineRow {
                name: string_field(chunk, "name")?,
                threads: field(chunk, "threads")? as usize,
                shards: field(chunk, "shards").map_or(1, |s| s as usize),
                p95_ms: field(chunk, "p95_ms")?,
            })
        })
        .collect();
    Some((requests, rows))
}

fn write_json(
    rows: &[BenchRow],
    n_requests: usize,
    hw: usize,
    aggregate: f64,
    gate: &GateRecord,
    out: &std::path::Path,
) {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"hardware_threads\": {hw},\n"));
    s.push_str(&format!("  \"requests_per_run\": {n_requests},\n"));
    s.push_str("  \"generated_by\": \"cargo bench -p qi-bench --bench serve_throughput\",\n");
    s.push_str(&format!("  \"aggregate_preds_per_sec\": {aggregate:.1},\n"));
    s.push_str(&format!(
        "  \"gate\": {{\"target_preds_per_sec\": {:.1}, \"measured_preds_per_sec\": {:.1}, \
         \"passed\": {}, \"waived\": {}, \"reason\": \"{}\"}},\n",
        gate.target, gate.measured, gate.passed, gate.waived, gate.reason,
    ));
    s.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"batch\": {}, \"threads\": {}, \"shards\": {}, \
             \"median_ms\": {:.3}, \"p95_ms\": {:.3}, \"preds_per_sec\": {:.1}}}{}\n",
            r.name,
            r.batch,
            r.threads,
            r.shards,
            r.median_ms,
            r.p95_ms,
            r.preds_per_sec,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(out, s).expect("write BENCH_serve.json");
}

fn main() {
    let quick = is_smoke()
        || std::env::var("QI_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let shard_counts = counts_from_env("QI_SERVE_SHARDS", vec![1, 2, 4, 8]);
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n_requests = if quick { 256 } else { 2048 };
    let samples = if quick { 2 } else { 5 };
    let batches = [1usize, 8, 32];

    println!(
        "serve throughput bench: {n_requests} requests, batches {batches:?}, \
         shards {shard_counts:?} on {hw} hardware thread(s)"
    );

    // Determinism gate #1 (never waived): batching must not change a
    // single predicted class.
    let stream = requests(n_requests);
    let reference = {
        let mut tick = 0u64;
        drive(&mut engine(1), &stream, &mut tick)
    };
    assert_eq!(reference.len(), n_requests);
    for &b in &batches {
        let mut tick = 0u64;
        let got = drive(&mut engine(b), &stream, &mut tick);
        assert_eq!(got, reference, "predictions diverged at batch {b}");
    }

    // Determinism gate #2 (never waived): the sharded engine must
    // produce identical (tenant, window, class) triples at every shard
    // count, parallel drive included.
    let mstream = sharded_requests(n_requests);
    let span = (n_requests as u64 + 2) * 1_000;
    let sorted = |mut v: Vec<(u32, u64, usize)>| {
        v.sort_unstable();
        v
    };
    let shard_reference = {
        let mut eng = sharded_engine(1);
        let per_shard = partition(&eng, &mstream);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool");
        sorted(drive_sharded(&mut eng, &per_shard, &pool, 0, span))
    };
    assert_eq!(shard_reference.len(), n_requests);
    for &s in &shard_counts {
        let mut eng = sharded_engine(s);
        let per_shard = partition(&eng, &mstream);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(s.min(hw))
            .build()
            .expect("pool");
        let got = sorted(drive_sharded(&mut eng, &per_shard, &pool, 0, span));
        assert_eq!(got, shard_reference, "predictions diverged at {s} shards");
    }
    println!("determinism: all batch-size and shard-count configurations agree");

    let mut c = Criterion::default()
        .with_budget(Duration::ZERO, Duration::ZERO)
        .min_samples(samples);
    for &b in &batches {
        // One engine per configuration; the simulated clock keeps
        // advancing across iterations, wall time is what's measured.
        let mut e = engine(b);
        let mut tick = 0u64;
        c.bench_function(&format!("serve_predict/batch{b}/1t"), |bench| {
            bench.iter(|| drive(&mut e, &stream, &mut tick))
        });
    }
    for &s in &shard_counts {
        let mut eng = sharded_engine(s);
        let per_shard = partition(&eng, &mstream);
        let threads = s.min(hw);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let mut iter_no = 0u64;
        c.bench_function(&format!("serve_sharded/shards{s}/{threads}t"), |bench| {
            bench.iter(|| {
                let base = iter_no * span;
                iter_no += 1;
                let got = drive_sharded(&mut eng, &per_shard, &pool, base, span);
                assert_eq!(got.len(), n_requests);
            })
        });
    }

    let stats = c.results();
    let rows: Vec<BenchRow> = stats
        .iter()
        .map(|s| {
            let mut it = s.name.split('/');
            let kind = it.next().unwrap_or("");
            let spec = it.next().unwrap_or("");
            let threads: usize = it
                .next()
                .and_then(|t| t.trim_end_matches('t').parse().ok())
                .unwrap_or(1);
            let (batch, shards, name) = if kind == "serve_sharded" {
                let sh = spec.trim_start_matches("shards").parse().unwrap_or(1);
                (32, sh, format!("serve_sharded/shards{sh}"))
            } else {
                let b = spec.trim_start_matches("batch").parse().unwrap_or(1);
                (b, 1, format!("serve_predict/batch{b}"))
            };
            BenchRow {
                name,
                batch,
                threads,
                shards,
                median_ms: s.median_ms(),
                p95_ms: s.p95_ns / 1e6,
                preds_per_sec: n_requests as f64 / (s.median_ms() / 1_000.0),
            }
        })
        .collect();

    // Batching must pay for itself: batch-32 must be at least as fast
    // as unbatched.
    let best = |b: usize| {
        rows.iter()
            .filter(|r| r.shards == 1 && r.name.starts_with("serve_predict") && r.batch == b)
            .map(|r| r.preds_per_sec)
            .fold(0.0f64, f64::max)
    };
    let (t1, t32) = (best(1), best(32));
    println!("batch sweep: batch1 {t1:.0} preds/s, batch32 {t32:.0} preds/s");
    assert!(
        t32 >= t1,
        "batch-32 throughput ({t32:.0}/s) fell below unbatched ({t1:.0}/s)"
    );

    // The sharded sweep's headline number.
    let aggregate = rows
        .iter()
        .filter(|r| r.name.starts_with("serve_sharded"))
        .map(|r| r.preds_per_sec)
        .fold(0.0f64, f64::max);
    let single_shard = rows
        .iter()
        .filter(|r| r.name.starts_with("serve_sharded") && r.shards == 1)
        .map(|r| r.preds_per_sec)
        .fold(0.0f64, f64::max)
        .max(t32);
    for r in rows.iter().filter(|r| r.name.starts_with("serve_sharded")) {
        println!(
            "{} shards / {} thread(s): {:.0} preds/s aggregate",
            r.shards, r.threads, r.preds_per_sec
        );
    }

    // Throughput gate. The multi-core target is 1M aggregate preds/s;
    // a single-hardware-thread host cannot express shard parallelism,
    // so the gate degrades (with a recorded reason) to: single-shard
    // fused throughput >= 1.5x the PR-4 baseline.
    let skip_gate = std::env::var("QI_SKIP_SERVE_GATE").is_ok_and(|v| v == "1");
    let single_core_target = PR4_BASELINE_PREDS_PER_SEC * 1.5;
    let gate = if skip_gate {
        GateRecord {
            target: 1_000_000.0,
            measured: aggregate,
            passed: aggregate >= 1_000_000.0,
            waived: true,
            reason: "QI_SKIP_SERVE_GATE=1".into(),
        }
    } else if quick {
        GateRecord {
            target: 1_000_000.0,
            measured: aggregate,
            passed: aggregate >= 1_000_000.0,
            waived: true,
            reason:
                "smoke/quick run: throughput gate auto-waived (determinism gates still enforced)"
                    .into(),
        }
    } else if hw == 1 {
        GateRecord {
            target: single_core_target,
            measured: single_shard,
            passed: single_shard >= single_core_target,
            waived: false,
            reason: format!(
                "single hardware thread: 1M aggregate gate waived; gating single-shard fused \
                 throughput >= 1.5x PR-4 baseline {PR4_BASELINE_PREDS_PER_SEC:.0} preds/s"
            ),
        }
    } else {
        GateRecord {
            target: 1_000_000.0,
            measured: aggregate,
            passed: aggregate >= 1_000_000.0,
            waived: false,
            reason: format!("{hw} hardware threads: gating aggregate >= 1M preds/s"),
        }
    };
    println!(
        "throughput gate: target {:.0} preds/s, measured {:.0} preds/s, {}{}",
        gate.target,
        gate.measured,
        if gate.passed { "passed" } else { "FAILED" },
        if gate.waived { " (waived)" } else { "" },
    );
    println!("  reason: {}", gate.reason);
    assert!(
        gate.passed || gate.waived,
        "serve throughput gate failed: measured {:.0} preds/s < target {:.0} preds/s ({})",
        gate.measured,
        gate.target,
        gate.reason
    );

    let out = std::env::var("QI_BENCH_OUT").map_or_else(
        |_| {
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_serve.json")
        },
        std::path::PathBuf::from,
    );

    // p95 regression gate: each configuration's p95 batch latency must
    // stay within +10% of the previous recorded run. Skipped when the
    // baseline is absent/incomparable (different request count, or rows
    // written before p95 was recorded) or when QI_SKIP_P95_GATE=1 —
    // e.g. when re-baselining on different hardware.
    let skip_p95 = std::env::var("QI_SKIP_P95_GATE").is_ok_and(|v| v == "1");
    match read_baseline(&out) {
        _ if skip_p95 => println!("p95 gate skipped (QI_SKIP_P95_GATE=1)"),
        None => println!(
            "p95 gate skipped: no readable baseline at {}",
            out.display()
        ),
        Some((base_requests, _)) if base_requests != n_requests => println!(
            "p95 gate skipped: baseline ran {base_requests} requests, this run {n_requests}"
        ),
        Some((_, base_rows)) if base_rows.is_empty() => {
            println!("p95 gate skipped: baseline predates the p95_ms column")
        }
        Some((_, base_rows)) => {
            for r in &rows {
                let Some(base) = base_rows
                    .iter()
                    .find(|o| o.name == r.name && o.threads == r.threads && o.shards == r.shards)
                else {
                    continue;
                };
                let limit = base.p95_ms * 1.10;
                assert!(
                    r.p95_ms <= limit,
                    "serve p95 regression at {} / {} thread(s) / {} shard(s): {:.3} ms vs \
                     baseline {:.3} ms (+10% limit {:.3} ms)",
                    r.name,
                    r.threads,
                    r.shards,
                    r.p95_ms,
                    base.p95_ms,
                    limit
                );
            }
            println!("p95 gate: every matched configuration within +10% of the baseline");
        }
    }

    write_json(&rows, n_requests, hw, aggregate, &gate, &out);
    println!("wrote {}", out.display());
}
