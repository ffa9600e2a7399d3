//! **Parallel execution harness** (DESIGN.md — execution layer).
//!
//! Benchmarks the hot path that the work-stealing pool behind the
//! vendored `rayon` shim parallelises — the dataset sweep
//! (`dataset::generate`, overlapping baseline + interfered simulations)
//! — at 1, 2, and N worker threads, then writes `BENCH_parallel.json` at
//! the repository root with median wall-clock times and speedups
//! relative to one thread.
//!
//! Determinism is asserted, not assumed: before timing, every thread
//! count's output is checked bit-for-bit against the single-threaded
//! run (dataset labels, feature bits, provenance).
//!
//! Knobs:
//! - `QI_BENCH_THREADS=1,2,8` overrides the thread counts.
//! - `QI_BENCH_OUT=path.json` overrides the output path.
//! - `QI_BENCH_QUICK=1` (or `QI_SMOKE=1`) shrinks sample counts for
//!   smoke runs.

use std::time::Duration;

use criterion::Criterion;
use qi_bench::is_smoke;
use quanterference::dataset::{generate_on, DatasetSpec, GeneratedDataset};
use rayon::{ThreadPool, ThreadPoolBuilder};

/// Everything that must be byte-identical across thread counts.
fn dataset_fingerprint(g: &GeneratedDataset) -> (Vec<usize>, Vec<u32>, String) {
    (
        g.data.y.clone(),
        g.data.x.data().iter().map(|v| v.to_bits()).collect(),
        format!("{:?}", g.meta),
    )
}

fn thread_counts() -> Vec<usize> {
    if let Ok(spec) = std::env::var("QI_BENCH_THREADS") {
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
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 2, hw.max(4)];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn pool(threads: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction cannot fail for nonzero thread counts")
}

struct BenchRow {
    name: String,
    threads: usize,
    median_ms: f64,
    speedup_vs_1t: f64,
}

fn write_json(rows: &[BenchRow], hw: usize, samples: usize, out: &std::path::Path) {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"hardware_threads\": {hw},\n"));
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str("  \"generated_by\": \"cargo bench -p qi-bench --bench parallel\",\n");
    s.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"median_ms\": {:.3}, \"speedup_vs_1t\": {:.3}}}{}\n",
            r.name,
            r.threads,
            r.median_ms,
            r.speedup_vs_1t,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(out, s).expect("write BENCH_parallel.json");
}

fn main() {
    let quick = is_smoke()
        || std::env::var("QI_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let counts = thread_counts();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let samples = if quick { 2 } else { 5 };

    println!("parallel bench: threads {counts:?} on {hw} hardware thread(s)");

    // Determinism gate: every thread count must reproduce the
    // single-thread output bit-for-bit before we bother timing it.
    let spec = DatasetSpec::smoke();
    let reference = dataset_fingerprint(&generate_on(&pool(1), &spec).expect("sweep runs"));
    for &n in &counts {
        assert_eq!(
            dataset_fingerprint(&generate_on(&pool(n), &spec).expect("sweep runs")),
            reference,
            "dataset output diverged at {n} threads"
        );
    }
    println!("determinism: all thread counts byte-identical to 1 thread");

    // Fixed sample counts (not a time budget) so relative numbers are
    // comparable across thread counts on loaded machines.
    let mut c = Criterion::default()
        .with_budget(Duration::ZERO, Duration::ZERO)
        .min_samples(samples);
    for &n in &counts {
        let p = pool(n);
        c.bench_function(&format!("dataset_generate_smoke/{n}t"), |bench| {
            bench.iter(|| generate_on(&p, &spec).expect("sweep runs"))
        });
    }

    let stats = c.results();
    let base_median = |prefix: &str| {
        stats
            .iter()
            .find(|s| s.name == format!("{prefix}/1t"))
            .map(|s| s.median_ms())
    };
    let rows: Vec<BenchRow> = stats
        .iter()
        .map(|s| {
            let (prefix, threads) = s
                .name
                .rsplit_once('/')
                .map(|(p, t)| (p, t.trim_end_matches('t').parse().unwrap_or(1)))
                .unwrap_or((s.name.as_str(), 1));
            let speedup = base_median(prefix)
                .map(|b| b / s.median_ms())
                .unwrap_or(1.0);
            BenchRow {
                name: prefix.to_string(),
                threads,
                median_ms: s.median_ms(),
                speedup_vs_1t: speedup,
            }
        })
        .collect();

    let out = std::env::var("QI_BENCH_OUT").map_or_else(
        |_| {
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_parallel.json")
        },
        std::path::PathBuf::from,
    );
    write_json(&rows, hw, samples, &out);
    println!("wrote {}", out.display());
}
