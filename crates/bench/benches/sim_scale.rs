//! **Simulator-core scaling bench** (DESIGN.md — simulator core).
//!
//! Two curves, written to `BENCH_sim.json` at the repository root:
//!
//! 1. `cluster_run` — a real end-to-end simulation (every client
//!    streaming 1 MiB writes, 2 clients per OSS) at 4/8/16/32-OSS
//!    cluster sizes, measuring delivered events/second from
//!    [`RunTrace::events_processed`].
//! 2. `cluster_run_sharded` — the parallel-simulator shard sweep
//!    (DESIGN.md — parallel simulation): a dense staggered-write run at
//!    the largest grid point, at `sim_shards` 1/2/4/8, timed both on a
//!    single-thread rayon pool (the overhead gate point) and on the
//!    ambient pool (the scaling curve).
//!
//! **Scaling gate:** events/second at 32 OSS must stay ≥ 0.8× the
//! events/second at 4 OSS, compared on best-sample times (the workload
//! is deterministic, so scheduler noise is strictly additive and the
//! best sample is the cleanest estimate). A hot loop whose cost per
//! event grows with the pending-event count fails it. The gate fails
//! the bench (non-zero exit) unless `QI_SKIP_SIM_GATE=1` — the escape
//! hatch for single-CPU or heavily loaded containers where even
//! best-of-N timing is noise.
//!
//! **Parallel-simulation gate:** every sharded run must leave the
//! observable trace (ops, RPCs, samples, end time, telemetry JSON)
//! bit-identical to the one-shard run — never waived — and on a
//! one-thread pool the sharded runs must cost at most 10% more wall
//! time than the sequential run, best-sample basis
//! (`QI_SKIP_PARSIM_GATE=1` waives the overhead bound only).
//!
//! The report is stamped with the host's hardware thread count, the
//! sample count per point and the source revision (`git describe
//! --always --dirty`).
//!
//! Knobs: `QI_BENCH_OUT=path.json`, `QI_BENCH_QUICK=1` / `QI_SMOKE=1`
//! (fewer samples, smaller runs), `QI_SKIP_SIM_GATE=1`,
//! `QI_SKIP_PARSIM_GATE=1`.

use std::time::Duration;

use criterion::Criterion;
use qi_bench::is_smoke;
use qi_pfs::prelude::*;
use qi_simkit::time::SimTime;

/// OSS counts of the scaling curve (clients scale with them).
const OSS_GRID: [u32; 4] = [4, 8, 16, 32];
/// The scaling gate: events/s at `GATE_OSS` over events/s at the
/// smallest grid point must reach `GATE_MIN_RATIO`.
const GATE_OSS: u32 = 32;
const GATE_MIN_RATIO: f64 = 0.8;
/// Shard counts of the parallel sweep and the one-thread overhead bound.
const SHARD_GRID: [u32; 4] = [1, 2, 4, 8];
const PARSIM_MAX_OVERHEAD_PCT: f64 = 10.0;

/// A cluster where every client streams 1 MiB writes to its own file.
fn streaming_cluster(oss: u32, mib_per_client: u64) -> Cluster {
    let cfg = ClusterConfig {
        oss_nodes: oss,
        osts_per_oss: 1,
        client_nodes: 2 * oss,
        ..ClusterConfig::default()
    };
    let clients = cfg.client_nodes;
    let mut cl = Cluster::builder()
        .config(cfg)
        .seed(7)
        .build()
        .expect("valid scaling config");
    for c in 0..clients {
        let file = FileKey {
            app: AppId(c),
            num: 1,
        };
        let mut left = mib_per_client;
        let prog = move |_now: SimTime| {
            if left == 0 {
                return ProgramStep::Finished;
            }
            left -= 1;
            ProgramStep::Op(IoOp::Write {
                file,
                offset: (mib_per_client - left - 1) * 1024 * 1024,
                len: 1024 * 1024,
            })
        };
        cl.add_app(&format!("w{c}"), vec![Box::new(prog)], &[NodeId(c)]);
    }
    cl
}

/// The shard-sweep workload: like `streaming_cluster` but denser (more
/// data, short deadline — no idle sampler tail) and with each client's
/// start staggered by a distinct sub-RPC delay. The stagger breaks the
/// perfect client symmetry of the streaming workload, which otherwise
/// completes whole cohorts of ops at identical instants — and record
/// order *within* one instant is the one surface the parallel merge
/// does not reproduce (DESIGN.md, parallel simulation, residual ties).
fn sharded_cluster(shards: u32, oss: u32, mib_per_client: u64) -> Cluster {
    let cfg = ClusterConfig {
        oss_nodes: oss,
        osts_per_oss: 1,
        client_nodes: 2 * oss,
        sim_shards: shards,
        ..ClusterConfig::default()
    };
    let clients = cfg.client_nodes;
    let mut cl = Cluster::builder()
        .config(cfg)
        .seed(7)
        .build()
        .expect("valid shard-sweep config");
    for c in 0..clients {
        let file = FileKey {
            app: AppId(c),
            num: 1,
        };
        let mut left = mib_per_client;
        let mut started = false;
        let prog = move |_now: SimTime| {
            if !started {
                started = true;
                let stagger = qi_simkit::time::SimDuration::from_nanos(1_300 * c as u64 + 1);
                return ProgramStep::Compute(stagger);
            }
            if left == 0 {
                return ProgramStep::Finished;
            }
            left -= 1;
            ProgramStep::Op(IoOp::Write {
                file,
                offset: (mib_per_client - left - 1) * 1024 * 1024,
                len: 1024 * 1024,
            })
        };
        cl.add_app(&format!("w{c}"), vec![Box::new(prog)], &[NodeId(c)]);
    }
    cl
}

/// Bit equality of everything a run observes. `events_processed` is
/// deliberately absent: shard counts differ in bookkeeping events (one
/// sampler chain per shard) while every observable stays identical.
fn assert_observably_identical(a: &RunTrace, b: &RunTrace, ctx: &str) {
    assert_eq!(a.ops, b.ops, "{ctx}: op records diverged");
    assert_eq!(a.rpcs, b.rpcs, "{ctx}: rpc records diverged");
    assert_eq!(a.samples, b.samples, "{ctx}: server samples diverged");
    assert_eq!(a.app_completion, b.app_completion, "{ctx}: completions");
    assert_eq!(a.failed_ops, b.failed_ops, "{ctx}: failed ops diverged");
    assert_eq!(a.end, b.end, "{ctx}: end time diverged");
    assert_eq!(
        a.metrics.to_json(),
        b.metrics.to_json(),
        "{ctx}: telemetry JSON diverged"
    );
}

struct Row {
    kind: &'static str,
    oss: u32,
    shards: u32,
    median_ms: f64,
    events_per_sec: f64,
}

/// Scaling-gate inputs: best-sample events/s at the smallest grid point
/// and at `GATE_OSS`, and whether the gate is enforced.
struct Gate {
    base_eps: f64,
    point_eps: f64,
    enforced: bool,
}

impl Gate {
    fn ratio(&self) -> f64 {
        self.point_eps / self.base_eps
    }

    fn passed(&self) -> bool {
        self.ratio() >= GATE_MIN_RATIO
    }
}

/// The source revision the bench ran on, for the report stamp.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn write_json(
    rows: &[Row],
    samples: usize,
    gate: &Gate,
    parsim: (u32, f64, bool, bool, &str),
    out: &std::path::Path,
) {
    let (sweep_oss, overhead, p_enforced, p_passed, determinism) = parsim;
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"hardware_threads\": {hw},\n"));
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str(&format!("  \"git_sha\": \"{}\",\n", git_revision()));
    s.push_str("  \"generated_by\": \"cargo bench -p qi-bench --bench sim_scale\",\n");
    s.push_str(&format!(
        "  \"gate\": {{\"kind\": \"cluster_run\", \"base_oss\": {}, \"point_oss\": {GATE_OSS}, \
         \"base_events_per_sec\": {:.0}, \"point_events_per_sec\": {:.0}, \
         \"min_ratio\": {GATE_MIN_RATIO:.2}, \"measured_ratio\": {:.3}, \
         \"basis\": \"best_sample\", \"enforced\": {}, \"passed\": {}}},\n",
        OSS_GRID[0],
        gate.base_eps,
        gate.point_eps,
        gate.ratio(),
        gate.enforced,
        gate.passed(),
    ));
    s.push_str(&format!(
        "  \"parsim_gate\": {{\"point_oss\": {sweep_oss}, \"threads\": 1, \
         \"max_overhead_pct\": {PARSIM_MAX_OVERHEAD_PCT:.1}, \
         \"worst_overhead_pct\": {overhead:.2}, \"basis\": \"best_sample\", \
         \"determinism\": \"{determinism}\", \"enforced\": {p_enforced}, \"passed\": {p_passed}}},\n"
    ));
    s.push_str("  \"curves\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"kind\": \"{}\", \"oss\": {}, \"shards\": {}, \
             \"median_ms\": {:.3}, \"events_per_sec\": {:.0}}}{}\n",
            r.kind,
            r.oss,
            r.shards,
            r.median_ms,
            r.events_per_sec,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(out, s).expect("write BENCH_sim.json");
}

fn main() {
    let quick = is_smoke()
        || std::env::var("QI_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let skip_gate = std::env::var("QI_SKIP_SIM_GATE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let skip_parsim_gate = std::env::var("QI_SKIP_PARSIM_GATE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let skip_parsim = std::env::var("QI_SKIP_PARSIM")
        .map(|v| v == "1")
        .unwrap_or(false);
    let samples = if quick { 3 } else { 5 };
    let mib_per_client = if quick { 4 } else { 8 };

    println!("sim_scale: OSS grid {OSS_GRID:?}, {samples} samples per point");

    let mut c = Criterion::default()
        .with_budget(Duration::ZERO, Duration::ZERO)
        .min_samples(samples);

    // Curve 1: end-to-end cluster events/second. The workload is fixed
    // per scale, so only wall time varies between samples.
    let mut cluster_events: Vec<(u32, u64)> = Vec::new();
    for oss in OSS_GRID {
        let mut last = 0u64;
        c.bench_function(&format!("cluster_run/{oss}oss"), |bench| {
            bench.iter(|| {
                let trace = streaming_cluster(oss, mib_per_client).run(SimTime::from_secs(120));
                last = trace.events_processed;
                last
            })
        });
        cluster_events.push((oss, last));
    }

    // Curve 2: the parallel shard sweep at the largest grid point. The
    // determinism leg runs first and is never waived: every shard count
    // must reproduce the sequential run's observables bit-for-bit.
    let sweep_oss = GATE_OSS;
    let shard_grid: Vec<u32> = if skip_parsim {
        Vec::new()
    } else {
        SHARD_GRID.to_vec()
    };
    let sweep_mib = if quick { 16 } else { 64 };
    let sweep_deadline = SimTime::from_secs(10);
    let mut sweep_events: Vec<(u32, u64)> = Vec::new();
    let mut sweep_golden: Option<RunTrace> = None;
    for &shards in &shard_grid {
        let trace = sharded_cluster(shards, sweep_oss, sweep_mib).run(sweep_deadline);
        match &sweep_golden {
            None => sweep_golden = Some(trace),
            Some(golden) => {
                assert_observably_identical(
                    golden,
                    &trace,
                    &format!("{shards} shards vs sequential @ {sweep_oss} OSS"),
                );
                sweep_events.push((shards, trace.events_processed));
            }
        }
    }
    if let Some(golden) = &sweep_golden {
        sweep_events.insert(0, (1, golden.events_processed));
        println!(
            "shard sweep @ {sweep_oss} OSS: observables bit-identical at {shard_grid:?} shards"
        );
    } else {
        println!("shard sweep skipped (QI_SKIP_PARSIM=1)");
    }

    for &shards in &shard_grid {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("one-thread pool builds");
        let name = format!("cluster_shards/{shards}shards/1t");
        c.bench_function(&name, |bench| {
            bench.iter(|| {
                pool.install(|| {
                    sharded_cluster(shards, sweep_oss, sweep_mib)
                        .run(sweep_deadline)
                        .events_processed
                })
            })
        });
        let name = format!("cluster_shards/{shards}shards/ambient");
        c.bench_function(&name, |bench| {
            bench.iter(|| {
                sharded_cluster(shards, sweep_oss, sweep_mib)
                    .run(sweep_deadline)
                    .events_processed
            })
        });
    }

    let stats = c.results();
    let median_of = |name: &str| {
        stats
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.median_ms())
            .expect("bench ran")
    };
    // Best (p05 ≈ min at these sample counts) wall time. The workloads
    // are deterministic, so their true cost is a constant and scheduler
    // noise is strictly additive — the best sample is the
    // least-contaminated estimate, which is what the gates compare on
    // single-CPU/shared machines where medians swing 2–3×.
    let best_of = |name: &str| {
        stats
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.p05_ns / 1e6)
            .expect("bench ran")
    };

    let mut rows = Vec::new();
    for &(oss, events) in &cluster_events {
        let m = median_of(&format!("cluster_run/{oss}oss"));
        rows.push(Row {
            kind: "cluster_run",
            oss,
            shards: 1,
            median_ms: m,
            events_per_sec: events as f64 / (m / 1e3),
        });
    }
    for &(shards, events) in &sweep_events {
        for (kind, pool) in [
            ("cluster_run_sharded_1t", "1t"),
            ("cluster_run_sharded", "ambient"),
        ] {
            let m = median_of(&format!("cluster_shards/{shards}shards/{pool}"));
            rows.push(Row {
                kind,
                oss: sweep_oss,
                shards,
                median_ms: m,
                events_per_sec: events as f64 / (m / 1e3),
            });
        }
    }

    // Scaling gate: best-sample events/s at 32 OSS against 4 OSS.
    let best_eps = |oss: u32| {
        let events = cluster_events
            .iter()
            .find(|&&(o, _)| o == oss)
            .map(|&(_, e)| e)
            .expect("grid point ran");
        events as f64 / (best_of(&format!("cluster_run/{oss}oss")) / 1e3)
    };
    let base_oss = OSS_GRID[0];
    let gate = Gate {
        base_eps: best_eps(base_oss),
        point_eps: best_eps(GATE_OSS),
        enforced: !skip_gate,
    };
    println!(
        "gate (best-sample): {:.0} events/s @ {GATE_OSS} OSS vs {:.0} @ {base_oss} OSS → {:.2}×",
        gate.point_eps,
        gate.base_eps,
        gate.ratio()
    );

    // Parallel-simulation gate: sharded runs on a one-thread pool must
    // stay within the overhead bound of the sequential run.
    let mut worst_overhead = 0.0f64;
    if !skip_parsim {
        let seq_1t = best_of("cluster_shards/1shards/1t");
        for &shards in shard_grid.iter().filter(|&&s| s > 1) {
            let t = best_of(&format!("cluster_shards/{shards}shards/1t"));
            let overhead = (t / seq_1t - 1.0) * 100.0;
            println!(
                "parsim @ {shards} shards, 1 thread (best-sample): {t:.3} ms vs sequential \
                 {seq_1t:.3} ms → {overhead:+.1}%"
            );
            worst_overhead = worst_overhead.max(overhead);
        }
    }
    let parsim_passed = worst_overhead <= PARSIM_MAX_OVERHEAD_PCT;

    let out = std::env::var("QI_BENCH_OUT").map_or_else(
        |_| {
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_sim.json")
        },
        std::path::PathBuf::from,
    );
    write_json(
        &rows,
        samples,
        &gate,
        (
            sweep_oss,
            worst_overhead,
            !skip_parsim_gate && !skip_parsim,
            parsim_passed,
            if skip_parsim { "skipped" } else { "passed" },
        ),
        &out,
    );
    println!("wrote {}", out.display());

    if !gate.passed() && gate.enforced {
        panic!(
            "scaling gate failed: {GATE_OSS}-OSS events/s is {:.2}× the {base_oss}-OSS \
             rate (need ≥ {GATE_MIN_RATIO}×); set QI_SKIP_SIM_GATE=1 to waive on \
             constrained machines",
            gate.ratio()
        );
    }
    if !parsim_passed && !skip_parsim_gate {
        panic!(
            "parallel-simulation overhead gate failed: worst sharded run is \
             {worst_overhead:+.1}% vs sequential at 1 thread (bound \
             {PARSIM_MAX_OVERHEAD_PCT}%); set QI_SKIP_PARSIM_GATE=1 to waive \
             on constrained machines — determinism is asserted regardless"
        );
    }
}
