//! End-to-end benchmark of the interference pipeline.
//!
//! ```text
//! perfbench --workload <closed_loop|model_fit> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) records spans around every call into a layer, writes
//! them to `<trace-dir>/spans-<workload>-<seed>.jsonl`, and prints the
//! per-layer metrics. Both print the output digests and checks first and
//! end with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. The exit code is non-zero when any output check fails.

mod digest;
mod loops;
mod pipeline;
mod report;
mod stats;
mod trace;
mod wrap;

use std::io::Write;
use std::process::ExitCode;
use std::sync::Mutex;

use report::{Outcome, Run};

/// The workloads, by name.
const WORKLOADS: [&str; 2] = ["closed_loop", "model_fit"];

/// Derive the `k`-th sub-seed of a benchmark seed (splitmix64), kept
/// below 2³⁰ so scenario seeds stay small positive integers.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    1 + (z & ((1 << 30) - 1))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_dir: ".bench_build/perfbench".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-dir" => args.trace_dir = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The reproducibility stamp: source identity, host, toolchain, pools,
/// seed and the sample count behind every reported statistic.
fn stamp(args: &Args, run: &Run, out: &Outcome) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let pools = run.pools.lock().expect("pool list lock").clone();
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_sha\": {}, \
         \"source_digest\": {}, \"nproc\": {}, \"pool_threads\": {:?}, \"rustc\": {}, \
         \"profile\": {}, \"samples\": {{{}}}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_str(&env("PERFBENCH_GIT_SHA")),
        json_str(&env("PERFBENCH_SOURCE_DIGEST")),
        run.nproc,
        pools,
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        samples.join(", ")
    )
}

fn write_spans(dir: &str, args: &Args, out: &Outcome) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}-{}.jsonl", args.workload, args.seed);
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    trace::write_jsonl(&out.spans, &mut w)?;
    w.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pools: Mutex::new(Vec::new()),
    };
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = match args.workload.as_str() {
        "closed_loop" => loops::run(&run),
        _ => pipeline::model_fit(&run),
    };
    if args.trace {
        match write_spans(&args.trace_dir, &args, &out) {
            Ok(path) => out.note(&format!("{} spans written to {path}", out.spans.len())),
            Err(e) => out.check("spans written", false, &e.to_string()),
        }
    }

    println!("stamp {}", stamp(&args, &run, &out));
    for n in &out.notes {
        println!("note {n}");
    }
    for (name, d) in &out.digests {
        println!("digest {name} {d:016x}");
    }
    for (name, ok, detail) in &out.checks {
        if *ok {
            println!("check ok   {name}");
        } else {
            println!("check FAIL {name}: {detail}");
        }
    }
    println!("attempted {} failed {}", out.attempted, out.failed);
    for (name, (v, unit)) in &out.metrics {
        println!("metric {name} = {v:.6} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    let correct = out.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
