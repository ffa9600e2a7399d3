//! The online prediction service, end to end: train offline, load both
//! model versions into the registry, then stream a live interfered run
//! (executed under an active fault plan) through the streaming monitor
//! into the micro-batching serve engine — including a hot swap to a
//! retrained model and an overloaded replay where per-tenant admission
//! and the `Shed` policy keep every queue bounded.
//!
//! ```sh
//! cargo run --release --example serve_loop
//! ```
//!
//! Exits non-zero if the serving accounting invariant breaks or the
//! session is not byte-identical across shard counts, so
//! `scripts/bench.sh --smoke` can use it as a determinism gate.

use quanterference_repro::serve_demo::run_serve_session;
use quanterference_repro::simkit::QiError;

fn main() -> Result<(), QiError> {
    println!("== online serving session (2 shards) ==");
    let s = run_serve_session(2)?;
    println!(
        "offline F1 = {:.3}, serving shape [{}]",
        s.offline_f1, s.shape
    );

    println!("\n-- pass 1: model v1, generous admission --");
    println!(
        "{} windows -> {} requests, {} answered ({} batches)",
        s.v1.windows,
        s.v1.submitted,
        s.v1.predictions.len(),
        s.snapshot.counter("serve.batches").unwrap_or(0),
    );
    println!("\n-- hot swap to v2, then pass 2 on the same engine --");
    println!(
        "{} requests, {} answered; active version now {}",
        s.v2.submitted,
        s.v2.predictions.len(),
        s.snapshot
            .gauge("serve.registry.active_version")
            .unwrap_or(-1.0),
    );
    let agree =
        s.v1.predictions
            .iter()
            .zip(&s.v2.predictions)
            .filter(|(a, b)| a.class == b.class)
            .count();
    println!(
        "v1 and v2 agree on {}/{} windows",
        agree,
        s.v1.predictions.len()
    );

    println!("\n-- overloaded replay: 0.5 req/s admission per tenant, Shed policy --");
    println!(
        "{} requests: {} answered, {} shed (queue stayed bounded)",
        s.overload.submitted,
        s.overload.predictions.len(),
        s.overload.shed,
    );
    for k in [
        "serve.batch_size",
        "serve.queue_wait_us.p50",
        "serve.queue_wait_us.p95",
        "serve.infer_us.p99",
    ] {
        if let Some(g) = s.snapshot.gauge(k) {
            println!("  main engine {k} = {g:.1}");
        } else if let Some(st) = s.snapshot.stats(k) {
            println!("  main engine {k} mean = {:.2}", st.mean());
        }
    }

    // Gate 1: the accounting invariant on both engines.
    if let Err(why) = s.check_accounting() {
        eprintln!("FAIL: {why}");
        std::process::exit(1);
    }

    // Gate 2: byte-identical serving telemetry at a different shard
    // count (lanes are shard-count-blind).
    let other = run_serve_session(4)?;
    if other.snapshot.to_json() != s.snapshot.to_json()
        || other.overload_snapshot.to_json() != s.overload_snapshot.to_json()
    {
        eprintln!("FAIL: serving telemetry diverged between 2 and 4 shards");
        std::process::exit(1);
    }
    println!("\nreplay: serving telemetry byte-identical at 2/4 shards");
    Ok(())
}
