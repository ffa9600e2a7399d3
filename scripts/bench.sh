#!/usr/bin/env bash
# Reproduce BENCH_parallel.json, BENCH_serve.json, BENCH_sim.json,
# BENCH_control.json, and BENCH_anomaly.json: build in release mode,
# run the fault-injection smoke sweep, the online-serving loop, the
# simulator-core differential replay harness (including the parallel
# shard sweep), and the anomaly-detection differential harness (all
# replay-determinism gates), then the parallel execution bench at
# 1/2/N threads, the serving-throughput bench, the simulator-core
# scaling bench, the closed-loop control bench, and the anomaly-scale
# bench, leaving the JSON reports at the repository root.
#
# Usage:
#   scripts/bench.sh            # full run (5 samples per point, 512^3 matmul)
#   scripts/bench.sh --smoke    # quick run (2 samples, 192^3 matmul)
#
# Environment:
#   QI_BENCH_THREADS=1,2,8   thread counts to sweep (parallel bench)
#   QI_SERVE_SHARDS=1,2,4,8  shard counts for the serving sweep
#   QI_BENCH_OUT=path.json   where to write the parallel report
#   QI_SERVE_OUT=path.json   where to write the serving report
#   QI_SIM_OUT=path.json     where to write the simulator-scaling report
#   QI_CONTROL_OUT=path.json where to write the closed-loop report
#   QI_ANOMALY_OUT=path.json where to write the anomaly report
#   QI_SKIP_FAULT_SWEEP=1    skip the fault smoke sweep
#   QI_SKIP_SERVE=1          skip the serve-loop gate + serving bench
#   QI_SKIP_SIM=1            skip the sim-equivalence harness + scaling bench
#   QI_SKIP_CONTROL=1        skip the control-determinism harness + the
#                            closed-loop bench
#   QI_SKIP_ANOMALY=1        skip the anomaly differential harness + the
#                            anomaly-scale bench
#   QI_SKIP_PARSIM=1         skip the parallel-simulator shard sweep (both
#                            the sharded replay tests and the bench curve)
#
#   Timing-gate waivers — each runs its bench but records the waiver in
#   the JSON; determinism/replay gates are NEVER waived:
#   QI_SKIP_SERVE_GATE=1     waive the serving throughput gate
#   QI_SKIP_P95_GATE=1       waive the serving p95 regression gate
#                            (re-baselining on different hardware)
#   QI_SKIP_SIM_GATE=1       waive the scaling bench's 32-vs-4-OSS
#                            events/s gate
#   QI_SKIP_PARSIM_GATE=1    waive the sharded 10%-overhead-at-1-thread
#                            gate (shard-count determinism still asserted)
#   QI_SKIP_CONTROL_GATE=1   waive the mitigated<=unmitigated /
#                            guided-beats-uniform gate
#   QI_SKIP_ANOMALY_GATE=1   waive the >=30%-ingest-saved / zero-drift gate
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
    export QI_SMOKE=1
    # Wall-clock gates are pure noise at smoke iteration counts (and on
    # the 1-CPU or loaded machines smoke runs target); determinism gates
    # stay armed regardless.
    export QI_SKIP_SIM_GATE=1 QI_SKIP_PARSIM_GATE=1
fi

# One gated report stage. Skipped wholesale when the QI_SKIP_* variable
# named by $1 is 1; otherwise runs each `--test` determinism harness in
# release mode, then the named qi-bench bench with QI_BENCH_OUT pointed
# at the per-report override named by $2 (or scrubbed, so the bench
# falls back to its default report path — QI_BENCH_OUT itself names the
# *parallel* report and must not leak into the other benches).
#
#   stage SKIP_VAR OUT_VAR BENCH [--test NAME]...
stage() {
    local skip_var="$1" out_var="$2" bench="$3"
    shift 3
    if [[ "${!skip_var:-}" == "1" ]]; then
        return 0
    fi
    while [[ $# -gt 0 ]]; do
        case "$1" in
        --test)
            cargo test --release -q --test "$2"
            shift 2
            ;;
        *)
            echo "stage: unknown argument $1" >&2
            return 1
            ;;
        esac
    done
    if [[ -n "${!out_var:-}" ]]; then
        QI_BENCH_OUT="${!out_var}" cargo bench -p qi-bench --bench "$bench"
    else
        env -u QI_BENCH_OUT cargo bench -p qi-bench --bench "$bench"
    fi
}

# Hygiene gate: benchmark numbers are only worth recording from a tree
# that passes the same formatting bar CI holds the code to.
cargo fmt --check

# Fault-injection smoke sweep: exercises every fault event type plus the
# retry path and exits non-zero if a faulted replay is not byte-identical.
if [[ "${QI_SKIP_FAULT_SWEEP:-}" != "1" ]]; then
    cargo run --release --example fault_sweep
fi

# Online-serving gate: trains, serves a faulted interfered run through
# the micro-batching engine with a mid-stream hot swap, then an
# overloaded Shed replay; exits non-zero if the accounting invariant
# breaks or the serving telemetry differs across shard counts.
if [[ "${QI_SKIP_SERVE:-}" != "1" ]]; then
    cargo run --release --example serve_loop
fi

cargo bench -p qi-bench --bench parallel

# Simulator core (BENCH_sim.json): the differential replay harness
# (healthy + faulted + sharded + controlled, 1/2/8 threads, 1/2/4
# shards, byte-identical traces and feature blocks), then the scaling
# bench: end-to-end events/sec at 4..32 OSS plus the parallel shard
# sweep at sim_shards 1/2/4/8, stamped with hardware threads, sample
# count and git revision. The bench enforces best-sample events/s at
# 32 OSS >= 0.8x the 4-OSS rate (QI_SKIP_SIM_GATE) and sharded overhead
# <= 10% at 1 thread (QI_SKIP_PARSIM_GATE); the shard-count determinism
# assertions are never waived.
stage QI_SKIP_SIM QI_SIM_OUT sim_scale --test sim_equivalence

# Closed-loop control (BENCH_control.json): the controlled-replay
# determinism harness (guided + uniform controllers, healthy + faulted,
# byte-identical traces, directive sequences, and telemetry across
# 1/2/8 threads and reruns, plus the hysteresis-gate property test),
# then the closed-loop bench: guided vs uniform throttling across three
# interference regimes with a hard gate — in every regime the guided
# run must not be slower than the unmitigated run, must emit
# directives, and must cost less background throughput than uniform
# throttling (QI_SKIP_CONTROL_GATE=1 to waive).
stage QI_SKIP_CONTROL QI_CONTROL_OUT control_loop --test control_determinism

# Anomaly detection & adaptive monitoring (BENCH_anomaly.json): the
# differential harness (scorer bit-determinism across reruns and
# 1/2/8-thread pools, unbounded-sampler pass-through equivalence,
# ring-store vs unbounded read-back equivalence, faulted-above-healthy
# p95 ROC separation), then the scale bench: isolation-forest scoring
# throughput, sampler ingest reduction, and the RLE ring's memory
# proxy. The bench enforces >=30% ingest saved at zero window-boundary
# counter drift (QI_SKIP_ANOMALY_GATE=1 to waive).
stage QI_SKIP_ANOMALY QI_ANOMALY_OUT anomaly_scale --test anomaly_detection

# Serving throughput (BENCH_serve.json): batch {1,8,32} on a one-shard
# engine, plus the shard sweep (QI_SERVE_SHARDS, default 1,2,4,8)
# driving every shard from its own rayon worker. Classes are asserted
# identical across every batch size and shard count (never waived),
# batch 32 must beat batch 1, each
# row's p95 is gated to +10% of the recorded baseline
# (QI_SKIP_P95_GATE=1 to re-baseline), and the throughput gate requires
# >= 1M aggregate preds/s on multi-core hosts — auto-degraded on a
# single hardware thread, with the waiver reason recorded in the JSON's
# "gate" object. Smoke runs waive the throughput gate automatically
# (QI_SKIP_SERVE_GATE=1 forces it).
stage QI_SKIP_SERVE QI_SERVE_OUT serve_throughput
