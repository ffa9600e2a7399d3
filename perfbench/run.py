#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <closed_loop|model_fit> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with the same
arguments. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. Traced runs write their spans under
`<target dir>/perfbench/`. Exits non-zero, without a result, when the
build fails or the benchmark times out.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175

# Sources that determine the measured program, for the result stamp.
SOURCE_DIRS = ["crates", "vendor", "perfbench", "src"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock"]
SOURCE_EXTS = (".rs", ".toml", ".lock", ".py")


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n != "target")
            paths += [os.path.join(dirpath, f) for f in filenames if f.endswith(SOURCE_EXTS)]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + ["--trace-dir", os.path.join(target, "perfbench")]
    try:
        run = subprocess.run([exe] + args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
