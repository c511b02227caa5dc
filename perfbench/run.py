#!/usr/bin/env python3
"""Builds and runs the HipHop benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload concert --seed 7 --seconds 30 --trace 0

runs one workload in its own process and passes its output through: the
last line is the JSON result. Without --workload it runs concert, dense
and durable in turn, each in its own process, and prints every metric.
Run it from the root of the repository; the build goes to
$CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ("concert", "dense", "durable")
# A run must end within 180 s; the timed phase is at most 60 s of it.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary from source; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with code {done.returncode}")
    return os.path.join(target, "release", "hiphop-perfbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_rev():
    """The git revision, or a hash of the sources where there is no git."""
    rev = command_output(["git", "rev-parse", "HEAD"])
    if rev:
        return rev
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def meta(workload, seed):
    return {
        "workload": workload,
        "seed": seed,
        "rev": source_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
    }


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3, []
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be from 1 to 60")

    binary = build()
    if args.workload:
        print("meta " + json.dumps(meta(args.workload, args.seed)))
        code, lines = run_one(binary, args.workload, args.seed, args.seconds,
                              args.trace)
        if code == 3:
            return 3
        print("\n".join(lines))
        return code

    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        print("meta " + json.dumps(meta(workload, args.seed)))
        code, lines = run_one(binary, workload, args.seed, args.seconds,
                              args.trace)
        for line in lines[:-1]:
            print("   " + line)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
