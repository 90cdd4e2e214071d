#!/usr/bin/env python3
"""Build and run one workload of the layered DQMC benchmark.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: chain_large, serve_mixed, fleet_campaign.

The script builds the benchmark package (perfbench/Cargo.toml, which
depends on the repository's crates by path) in release mode, runs it, and
passes its output through. The last line of standard output is the run's
JSON result. With --trace 1 the Chrome trace-event file is written under
the build directory, at perfbench-traces/<workload>-seed<n>.json.

The build directory is $CARGO_TARGET_DIR when set, else perfbench/target.
Scratch files (result caches, fleet shard files) live under it in
perfbench-work/ and are removed when the run ends.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("chain_large", "serve_mixed", "fleet_campaign")
# A run measures for --seconds plus its set-up and probes; this caps it.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"built binary not found at {binary}")

    workdir = os.path.join(target, "perfbench-work", f"{args.workload}-{os.getpid()}")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if args.trace:
        trace_dir = os.path.join(target, "perfbench-traces")
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]

    started = time.monotonic()
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    shutil.rmtree(workdir, ignore_errors=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(l for l in lines if not l.startswith("{")) + "\n")
        fail(f"benchmark exited with {run.returncode} after {time.monotonic() - started:.1f} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
