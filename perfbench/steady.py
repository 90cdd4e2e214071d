#!/usr/bin/env python3
"""Steadiness check for the layered DQMC benchmark.

Usage (from the root of the repository):

    python3 perfbench/steady.py [--runs K] [--seed0 N] [--seconds S]
                                [--workloads a,b,...] [--traced]

Runs each workload K times (default 10) through perfbench/run.py, with
seeds seed0, seed0+1, ..., and prints for every end-to-end metric its
median, first and third quartile (Python's statistics.quantiles, n=4) and
the quartile spread as a share of the median, next to the same figures
for host.ref_gflops, the host's own compute rate. An end-to-end metric
whose spread exceeds its bound in BENCHMARK.json is flagged. It also checks that every run was
correct and that failed/attempted is the same share in every run.

With --traced it also makes one traced run per workload and reports the
tracing overhead: the traced run's main-operation median against the
untraced runs' median of the same operation.

Exits 1 if any run failed or was incorrect, or any spread is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr[-2000:])
        return None, {}
    notes = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "#":
            try:
                notes[parts[1]] = float(parts[2])
            except ValueError:
                pass
    return json.loads(lines[-1]), notes


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    bad = False
    for w in workloads:
        results, hostref, mainop, shares = [], [], [], set()
        for i in range(args.runs):
            res, notes = run_once(w, args.seed0 + i, seconds, 0)
            if res is None or not res["correct"]:
                print(f"{w}: run with seed {args.seed0 + i} failed or was incorrect")
                bad = True
                continue
            results.append(res)
            shares.add((res["failed"], res["attempted"]) if res["failed"] else 0)
            hostref.append(notes.get("host.ref_gflops", float("nan")))
            if "main_op_ms.p50" in notes:
                mainop.append(notes["main_op_ms.p50"])
        if not results:
            continue
        print(f"\n== {w}: {len(results)} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
              f"{seconds} s each")
        fail_shares = {s if s == 0 else s[0] / s[1] for s in shares}
        print(f"   failed/attempted shares seen: {sorted(fail_shares)}")
        if len(fail_shares) > 1:
            bad = True
        print(f"   {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        rows = [(name, [r["metrics"][name]["value"] for r in results], bounds.get(name))
                for name in results[0]["metrics"]]
        rows.append(("host.ref_gflops", hostref, None))
        for name, vals, bound in rows:
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if bound is not None and spread > bound:
                flag = "  <-- above bound"
                bad = True
            elif bound is not None and spread > bound / 3:
                flag = "  (above a third of its bound)"
            print(f"   {name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        if args.traced:
            res, notes = run_once(w, args.seed0, seconds, 1)
            if res is None or not res["correct"]:
                print(f"   traced run failed or was incorrect")
                bad = True
            elif mainop:
                traced = res["metrics"]["trace.main_op_ms.p50"]["value"]
                base = statistics.median(mainop)
                print(f"   tracing overhead: main op p50 {traced:.4g} ms traced vs {base:.4g} ms "
                      f"untraced ({100 * (traced / base - 1):+.2f} %); span recording "
                      f"{res['metrics']['trace.overhead_pct']['value']:.4f} % of the run")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
