#!/usr/bin/env python3
"""Steadiness check for the metersim benchmark.

    python3 perfbench/steady.py --runs 10 --sets 2

Runs perfbench/run.py --trace 0 in fresh processes, one at a time: `sets`
sets of `runs` runs of every workload, each run with its own seed, the sets
one after the other.  For every workload and end-to-end metric it prints
each set's median and quartiles, the spread (quartile distance over the
median) and the change of the median from the first set to the last.  It
fails when

  * a run is not correct or exits non-zero,
  * a metric's spread in a set exceeds a tenth, or the metric's bound
    where that is smaller,
  * a median gets worse than the first set's by more than the bound,
  * the share of failed operations differs between sets,
  * the counts and byte sizes of TRACE_RUNS traced runs on one seed differ.

The raw results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TENTH = 0.10
TRACE_RUNS = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    result.update(workload=workload, seed=seed, exit=proc.returncode,
                  note=lines[-2] if len(lines) > 1 else "", elapsed=time.time() - started)
    if proc.returncode != 0:
        result["stderr"] = proc.stderr[-2000:]
    print(f"{workload} seed={seed} exit={proc.returncode} correct={result.get('correct')} "
          f"{result['elapsed']:.0f}s {result['note']}", file=sys.stderr, flush=True)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    runs: list[list[dict]] = []
    for s in range(args.sets):
        runs.append([])
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for workload in workloads:
                runs[s].append(one_run(workload, seed, spec["run_seconds"], 0))

    failures: list[str] = []
    for r in (r for one_set in runs for r in one_set):
        if r["exit"] != 0 or not r.get("correct"):
            failures.append(f"{r['workload']} seed {r['seed']}: exit {r['exit']}, "
                            f"correct {r.get('correct')}")
    ok = [[r for r in one_set if r.get("correct")] for one_set in runs]

    print(f"{'workload':17} {'metric':18} set {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'change':>7} bound")
    for workload in workloads:
        shares = set()
        for one_set in ok:
            mine = [r for r in one_set if r["workload"] == workload]
            shares.add((sum(r["failed"] for r in mine), sum(r["attempted"] for r in mine)))
        if len({f / a if a else None for f, a in shares}) > 1:
            failures.append(f"{workload}: failed share differs between sets: {sorted(shares)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for s, one_set in enumerate(ok):
                values = [r["metrics"][name]["value"] for r in one_set
                          if r["workload"] == workload]
                if len(values) < 2:
                    failures.append(f"{workload} {name}: fewer than 2 runs in set {s + 1}")
                    continue
                q1, median, q3, width = spread(values)
                first = median if first is None else first
                worse = (median - first) / first
                if metric["better"] == "higher":
                    worse = -worse
                print(f"{workload:17} {name:18} {s + 1:3} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{width:7.3f} {worse:+7.3f} {bound}")
                if width > min(TENTH, bound):
                    failures.append(f"{workload} {name}: spread {width:.3f} in set {s + 1}")
                if worse > bound:
                    failures.append(f"{workload} {name}: median worse by {worse:.3f} in set {s + 1}")

    # a traced run traces a round of every workload, whichever is named
    traced = [one_run(workloads[0], args.first_seed, spec["run_seconds"], 1)
              for _ in range(TRACE_RUNS)]
    for r in traced:
        if r["exit"] != 0 or not r.get("correct"):
            failures.append(f"traced run seed {r['seed']}: exit {r['exit']}, "
                            f"correct {r.get('correct')}")
    counts = [{k: v["value"] for k, v in r.get("metrics", {}).items()
               if v["unit"] in ("count", "bytes")} for r in traced]
    print(f"traced counts at seed {args.first_seed}: {counts[0]}")
    if not counts[0] or any(c != counts[0] for c in counts):
        failures.append(f"traced counts differ between runs: {counts}")

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out / f"steady_{stamp}.json").write_text(
        json.dumps({"sets": runs, "traced": traced, "failures": failures}, indent=1) + "\n")
    for line in failures:
        print(f"FAIL {line}")
    print("steady" if not failures else f"not steady: {len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
