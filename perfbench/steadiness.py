#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one checkout, judged against the
bounds recorded in BENCHMARK.json.

    python3 perfbench/steadiness.py

Each set makes ten untraced runs of every workload in BENCHMARK.json, each
with its own seed and `run_seconds` long.  Per end-to-end metric the spread
of a set is (q3 - q1) / median of its values, with the quartiles of
`statistics.quantiles(values, n=4)`.  The check fails when any spread
exceeds the metric's bound, when the second set's median is worse than the
first set's by more than the bound, or when a run reports wrong verdicts.  Spreads above a third of the
bound are marked `!`.  The table also goes to perfbench/out/steadiness.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10
SETS = 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, spec["command"][1]),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    # values[set][workload][metric] -> list of run values
    values: List[Dict[str, Dict[str, List[float]]]] = []
    problems: List[str] = []
    for s in range(SETS):
        values.append({})
        for w in workloads:
            per_metric = values[s].setdefault(w, {m: [] for m in metrics})
            for i in range(RUNS):
                seed = 1000 * (s + 1) + i
                res = one_run(spec, w, seed, seconds)
                if not res["correct"] or res["failed"]:
                    problems.append(f"{w} seed {seed}: {res['failed']} of "
                                    f"{res['attempted']} jobs failed")
                for m in metrics:
                    per_metric[m].append(res["metrics"][m]["value"])
                print(f"set {s} {w} seed {seed}: " + " ".join(
                    f"{m}={res['metrics'][m]['value']:.4g}" for m in metrics),
                    file=sys.stderr, flush=True)

    report = []
    print(f"{'workload':<13} {'metric':<19} {'bound':>5}  "
          + "  ".join(f"{'median' + str(s):>10} {'spread' + str(s):>8}"
                      for s in range(SETS)) + "  worse_by")
    for w in workloads:
        for m, meta in metrics.items():
            bound = meta["bound"]
            medians = [statistics.median(values[s][w][m])
                       for s in range(SETS)]
            spreads = [spread(values[s][w][m]) for s in range(SETS)]
            drift = max((worse_by(medians[0], med, meta["better"])
                         for med in medians[1:]), default=0.0)
            for s, sp in enumerate(spreads):
                if sp > bound:
                    problems.append(f"{w} {m}: set {s} spread {sp:.3f} "
                                    f"exceeds bound {bound}")
            if drift > bound:
                problems.append(f"{w} {m}: later median worse by "
                                f"{drift:.3f}, bound {bound}")
            flag = "!" if any(sp > bound / 3 for sp in spreads) else " "
            print(f"{w:<13} {m:<19} {bound:>5}  " + "  ".join(
                f"{med:>10.4g} {sp:>8.4f}" for med, sp in zip(medians,
                                                              spreads))
                + f"  {drift:>+8.4f} {flag}")
            report.append({"workload": w, "metric": m, "bound": bound,
                           "medians": medians, "spreads": spreads,
                           "worse_by": drift, "values": [
                               values[s][w][m] for s in range(SETS)]})
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness.json"), "w") as fh:
        json.dump({"runs": RUNS, "sets": SETS,
                   "seconds": seconds, "report": report,
                   "problems": problems}, fh, indent=1)
    for line in problems:
        print(f"FAIL {line}")
    print("steady" if not problems else "not steady")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
