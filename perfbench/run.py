#!/usr/bin/env python3
"""Closed-loop benchmark of the relviews checkers.

One client issues the jobs of a workload through the public front end,
`relviews.cli.main([..., "--format", "machine", "--jobs", "1"])`, in this
process; the next job starts only when the previous verdict is back, and
every verdict is checked against the expectation in workloads.py.

    python3 perfbench/run.py --workload lin-explore --seed 1 --seconds 20 --trace 0

`--seconds` is turned into a fixed number of rounds (each round runs every
job of the workload once, in a seed-shuffled order) from the round time
recorded in workloads.py.  With `--trace 0` the run reports the end-to-end
metrics; with `--trace 1` it runs some untraced rounds, then one traced
round, and reports per-layer metrics of that round plus the tracing
overhead.  Times are scaled to the reference machine speed (speed.py); the
raw figures are in `info`.  The last line of standard output is the JSON
result; the line before it carries details (`info`).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import reference_loop, scale  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BENCH_DIR,
    REPO_ROOT,
    WORKLOADS,
    Job,
    Workload,
    job_stream,
    rounds_for,
    write_generated_models,
)

END_TO_END_UNITS = {
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "verdict_pass_ratio": "ratio",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "model_io.load_model.calls": "count",
    "model_io.load_model.s": "s",
    "model_io.load_outlines.calls": "count",
    "linearizability.concrete_histories.s": "s",
    "linearizability.abstract_histories.s": "s",
    "linearizability.configurations": "count",
    "linearizability.concrete_histories.count": "count",
    "linearizability.abstract_histories.count": "count",
    "linearizability.check_obligations.shared_s": "s",
    "command_lang.state_step.calls": "count",
    "command_lang.state_step.self_s": "s",
    "logic.check_proof.calls": "count",
    "logic.check_proof.self_s": "s",
    "logic.AssertionEnv.eval.calls": "count",
    "logic.AssertionEnv.eval.distinct": "count",
    "logic.AssertionEnv.eval.useful_ratio": "ratio",
    "logic.AssertionEnv.eval.self_s": "s",
    "monoid_rgsep.eval_vassn_rg.self_s": "s",
    "monoid_rgsep.denote_action.calls": "count",
    "monoid_rgsep.denote_action.s": "s",
    "monoid_rgsep.check_action.calls": "count",
    "monoid_rgsep.check_action.self_s": "s",
    "monoid_rgsep.repart_implies.calls": "count",
    "views_core.check_action_with_frames.calls": "count",
    "views_core.check_action_with_frames.self_s": "s",
    "monoid_dcsl.frames.count": "count",
    "monoid_dcsl.frames.s": "s",
    "state_model.compose_worlds.calls": "count",
    "bench.untraced_jobs_per_s": "1/s",
    "bench.traced_jobs_per_s": "1/s",
    "bench.trace_overhead_ratio": "ratio",
}

SETUP_PROBES = 7


@dataclass
class JobResult:
    job: Job
    elapsed: float
    error: Optional[str]
    doc: Optional[dict]  # the job's parsed machine-format output


def load_program(root: str):
    """Import `relviews.cli` from the checkout's own sources."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "relviews", "cli.py")):
        raise SystemExit(f"error: no relviews sources under {src}")
    sys.path.insert(0, src)
    import relviews.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported relviews from {cli.__file__}, "
                         f"not from {src}")
    return cli


def run_job(cli, job: Job, root: str,
            tracer: Optional[Tracer] = None) -> JobResult:
    out, err = io.StringIO(), io.StringIO()
    main = cli.main if tracer is None else tracer.timed("cli.main", cli.main)
    if tracer is not None:
        tracer.begin_job(job.name)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(job.argv(root))
        elapsed = time.perf_counter() - start
        error = job.check(code, out.getvalue())
    except (Exception, SystemExit) as exc:  # a job that raises has failed
        elapsed = time.perf_counter() - start
        error = f"raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.end_job()
    if error and err.getvalue():
        error += f" (stderr: {err.getvalue().strip()[:300]})"
    doc = None
    lines = out.getvalue().strip().splitlines()
    if lines:
        with contextlib.suppress(json.JSONDecodeError):
            doc = json.loads(lines[-1])
    return JobResult(job, elapsed, error, doc)


@dataclass
class Loop:
    """The outcome of a closed loop: every job's result, round by round, and
    the reference loop timed before each job and after the last."""

    rounds: List[List[JobResult]]
    reference: List[float]

    @property
    def results(self) -> List[JobResult]:
        return [r for jobs in self.rounds for r in jobs]

    @property
    def scale(self) -> float:
        return scale(self.reference)

    def jobs_per_s(self) -> float:
        """Closed-loop throughput in reference seconds: the median over
        rounds of the jobs completed over the time spent in them."""
        return statistics.median(
            len(jobs) / sum(r.elapsed for r in jobs)
            for jobs in self.rounds) / self.scale


def run_rounds(cli, rounds: List[List[Job]], root: str,
               tracer: Optional[Tracer] = None) -> Loop:
    """The closed loop: every round, every job, in the given order."""
    loop = Loop([], [])
    for jobs in rounds:
        loop.rounds.append([])
        for job in jobs:
            loop.reference.append(reference_loop())
            loop.rounds[-1].append(run_job(cli, job, root, tracer))
    loop.reference.append(reference_loop())
    return loop


def job_medians(results: List[JobResult]) -> List[float]:
    """Each job's median time."""
    by_job = defaultdict(list)
    for r in results:
        by_job[r.job.name].append(r.elapsed)
    return [statistics.median(v) for v in by_job.values()]


def job_p50(results: List[JobResult]) -> float:
    """Median over the workload's jobs of each job's median time; unlike the
    median of the pooled times it does not fall in the gap between two
    jobs of different cost."""
    return statistics.median(job_medians(results))


def tail(results: List[JobResult]) -> Tuple[float, Optional[float]]:
    """(value, percentile) at the highest percentile that still has at
    least ten samples beyond it.  With fewer than 21 samples that
    percentile lies at or below the median; the tail is then the median
    time of the slowest job, and the percentile is None."""
    xs = sorted(r.elapsed for r in results)
    n = len(xs)
    k = n - 11
    if k >= 0 and (k + 1) / n > 0.5:
        return xs[k], 100.0 * (k + 1) / n
    return max(job_medians(results)), None


def measure_setup(workload: Workload, root: str) -> List[dict]:
    """Fresh-interpreter seconds to import relviews.cli and load every model
    and outline of the workload once, with the reference-loop times of the
    same process; one sample per probe process."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, probe, workload.name], cwd=root,
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def failures(results: List[JobResult]) -> List[str]:
    return [f"{r.job.name}: {r.error}" for r in results if r.error]


def end_to_end(cli, workload: Workload, seed: int, seconds: float,
               root: str) -> Tuple[dict, dict, List[JobResult]]:
    setup = measure_setup(workload, root)
    rounds = job_stream(workload, seed, rounds_for(workload, seconds))
    loop = run_rounds(cli, rounds, root)
    results, k = loop.results, loop.scale
    failed = sum(1 for r in results if r.error)
    tail_s, tail_pct = tail(results)
    metrics = {
        "job_p50_s": job_p50(results) * k,
        "job_tail_s": tail_s * k,
        "jobs_per_s": loop.jobs_per_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "verdict_pass_ratio": (len(results) - failed) / len(results),
        "setup_s": statistics.median(
            p["setup_s"] * scale(p["reference_s"]) for p in setup),
    }
    info = {
        "rounds": len(results) // len(workload.jobs),
        "samples": len(results),
        "job_tail_percentile": tail_pct,
        "verdict_fail_ratio": failed / len(results),
        "speed_scale": k,
        "raw_job_p50_s": job_p50(results),
        "raw_job_tail_s": tail_s,
        "raw_jobs_per_s": loop.jobs_per_s() * k,
        "raw_setup_s": statistics.median(p["setup_s"] for p in setup),
    }
    return metrics, info, results


def per_layer(cli, workload: Workload, seed: int, seconds: float,
              root: str) -> Tuple[dict, dict, List[JobResult]]:
    from relviews.linearizability import abstract_histories, concrete_histories
    from relviews.model_io import load_model

    n_untraced = max(1, rounds_for(workload, seconds) // 2)
    stream = job_stream(workload, seed, n_untraced + 1)
    untraced = run_rounds(cli, stream[:-1], root)

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(cli, stream[-1:], root, tracer)
    finally:
        tracer.uninstall()
    # The history generators are timed on their own, with the inner
    # wrappers removed, once per lin job of the traced round.
    for r in traced.results:
        if r.job.command == "check-lin":
            model = load_model(os.path.join(root, r.job.model))
            for name, fn in (("concrete_histories", concrete_histories),
                             ("abstract_histories", abstract_histories)):
                tracer.begin_job(r.job.name)
                tracer.call(f"linearizability.{name}", fn, model, r.job.bound)
                tracer.end_job()

    agg = tracer.aggregate()
    k = traced.scale
    stats: Counter = Counter()
    for r in traced.results:
        if r.job.command == "check-lin" and r.doc:
            stats.update(r.doc.get("stats", {}))
    counters = tracer.counters
    evals = agg["logic.AssertionEnv.eval"]["calls"]
    distinct = counters["logic.AssertionEnv.eval.distinct"]
    untraced_jps = untraced.jobs_per_s()
    traced_jps = traced.jobs_per_s()
    metrics = {
        "linearizability.configurations": stats["configurations"],
        "linearizability.concrete_histories.count": stats[
            "concrete_histories"],
        "linearizability.abstract_histories.count": stats[
            "abstract_histories"],
        "linearizability.check_obligations.shared_s": k * agg[
            "linearizability.check_obligations.shared"]["s"],
        "logic.AssertionEnv.eval.distinct": distinct,
        "logic.AssertionEnv.eval.useful_ratio": distinct / evals
        if evals else 0.0,
        "monoid_dcsl.frames.count": counters["monoid_dcsl.frames.count"],
        "state_model.compose_worlds.calls": counters[
            "state_model.compose_worlds.calls"],
        "bench.untraced_jobs_per_s": untraced_jps,
        "bench.traced_jobs_per_s": traced_jps,
        "bench.trace_overhead_ratio": untraced_jps / traced_jps,
    }
    # The rest are named <span>.<calls|s|self_s>; times in reference seconds.
    for name in PER_LAYER_UNITS:
        if name not in metrics:
            span, key = name.rsplit(".", 1)
            value = agg[span][key]
            metrics[name] = value if key == "calls" else value * k
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_file = os.path.join(out_dir,
                              f"trace-{workload.name}-seed{seed}.json")
    tracer.write(trace_file)
    info = {
        "untraced_rounds": len(untraced.results) // len(workload.jobs),
        "traced_jobs": [r.job.name for r in traced.results],
        "speed_scale": k,
        "spans": len(tracer.spans),
        "trace_file": os.path.relpath(trace_file, root),
        "useful_ratio_base": evals,
        "missing_bindings": tracer.missing,
    }
    return metrics, info, untraced.results + traced.results


def result_line(metrics: dict, units: Dict[str, str],
                results: List[JobResult]) -> dict:
    failed = sum(1 for r in results if r.error)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None, root: str = REPO_ROOT) -> int:
    args = parse_args(argv)
    cli = load_program(root)
    workload = WORKLOADS[args.workload]
    write_generated_models(root)
    if args.trace:
        metrics, info, results = per_layer(cli, workload, args.seed,
                                           args.seconds, root)
        units = PER_LAYER_UNITS
    else:
        metrics, info, results = end_to_end(cli, workload, args.seed,
                                            args.seconds, root)
        units = END_TO_END_UNITS
    info = {"workload": workload.name, "seed": args.seed,
            "trace": args.trace, **info, "failures": failures(results)}
    for line in info["failures"]:
        print(f"verdict failure: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result_line(metrics, units, results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
