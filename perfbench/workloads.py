"""The benchmark's workloads: a fixed job mix per workload, one hand-written
expectation per job, and the generated DCSL cell variants.

Only the standard library is used here, so the set-up probe can import this
module before it starts timing the import of `relviews`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
FIXTURES = os.path.join("src", "relviews", "fixtures")
GENERATED = os.path.join("perfbench", "generated")

EXIT_CODES = {"ok": 0, "violation": 1, "accepted": 0, "rejected": 1}


@dataclass(frozen=True)
class Expect:
    """What a job must print, and why that is the right answer."""

    outcome: str
    reason: str
    counterexample: Optional[Tuple[str, ...]] = None
    failure_contains: Optional[str] = None


@dataclass(frozen=True)
class Job:
    name: str
    command: str  # "check-lin" | "check-proof"
    model: str  # relative to the repository root
    expect: Expect
    outline: Optional[str] = None
    bound: Optional[int] = None
    fixture: Optional[str] = None  # shipped fixture whose expected.json applies

    def argv(self, root: str) -> List[str]:
        args = [self.command, os.path.join(root, self.model)]
        if self.outline is not None:
            args.append(os.path.join(root, self.outline))
        if self.bound is not None:
            args += ["--bound", str(self.bound)]
        return args + ["--format", "machine", "--jobs", "1"]

    def expected_verdict(self) -> str:
        return {
            "ok": f"no violation up to bound {self.bound}",
            "violation": "counterexample history found",
            "accepted": "proof accepted",
            "rejected": "proof rejected",
        }[self.expect.outcome]

    def check(self, exit_code: int, stdout: str) -> Optional[str]:
        """None when the job's output meets its expectation, else why not."""
        want_exit = EXIT_CODES[self.expect.outcome]
        if exit_code != want_exit:
            return f"exit code {exit_code}, expected {want_exit}"
        lines = stdout.strip().splitlines()
        if not lines:
            return "no output"
        try:
            doc = json.loads(lines[-1])
        except json.JSONDecodeError:
            return f"unparsable output {lines[-1][:200]!r}"
        if doc.get("verdict") != self.expected_verdict():
            return (f"verdict {doc.get('verdict')!r}, expected "
                    f"{self.expected_verdict()!r}")
        want_ce = ("\n".join(self.expect.counterexample)
                   if self.expect.counterexample else None)
        if doc.get("counterexample") != want_ce:
            return (f"counterexample {doc.get('counterexample')!r}, "
                    f"expected {want_ce!r}")
        first_failure = next(
            (l for l in str(doc.get("detail", "")).splitlines()
             if l.startswith("first failure:")), None)
        if self.expect.outcome == "rejected":
            if first_failure is None:
                return "rejected proof reports no first failure"
            if self.expect.failure_contains not in first_failure:
                return (f"first failure {first_failure!r} lacks "
                        f"{self.expect.failure_contains!r}")
        elif first_failure is not None:
            return f"unexpected failure {first_failure!r}"
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: Tuple[Job, ...]
    # Seconds one round (every job once) took when the benchmark was
    # defined, on a 2-core x86-64 container.  It converts --seconds into a
    # fixed number of rounds, so the commits of a comparison do the same
    # work and their percentiles are taken over the same sample count.
    round_s: float

    def models(self) -> List[Tuple[str, Optional[str]]]:
        """Distinct (model, outline) pairs the workload loads."""
        seen = []
        for job in self.jobs:
            pair = (job.model, job.outline)
            if pair not in seen:
                seen.append(pair)
        return seen


def _fx(name: str, filename: str) -> str:
    return os.path.join(FIXTURES, name, filename)


def _gen(name: str) -> str:
    return os.path.join(GENERATED, f"{name}.json")


NOLOCK_CE = ("t=1 call inc(1)", "t=1 ret inc(0)")
INITIAL_COVERAGE = "initial coverage"

# The DCSL cell variants: (name, number of values, number of threads).
DCSL_VARIANTS = (
    ("dcsl-cell-v5-t1", 5, 1),
    ("dcsl-cell-v3-t2", 3, 2),
)

JOBS: Dict[str, Job] = {job.name: job for job in (
    Job("lin/flat-combiner-valueret@12", "check-lin",
        _fx("flat-combiner-valueret", "model.json"), bound=12,
        fixture="flat-combiner-valueret",
        expect=Expect("ok", "the value-returning combiner hands each "
                            "caller a counter value some atomic run also "
                            "returns; expected.json gives ok at bound 12")),
    Job("lin/flat-combiner-nolock@12", "check-lin",
        _fx("flat-combiner-nolock", "model.json"), bound=12,
        fixture="flat-combiner-nolock",
        expect=Expect("violation", "without the lock a caller can read the "
                                   "counter before the combiner bumps it, so "
                                   "inc(1) returns 0, which no atomic run "
                                   "allows",
                      counterexample=NOLOCK_CE)),
    Job("lin/flat-combiner@16", "check-lin",
        _fx("flat-combiner", "model.json"), bound=16,
        fixture="flat-combiner",
        expect=Expect("ok", "the flat-combiner proof and obligations are "
                            "accepted, and by soundness that gives "
                            "inclusion at every bound, 16 included")),
    Job("lin/atomic-inc@20", "check-lin",
        _fx("atomic-inc", "model.json"), bound=20,
        fixture="atomic-inc",
        expect=Expect("ok", "the atomic-inc proof is accepted, so inclusion "
                            "holds at every bound, 20 included")),
    Job("proof/flat-combiner", "check-proof",
        _fx("flat-combiner", "model.json"),
        outline=_fx("flat-combiner", "outline.json"), fixture="flat-combiner",
        expect=Expect("accepted", "the combiner's helping is justified by "
                                  "the shared todo-token transfer actions "
                                  "in its guarantee")),
    Job("proof/flat-combiner-noaction4", "check-proof",
        _fx("flat-combiner-noaction4", "model.json"),
        outline=_fx("flat-combiner-noaction4", "outline.json"),
        fixture="flat-combiner-noaction4",
        expect=Expect("rejected", "the helping transfer is missing from the "
                                  "guarantee, so the res[i] := k "
                                  "linearization point is not a guarantee "
                                  "step",
                      failure_contains="store(Read(loc='res[")),
    Job("proof/atomic-inc", "check-proof",
        _fx("atomic-inc", "model.json"),
        outline=_fx("atomic-inc", "outline.json"), fixture="atomic-inc",
        expect=Expect("accepted", "the inc_atomic primitive is the "
                                  "linearization point and the incr action "
                                  "covers the other thread's increments")),
    Job("proof/dcsl-cell-v5-t1", "check-proof",
        _gen("dcsl-cell-v5-t1"), outline=_fx("dcsl-cell", "outline.json"),
        expect=Expect("accepted", "the store-then-assume outline of "
                                  "dcsl-cell never looks at the value "
                                  "domain, so widening it to 0..4 keeps "
                                  "the proof")),
    Job("proof/dcsl-cell-v3-t2", "check-proof",
        _gen("dcsl-cell-v3-t2"), outline=_fx("dcsl-cell", "outline.json"),
        expect=Expect("rejected", "each thread's precondition owns cell x, "
                                  "so the two preconditions do not compose "
                                  "disjointly over the initial state",
                      failure_contains=INITIAL_COVERAGE)),
    Job("proof/dcsl-helping", "check-proof",
        _fx("dcsl-helping", "model.json"),
        outline=_fx("dcsl-helping", "outline.json"), fixture="dcsl-helping",
        expect=Expect("rejected", "both threads' preconditions claim thread "
                                  "2's todo token, so their disjoint "
                                  "composition is undefined",
                      failure_contains=INITIAL_COVERAGE)),
)}


def _jobs(*names: str) -> Tuple[Job, ...]:
    return tuple(JOBS[n] for n in names)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "lin-explore",
        "check-lin where concrete exploration dominates and the history "
        "sets stay small",
        _jobs("lin/flat-combiner-valueret@12", "lin/flat-combiner-nolock@12"),
        round_s=1.3),
    Workload(
        "lin-histsets",
        "check-lin where building and comparing 10^5-history sets "
        "dominates time and memory",
        _jobs("lin/flat-combiner@16", "lin/atomic-inc@20"),
        round_s=3.7),
    Workload(
        "proof-rgsep",
        "check-proof under RGSep: assertion evaluation, stability and "
        "rely/guarantee materialization",
        _jobs("proof/flat-combiner", "proof/flat-combiner-noaction4",
              "proof/atomic-inc"),
        round_s=4.5),
    Workload(
        "proof-dcsl",
        "check-proof under DCSL: the frame-quantified action judgement "
        "and world composition",
        _jobs("proof/dcsl-cell-v5-t1", "proof/dcsl-cell-v3-t2",
              "proof/dcsl-helping"),
        round_s=3.1),
)}


def rounds_for(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.round_s))


def job_stream(workload: Workload, seed: int, rounds: int) -> List[List[Job]]:
    """`rounds` passes over the workload's jobs, each in a seed-shuffled
    order; the seed never changes which jobs run or how often."""
    rng = random.Random(seed)
    return [rng.sample(workload.jobs, len(workload.jobs))
            for _ in range(rounds)]


def dcsl_cell_variant(doc: dict, nvalues: int, nthreads: int) -> dict:
    """dcsl-cell with the value domain widened to 0..nvalues-1 and the
    thread count set to nthreads."""
    out = json.loads(json.dumps(doc))
    values = list(range(nvalues))
    out["name"] = f"dcsl-cell-v{nvalues}-t{nthreads}"
    dom = out["domains"]
    dom["values"] = values
    dom["modulus"] = nvalues
    dom["threads"] = nthreads
    dom["locations"]["x"] = values
    dom["abstract_locations"]["X"] = values
    out["methods"]["put"]["args"] = values
    return out


def write_generated_models(root: str = REPO_ROOT) -> None:
    """Write the DCSL cell variants under the benchmark's directory,
    leaving an up-to-date file untouched."""
    with open(os.path.join(root, _fx("dcsl-cell", "model.json"))) as fh:
        base = json.load(fh)
    os.makedirs(os.path.join(root, GENERATED), exist_ok=True)
    for name, nvalues, nthreads in DCSL_VARIANTS:
        text = json.dumps(dcsl_cell_variant(base, nvalues, nthreads),
                          indent=2) + "\n"
        path = os.path.join(root, _gen(name))
        try:
            with open(path) as fh:
                if fh.read() == text:
                    continue
        except FileNotFoundError:
            pass
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
