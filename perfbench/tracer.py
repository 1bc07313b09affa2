"""In-memory span tracer for the benchmark's traced mode.

Spans are recorded from the benchmark's side of each layer boundary: the
tracer swaps wrappers in for class methods and for the module bindings
through which one layer calls another, and puts the originals back on
`uninstall`.  Nothing is patched outside traced mode.

A span is `(span_id, parent_id, job, name, start, end)`; spans of one job
share the job name.  A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

SPAN_FIELDS = ("span_id", "parent_id", "job", "name", "start", "end")


class Tracer:
    def __init__(self):
        self.spans: List[Tuple] = []
        self.counters: Counter = Counter()
        self.missing: List[str] = []  # bindings absent from the program
        self.job: Optional[str] = None
        self._stack: List[int] = []
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []
        # (assertion, interpretation, thread) keys evaluated in this job
        self._eval_keys: set = set()
        # AssertionEnv id -> thread; the envs are kept alive so that an id
        # cannot be reused within a job
        self._env_threads: Dict[int, int] = {}
        self._envs: list = []

    # -- spans

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, self.job, name, start, end))

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        sid = self._open()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, name, start)

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def begin_job(self, job: str) -> None:
        self.job = job

    def end_job(self) -> None:
        self.counters["logic.AssertionEnv.eval.distinct"] += len(
            self._eval_keys)
        self._eval_keys.clear()
        self._env_threads.clear()
        self._envs.clear()
        self.job = None

    # -- wrappers

    def _counted(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _eval(self, fn):
        keys, threads = self._eval_keys, self._env_threads

        @functools.wraps(fn)
        def wrapper(env, assn, interp, *rest):
            keys.add((assn, tuple(sorted(interp.items())),
                      threads.get(id(env))))
            return self.call("logic.AssertionEnv.eval", fn, env, assn, interp,
                             *rest)
        return wrapper

    def _assertion_env(self, fn):
        @functools.wraps(fn)
        def wrapper(model, t, *rest):
            env = fn(model, t, *rest)
            self._env_threads[id(env)] = t
            self._envs.append(env)
            return env
        return wrapper

    def _obligations(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = "shared" if kwargs.get("include_shared", True) else \
                "instance"
            return self.call(f"linearizability.check_obligations.{kind}", fn,
                             *args, **kwargs)
        return wrapper

    def _dcsl_frames(self, fn):
        counters = self.counters

        def counted(frames):
            for r in frames:
                counters["monoid_dcsl.frames.count"] += 1
                yield r

        @functools.wraps(fn)
        def wrapper(monoid, t, alpha, p, q, frames):
            return self.call("views_core.check_action_with_frames", fn,
                             monoid, t, alpha, p, q, counted(frames))
        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(label)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        from relviews import (cli, linearizability, logic, monoid_dcsl,
                              monoid_rgsep)

        def span(name):
            return functools.partial(self.timed, name)

        rgsep = monoid_rgsep.RgsepMonoid
        table = [
            (cli, "load_model", span("model_io.load_model")),
            (cli, "load_outlines", span("model_io.load_outlines")),
            (cli, "check_linearizable",
             span("linearizability.check_linearizable")),
            (cli, "check_obligations", self._obligations),
            (linearizability, "state_step", span("command_lang.state_step")),
            (linearizability, "check_proof", span("logic.check_proof")),
            (linearizability.LibraryModel, "assertion_env",
             self._assertion_env),
            (logic.AssertionEnv, "eval", self._eval),
            *((rgsep, name, span(f"monoid_rgsep.{name}"))
              for name in ("eval_vassn_rg", "denote_action", "check_action",
                           "repart_implies")),
            (monoid_dcsl.DcslMonoid, "frames", span("monoid_dcsl.frames")),
            (monoid_dcsl, "check_action_with_frames", self._dcsl_frames),
            (monoid_rgsep, "check_action_with_frames",
             span("views_core.check_action_with_frames")),
            *((mod, "compose_worlds", functools.partial(
                self._counted, "state_model.compose_worlds.calls"))
              for mod in (monoid_dcsl, monoid_rgsep)),
        ]
        for owner, attr, make in table:
            self._patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        children = defaultdict(list)
        for sid, parent, _job, _name, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, _parent, _job, name, start, end in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - covered(children.get(sid, ()),
                                                    start, end)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
