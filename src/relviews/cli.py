"""Command-line front end.

Three subcommands: `check-lin` runs the bounded history-inclusion check,
`check-proof` verifies per-method proof outlines plus the soundness
obligations, and `histories` prints a generated history set.  Exit codes
are the machine contract: 0 pass, 1 verdict failure (counterexample or
rejected proof), 2 model or usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .errors import FaultReachable, RelviewsError, UniverseTooLarge
from .linearizability import (
    check_linearizable,
    check_obligations,
    history_walk,
    render_history,
)
from .model_io import load_model, load_outlines

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2


class RunReport:
    def __init__(self, verdict: str, ok: bool,
                 counterexample: Optional[str] = None,
                 stats: Optional[Dict[str, int]] = None, timing: float = 0.0,
                 detail: str = ""):
        self.verdict = verdict
        self.ok = ok
        self.counterexample = counterexample
        self.stats = {} if stats is None else stats
        self.timing = timing
        self.detail = detail

    def render_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.detail:
            lines.append(self.detail)
        if self.counterexample:
            lines.append("counterexample:")
            lines.extend("  " + l for l in self.counterexample.splitlines())
        for key in sorted(self.stats):
            lines.append(f"stat {key}: {self.stats[key]}")
        lines.append(f"time: {self.timing:.2f}s")
        return "\n".join(lines)

    def render_machine(self) -> str:
        return json.dumps({
            "verdict": self.verdict,
            "ok": self.ok,
            "counterexample": self.counterexample,
            "stats": self.stats,
            "detail": self.detail,
        }, sort_keys=True)


def _count(minimum: int, source: str = ""):
    """An argparse type: an integer of at least `minimum`."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}{source}, got {text!r}")
        return n
    return parse


def _emit(report: RunReport, fmt: str) -> None:
    if fmt == "machine":
        print(report.render_machine())
    else:
        print(report.render_text())


def cmd_check_lin(args) -> int:
    t0 = time.perf_counter()
    model = load_model(args.model, args.cap)
    res = check_linearizable(model, args.bound)
    ce = render_history(res.counterexample) if res.counterexample else None
    report = RunReport(res.verdict(), res.ok, counterexample=ce,
                       stats=res.stats, timing=time.perf_counter() - t0)
    if res.ok and res.still_growing:
        report.detail = ("the concrete history set is still growing at this "
                         "bound; inclusion is proved up to the bound only")
    _emit(report, args.format)
    return EXIT_OK if res.ok else EXIT_VIOLATION


def cmd_check_proof(args) -> int:
    t0 = time.perf_counter()
    model = load_model(args.model, args.cap)
    load_outlines(args.outline, model)
    items = check_obligations(model)
    detail = "\n".join(it.line() for it in items)
    fail = next((it for it in items if not it.ok), None)
    if fail:
        detail += (f"\nfirst failure: {fail.obligation} {fail.subject}: "
                   f"{fail.detail}")
    out = RunReport("proof rejected" if fail else "proof accepted",
                    fail is None, stats={"checks": len(items)},
                    timing=time.perf_counter() - t0, detail=detail)
    _emit(out, args.format)
    return EXIT_VIOLATION if fail else EXIT_OK


def cmd_histories(args) -> int:
    t0 = time.perf_counter()
    model = load_model(args.model, args.cap)
    count, hs = history_walk(model, args.bound, args.side == "concrete")
    if count > model.dom.cap:
        raise UniverseTooLarge(None, model.dom.cap, "history set",
                               "histories")
    for i, h in enumerate(hs):
        if args.format == "machine":
            print(json.dumps([list(ev) for ev in h]))
        else:
            print(f"# history {i}")
            print(render_history(h))
    if args.format != "machine":
        print(f"{count} histories ({args.side}, bound {args.bound}, "
              f"{time.perf_counter() - t0:.2f}s)")
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> Tuple[argparse.ArgumentParser, tuple]:
    """The argument parser and its `--cap` actions, built once per
    process; `main` sets their default on every call."""
    p = argparse.ArgumentParser(
        prog="relviews",
        description="bounded linearizability checking and relational-view "
                    "proof outlines for concurrent library models")
    sub = p.add_subparsers(dest="command", required=True)
    caps = []

    def common(sp):
        caps.append(sp.add_argument(
            "--cap", type=_count(0, " (--cap or RELVIEWS_CAP)"),
            help="state-count cap, an integer >= 0 (default: RELVIEWS_CAP, "
                 "else the model's own cap)"))
        sp.add_argument("--jobs", type=_count(1), default=1, choices=(1,),
                        help="must be 1: every check runs in one process")
        sp.add_argument("--format", choices=("text", "machine"),
                        default="text")

    sp = sub.add_parser("check-lin", help="bounded history-inclusion check")
    sp.add_argument("model")
    sp.add_argument("--bound", type=_count(0), required=True)
    common(sp)
    sp.set_defaults(fn=cmd_check_lin)

    sp = sub.add_parser("check-proof",
                        help="verify proof outlines and obligations")
    sp.add_argument("model")
    sp.add_argument("outline")
    common(sp)
    sp.set_defaults(fn=cmd_check_proof)

    sp = sub.add_parser("histories", help="print a generated history set")
    sp.add_argument("model")
    sp.add_argument("--side", choices=("concrete", "abstract"),
                    default="concrete")
    sp.add_argument("--bound", type=_count(0), required=True)
    common(sp)
    sp.set_defaults(fn=cmd_histories)
    return p, tuple(caps)


def main(argv: Optional[List[str]] = None) -> int:
    parser, caps = build_parser()
    # RELVIEWS_CAP as it is now; a string default goes through `type`, so
    # a bad value is a usage error like a bad --cap
    for action in caps:
        action.default = os.environ.get("RELVIEWS_CAP") or None
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        return args.fn(args)
    except FaultReachable as exc:
        _emit(RunReport("fault reachable", False, detail=str(exc),
                        timing=time.perf_counter() - t0), args.format)
        return EXIT_VIOLATION
    except (RelviewsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
