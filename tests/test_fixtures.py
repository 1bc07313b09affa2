"""End-to-end harness: every shipped fixture meets its recorded verdicts."""

import json

import pytest

from relviews.cli import main as cli_main
from util import fixture_manifest

MANIFEST = fixture_manifest()


def test_manifest_is_populated():
    names = {fx.name for fx in MANIFEST}
    assert {"atomic-inc", "dcsl-cell", "dcsl-helping", "flat-combiner",
            "flat-combiner-nolock", "flat-combiner-stale",
            "flat-combiner-noaction4", "flat-combiner-valueret"} <= names


@pytest.mark.parametrize("fx", MANIFEST, ids=lambda fx: fx.name)
def test_fixture_against_expected(fx, capsys):
    for cmd, spec in sorted(fx.expected.items()):
        if cmd == "check-lin":
            argv = ["check-lin", fx.model_path, "--bound",
                    str(spec["bound"]), "--format", "machine"]
        elif cmd == "check-proof":
            assert fx.outline_path, f"{fx.name} expects a proof but ships " \
                                    "no outline"
            argv = ["check-proof", fx.model_path, fx.outline_path,
                    "--format", "machine"]
        else:
            pytest.fail(f"unknown expected command {cmd!r}")
        code = cli_main(argv)
        out = json.loads(capsys.readouterr().out)
        if spec["verdict"] == "ok":
            assert code == 0 and out["ok"], (fx.name, cmd, out)
        else:
            assert code == 1 and not out["ok"], (fx.name, cmd, out)
        if "counterexample" in spec:
            assert out["counterexample"] == "\n".join(spec["counterexample"])
        if "failure_contains" in spec:
            assert spec["failure_contains"] in out["detail"]

