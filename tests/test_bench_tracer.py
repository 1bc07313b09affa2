"""The benchmark's traced mode wraps package bindings by name; a rename in
the package must fail here rather than silently drop a per-layer metric."""

import importlib.util
import os

from relviews import cli, model_io

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")


def test_bench_tracer_finds_every_binding():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert cli.load_model is not model_io.load_model
    finally:
        tracer.uninstall()
    assert cli.load_model is model_io.load_model
