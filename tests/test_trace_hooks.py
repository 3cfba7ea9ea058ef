"""The names the benchmark's tracer hooks from outside must stay in the package.

``perfbench/tracing.py`` wraps module functions, ``cli.Emitter`` methods and the
metric methods it finds in a class dict by name when a traced run starts; a name
deleted or renamed here would break ``perfbench/run.py --trace 1`` only then.
This test reads the tracer's table without installing it.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from finsler_lab import cli, geodesics, metrics

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in _tracing()._FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"finsler_lab.{module}"), attr))


def test_traced_signatures_and_emitter_methods():
    # the tracer binds integrate_to_level's arguments to read its `step`
    assert "step" in inspect.signature(geodesics.integrate_to_level).parameters
    # and replaces these in the class dict of the emitter
    for name in ("write_csv", "finish", "_write"):
        assert callable(cli.Emitter.__dict__[name])


def test_traced_metric_methods_are_defined():
    # a name in no class dict is skipped silently, and its stage counts read 0
    classes = [cls for cls in vars(metrics).values()
               if isinstance(cls, type) and issubclass(cls, metrics.Metric)]
    for name in _tracing()._METRIC_METHODS:
        assert any(callable(cls.__dict__.get(name)) for cls in classes), name
    assert "geodesic_stage" in metrics.RandersMetric.__dict__
