"""The benchmark's tracer must find every function it wraps.

`bench/tracing.py` patches the fedhpd functions listed in its `TARGETS` by
name; a rename in the package would otherwise surface only as an
`AttributeError` in `bench/run.py --trace 1`, not as a failing test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attr,span", load_tracing().TARGETS)
def test_trace_target_resolves(module_name, attr, span):
    owner = importlib.import_module(f"fedhpd.{module_name}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"{span}: fedhpd.{module_name} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_trace_targets_install_and_restore():
    tracing = load_tracing()
    package = importlib.import_module("fedhpd")
    before = {name: getattr(package, name) for name in dir(package)}
    with tracing.Tracer().installed():
        pass
    assert {name: getattr(package, name) for name in dir(package)} == before
