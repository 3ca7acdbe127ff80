"""Every layer the benchmark tracer wraps must exist in frobkit.

``bench/tracer.py`` skips a target it cannot find and reports its metrics as
0, so a renamed or deleted function would silently drop out of the per-layer
numbers.  This test resolves each target the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("frobkit_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [*module.TIMED, *module.COUNTED]


@pytest.mark.parametrize("layer, path", _tracer_targets(), ids=lambda t: str(t))
def test_tracer_target_resolves(layer, path):
    obj = importlib.import_module(f"frobkit.{layer}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
