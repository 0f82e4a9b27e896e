"""The benchmark tracer rebinds reesmult functions by name; each name it
lists must still exist, or only a traced benchmark run would notice."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("layer, module, names", [
    pytest.param(layer, module, names, id=layer) for layer, (module, names) in _layers().items()
])
def test_traced_functions_exist(layer, module, names):
    mod = importlib.import_module(f"reesmult.{module}")
    missing = [name for name in names if not callable(getattr(mod, name, None))]
    assert not missing, f"{layer}: reesmult.{module} has no {missing}"
