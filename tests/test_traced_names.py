"""The benchmark tracer rebinds reesmult functions by name; each name it
lists must still exist, or only a traced benchmark run would notice."""

from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys
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


def test_import_loads_every_traced_module_but_cli():
    # Tracer.install wraps only what ``import reesmult`` has loaded; a module
    # imported later (lazily) would go untraced and its per-layer metrics
    # would read 0
    code = "import sys, reesmult; print(*sorted(m for m in sys.modules if m.startswith('reesmult.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = {name.removeprefix("reesmult.") for name in proc.stdout.split()}
    traced = {module for module, _ in _layers().values()} - {"cli"}
    assert traced <= loaded, f"import reesmult leaves out {sorted(traced - loaded)}"
