"""The package runs on the oldest Python that ``pyproject.toml`` admits:
every module parses with that version's grammar, so syntax from a newer
Python fails here and not only on an older interpreter."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "reesmult").glob("*.py"))


def _floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_floor())
