"""The package runs on the oldest Python that ``pyproject.toml`` admits:
every module parses with that version's grammar, so syntax from a newer
Python fails here and not only on an older interpreter.  Each record is
built through its own ``__init__``, so no module uses ``object.__new__``,
and writes its fields only there, through ``self._set``: no module reads
``object.__setattr__``.  A slot descriptor's ``__set__`` is read only in
``serialize.py``: by ``Record.__init_subclass__`` for the field setters of
``_set``, and once at module level for the hash memo ``Record._h``, which
only ``Record.__hash__`` writes."""

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


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_record_built_around_its_constructor(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "__new__"
             and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert not lines, f"{path.name} uses object.__new__ at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_fields_written_only_by_set_in_init(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = {id(node.func) for init in ast.walk(tree)
               if isinstance(init, ast.FunctionDef) and init.name == "__init__"
               for node in ast.walk(init)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "_set" and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "self"}
    setattr_lines = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                     and isinstance(node.value, ast.Name) and node.value.id == "object"]
    set_lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "_set"
                 and id(node) not in allowed]
    assert not setattr_lines, f"{path.name} reads object.__setattr__ at lines {setattr_lines}"
    assert not set_lines, f"{path.name} uses _set outside self._set(...) in __init__ at {set_lines}"



@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_slots_set_only_by_fields_and_hash_memo(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = sorted(ast.unparse(node) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "__set__")
    want = ["Record._h.__set__", "getattr(cls, f).__set__"] if path.name == "serialize.py" else []
    assert found == want
    memo_writes = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name != "__hash__"
                   for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "_set_hash"]
    assert not memo_writes, f"{path.name} writes the hash memo outside __hash__"
