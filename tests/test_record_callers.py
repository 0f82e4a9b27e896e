"""Every public method and property of a record has a caller in the
package: its name is read as an attribute (``x.name``) somewhere in
``src/reesmult``.  A read inside a method that has no caller does not
count, so a method that only dead methods call is dead too.  Dunder and
private names are exempt."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
         for p in sorted((ROOT / "src" / "reesmult").glob("*.py"))]


def _record_methods():
    """``Class.name`` -> def node, per public method of a ``Record`` subclass."""
    classes = {node.name: node for tree in TREES for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def is_record(cls):
        return any(isinstance(b, ast.Name) and (b.id == "Record" or b.id in classes
                                                and is_record(classes[b.id]))
                   for b in cls.bases)

    return {f"{cls.name}.{node.name}": node for cls in classes.values() if is_record(cls)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def test_every_record_method_has_a_caller():
    methods = _record_methods()
    # a property and a method, so the search does not pass by finding nothing
    assert {"MonomialIdeal.is_unit", "ThresholdSystem.satisfies"} <= set(methods)
    dead = set()
    while True:
        inside_dead = {id(node) for name in dead for node in ast.walk(methods[name])}
        read = {node.attr for tree in TREES for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and id(node) not in inside_dead}
        now = {name for name, node in methods.items() if node.name not in read}
        if now == dead:
            break
        dead = now
    assert not dead, f"record methods with no caller in src/reesmult: {sorted(dead)}"
