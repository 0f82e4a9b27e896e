"""Every private module-level function and class in ``src/reesmult`` has a
caller: its name is read (``_name`` or ``module._name``) somewhere in the
package outside its own definition.  An import alone is not a read, and a
read inside a helper that has no caller does not count, so a helper that
only dead helpers call is dead too.  And the primitive combination of two
vectors, ``polyhedra._combine``, has one reader: the double description."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
         for p in sorted((ROOT / "src" / "reesmult").glob("*.py"))]


def _private_helpers():
    """``name`` -> definition node, per private top-level def or class."""
    return {node.name: node for tree in TREES for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")}


def _reads(node):
    """The name or attribute that ``node`` reads, else None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def test_every_private_helper_has_a_caller():
    helpers = _private_helpers()
    # a function and a class, so the search does not pass by finding nothing
    assert {"_walk", "_Bounds"} <= set(helpers)
    dead = set()
    while True:
        skipped = {id(node) for name, helper in helpers.items() for node in ast.walk(helper)
                   if name in dead or _reads(node) == name}
        read = {_reads(node) for tree in TREES for node in ast.walk(tree)
                if id(node) not in skipped}
        now = {name for name in helpers if name not in read}
        if now == dead:
            break
        dead = now
    assert not dead, f"private helpers with no caller in src/reesmult: {sorted(dead)}"


def test_only_the_double_description_combines():
    """``polyhedra._combine`` is read only inside ``polyhedra._dd``, so no
    second elimination routine grows beside the double description."""
    readers = {getattr(top, "name", "module level") for tree in TREES for top in tree.body
               if any(_reads(node) == "_combine" for node in ast.walk(top))}
    assert readers == {"_dd"}, sorted(readers)
