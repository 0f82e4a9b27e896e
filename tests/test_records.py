"""The immutable records: read-only fields, field-wise equality, hashing and
repr, the constructor signatures, and an import path free of ``dataclasses``."""

from __future__ import annotations

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import reesmult
from reesmult.errors import DomainError
from reesmult.hypersurface import (
    DivisorData,
    LocalHypersurfaceModel,
    LocalMonomial,
    verify_local_decomposition,
)
from reesmult.ideals import OMEGA, JumpReport, MonomialIdeal, MonomialModule, omega_module
from reesmult.polyhedra import Cone, HalfSpace, Polyhedron, ThresholdSystem
from reesmult.rees import (
    EXTENDED_REES,
    GradedModuleSpec,
    GradedToricAlgebra,
    PerLevel,
    VerificationReport,
    decomposition_rhs_S,
    decomposition_rhs_T,
    extended_rees_cone,
    graded_piece,
    multiplier_module_principal,
    verify_theoremA,
    verify_theoremB_S,
    verify_theoremB_T,
)
from reesmult.serialize import Record, dumps_canonical

SRC = Path(__file__).resolve().parents[1] / "src"


def _units(rank):
    return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


def _omega(rank):
    return ThresholdSystem(rank, tuple((u, 1) for u in _units(rank)))


# one freshly built, valid instance of each record per call
MAKERS = {
    HalfSpace: lambda: HalfSpace((2, 4), Fraction(1)),
    Cone: lambda: Cone(2, _units(2), tuple(HalfSpace(u, 0) for u in _units(2))),
    Polyhedron: lambda: Polyhedron(
        2, tuple(HalfSpace(u, 0) for u in _units(2)) + (HalfSpace((1, 1), 1),),
        _units(2), Cone(2, _units(2)), irredundant=True),
    ThresholdSystem: lambda: _omega(2),
    MonomialIdeal: lambda: MonomialIdeal(2, ((2, 0), (0, 2))),
    MonomialModule: lambda: MonomialModule(2, _omega(2), OMEGA),
    JumpReport: lambda: JumpReport(MonomialIdeal(1, ((1,),)), Fraction(2), (Fraction(1), Fraction(2)),
                                   (Fraction(1), Fraction(2)), ((0, 5),), ()),
    GradedToricAlgebra: lambda: GradedToricAlgebra(1, EXTENDED_REES, _omega(2), _units(2),
                                                   MonomialIdeal(1, ((1,),))),
    GradedModuleSpec: lambda: GradedModuleSpec(2, _omega(2), "omega"),
    PerLevel: lambda: PerLevel(1, 3, 3, True, None),
    VerificationReport: lambda: VerificationReport(
        "B1", {"ideal": [[1]]}, Fraction(1, 2), (0, 1), ((0, 3), (0, 3)),
        (PerLevel(0, 1, 1, True, None),), True, {"rhs": "T"}),
    LocalHypersurfaceModel: lambda: LocalHypersurfaceModel(3, 2, (1, 2)),
    LocalMonomial: lambda: LocalMonomial(0, 2, (1, 0, 3)),
    DivisorData: lambda: DivisorData(("D_x,1", "D_y,1"), (-1, -1), (1, 0), (0, 1)),
}
RECORDS = pytest.mark.parametrize("cls", list(MAKERS), ids=lambda cls: cls.__name__)

# (name, default) per parameter, as the frozen dataclasses generated them;
# NO marks a parameter without a default
NO = inspect.Parameter.empty
SIGNATURES = {
    HalfSpace: [("normal", NO), ("threshold", NO)],
    Cone: [("rank", NO), ("rays", ()), ("facets", None)],
    Polyhedron: [("rank", NO), ("facets", NO), ("vertices", None), ("recession", None),
                 ("irredundant", False)],
    ThresholdSystem: [("rank", NO), ("constraints", ()), ("infeasible", False)],
    MonomialIdeal: [("nvars", NO), ("generators", NO)],
    MonomialModule: [("nvars", NO), ("system", NO), ("ambient", NO)],
    JumpReport: [("ideal", NO), ("lam_max", NO), ("jumps", NO), ("candidates", NO),
                 ("box", NO), ("warnings", NO)],
    GradedToricAlgebra: [("nvars", NO), ("kind", NO), ("cone", NO), ("rays", NO),
                         ("source", NO)],
    GradedModuleSpec: [("ambient_rank", NO), ("system", NO), ("description", NO)],
    PerLevel: [("k", NO), ("lhs_count", NO), ("rhs_count", NO), ("equal", NO),
               ("witness", NO)],
    VerificationReport: [("theorem", NO), ("subject", NO), ("lam", NO), ("k_range", NO),
                         ("box", NO), ("per_k", NO), ("overall", NO), ("details", NO)],
    LocalHypersurfaceModel: [("n", NO), ("m", NO), ("exps", NO)],
    LocalMonomial: [("a", NO), ("b", NO), ("c", NO)],
    DivisorData: [("labels", NO), ("canonical", NO), ("div_x", NO), ("div_y", NO)],
}


def _fields(obj):
    return tuple(getattr(obj, f) for f in type(obj).__slots__)


@RECORDS
def test_fields_are_read_only(cls):
    obj = MAKERS[cls]()
    before = _fields(obj)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert _fields(obj) == before
    assert not hasattr(obj, "__dict__")


@RECORDS
def test_equal_fields_equal_values(cls):
    a, b = MAKERS[cls](), MAKERS[cls]()
    assert a is not b
    assert a == b and not a != b
    assert a != _fields(a)
    if cls is VerificationReport:  # dict fields: unhashable, as the dataclass was
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(_fields(a))
        assert len({a, b}) == 1


@RECORDS
def test_hash_is_memoised_and_not_a_field(cls):
    obj = MAKERS[cls]()

    def memo():
        return Record._h.__get__(obj, cls)

    with pytest.raises(AttributeError):
        memo()
    if cls is VerificationReport:  # unhashable fields: raises every time, stores nothing
        for _ in range(2):
            with pytest.raises(TypeError):
                hash(obj)
        with pytest.raises(AttributeError):
            memo()
    else:
        assert hash(obj) == memo() == hash(obj) == hash(_fields(obj))
        clones = (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj))
        assert all(hash(clone) == hash(obj) for clone in clones)
    with pytest.raises(AttributeError):
        obj._h = 0
    with pytest.raises(AttributeError):
        del obj._h
    assert "_h" not in cls.__slots__ and "_h" not in repr(obj)


@RECORDS
def test_repr_names_each_field(cls):
    obj = MAKERS[cls]()
    fields = ", ".join(f"{f}={getattr(obj, f)!r}" for f in cls.__slots__)
    assert repr(obj) == f"{cls.__name__}({fields})"


@RECORDS
def test_pickle_and_copy_rebuild_equal_values(cls):
    obj = MAKERS[cls]()
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(clone) is cls and _fields(clone) == _fields(obj)


@pytest.mark.parametrize("cls", [cls for cls in MAKERS if hasattr(cls, "to_json")],
                         ids=lambda cls: cls.__name__)
def test_canonical_json_is_sorted_compact_dumps(cls):
    data = MAKERS[cls]().to_json()
    assert dumps_canonical(data) == json.dumps(data, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("data", [
    [["\u00e9t\u00e9", ["\u03bb", "\U0001d53c"]], {"z": "\u2264", "a": [None]}],
    {"big": [2 ** 64, -(2 ** 64) - 1, 3 ** 90], "flags": [True, False, None]},
    [[[[]]], {}, "", 0, -1],
], ids=("non-ascii", "big-ints-bools-none", "empty"))
def test_canonical_json_of_plain_trees(data):
    assert dumps_canonical(data) == json.dumps(data, sort_keys=True, separators=(",", ":"))


def test_repr_of_a_halfspace():
    assert repr(HalfSpace((2, 4), 1)) == "HalfSpace(normal=(1, 2), threshold=Fraction(1, 2))"


def test_unequal_across_classes():
    system = _omega(2)
    module, spec = MonomialModule(2, system, OMEGA), GradedModuleSpec(2, system, OMEGA)
    assert _fields(module) == _fields(spec)
    assert module != spec and spec != module

    def pair_class(name):
        def __init__(self, x, y):
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)
        return type(name, (Record,), {"__slots__": ("x", "y"), "__init__": __init__})

    A, B = pair_class("A"), pair_class("B")
    assert A(1, 2) == A(1, 2) and A(1, 2) != A(2, 1)
    assert A(1, 2) != B(1, 2) and B(1, 2) != A(1, 2)
    assert hash(A(1, 2)) == hash(B(1, 2)) == hash((1, 2))


def test_set_refuses_a_wrong_value_count():
    class Pair(Record):
        __slots__ = ("x", "y")

        def __init__(self, *values):
            self._set(*values)

    assert _fields(Pair(1, 2)) == (1, 2)
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            Pair(*values)


EXPORTED_FUNCTIONS = [value for value in vars(reesmult).values()
                      if callable(value) and not isinstance(value, type)]


@pytest.mark.parametrize("fn", EXPORTED_FUNCTIONS + [cls.__init__ for cls in MAKERS],
                         ids=lambda fn: fn.__qualname__)
def test_annotations_resolve(fn):
    typing.get_type_hints(fn)  # a name missing from the module's globals raises NameError


@RECORDS
def test_signature_matches_the_dataclass(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * len(params)
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]


def test_cli_import_loads_no_dataclasses():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import reesmult.cli\n"
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == ""


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "reesmult").glob("*.py")):
        text = path.read_text()
        assert "import dataclasses" not in text and "from dataclasses" not in text, path.name


M23 = LocalHypersurfaceModel(2, 2, (2, 3))
XY2 = MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))

# one record or report per integer field or parameter, built from x = 1 or
# its equal True, 1.0 or Fraction(1); zero(x) is 0 of the same type
INTEGER_TAKERS = {
    "MonomialIdeal": lambda x: MonomialIdeal(x, ((1,),)),
    "MonomialModule": lambda x: MonomialModule(x, _omega(1), OMEGA),
    "ThresholdSystem": lambda x: ThresholdSystem(x, (((1,), 1),)),
    "Cone": lambda x: Cone(x, ((1,),)),
    "Polyhedron": lambda x: Polyhedron(x, (HalfSpace((1,), 0),)),
    "LocalHypersurfaceModel n": lambda x: LocalHypersurfaceModel(x, 1, (1,)),
    "LocalHypersurfaceModel m": lambda x: LocalHypersurfaceModel(2, x, (1,)),
    "local box_deg": lambda x: verify_local_decomposition(M23, 0, box_deg=x),
    "local box_c": lambda x: verify_local_decomposition(M23, 0, box_deg=1, box_c=x),
    "local k_range": lambda x: verify_local_decomposition(M23, 0, k_range=(zero(x), x)),
    "B.2 k_range": lambda x: verify_theoremB_T(XY2, 0, k_range=(zero(x), x)),
    "B.2 box": lambda x: verify_theoremB_T(XY2, 0, k_range=(0, 1), box=((zero(x), 4), (x, 4))),
    "B.1 n_range": lambda x: verify_theoremB_S(XY2, 0, n_range=(zero(x), x)),
    "B.1 box": lambda x: verify_theoremB_S(XY2, 0, n_range=(0, 1), box=((zero(x), 4), (x, 4))),
    "A box": lambda x: verify_theoremA(XY2, 0, box=((zero(x), x), (x, 4))),
    "omega_module": omega_module,
    "graded_piece k": lambda x: graded_piece(
        multiplier_module_principal(extended_rees_cone(XY2), (0, 0, -1), 0), x),
    "B.2 level": lambda x: decomposition_rhs_T(XY2, 0, x),
    "B.1 level": lambda x: decomposition_rhs_S(XY2, 0, x),
}


def zero(x):
    return type(x)(0)


def _leaves(data):
    if isinstance(data, dict):
        data = list(data.values())
    if isinstance(data, (list, tuple)):
        for item in data:
            yield from _leaves(item)
    else:
        yield data


@pytest.mark.parametrize("name", list(INTEGER_TAKERS))
def test_a_bool_is_stored_as_an_int(name):
    # True for 1: the same record, field types and JSON bytes as with 1, and
    # so no float and no bool beyond those the int-built record holds
    got, want = INTEGER_TAKERS[name](True), INTEGER_TAKERS[name](1)
    assert repr(got) == repr(want)
    data = got.to_json() if hasattr(got, "to_json") else _fields(got)
    assert dumps_canonical(data) == dumps_canonical(want.to_json() if hasattr(want, "to_json")
                                                    else _fields(want))
    assert not any(isinstance(leaf, float) for leaf in _leaves(data))


@pytest.mark.parametrize("value", [1.0, Fraction(1)], ids=["float", "Fraction"])
@pytest.mark.parametrize("name", list(INTEGER_TAKERS))
def test_a_float_or_fraction_is_refused(name, value):
    INTEGER_TAKERS[name](1)
    with pytest.raises(DomainError, match="not an integer|not a vector of integers"):
        INTEGER_TAKERS[name](value)


@pytest.mark.parametrize("name", ["omega_module", "graded_piece k", "B.2 level", "B.1 level"])
def test_a_string_is_refused(name):
    with pytest.raises(DomainError, match="not an integer"):
        INTEGER_TAKERS[name]("1")
