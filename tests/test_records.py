"""Value semantics of the package's immutable records, and their guards."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from seifert5.abgroup import AbelianGroup
from seifert5.classify import INFINITY, FiveManifoldClass, GateVerdict
from seifert5.cohomology import CohomologyReport
from seifert5.orbit_local import LocalInvariants, StabilizerRep
from seifert5.sasakian import DensityViolation, Quadratic, SasakiReport
from seifert5.seifert import Divisor, Nonorientable, Orientable, SeifertSpec, SpecIssue

REQUIRED = inspect.Parameter.empty
GENERATOR = Divisor(0, Orientable(0), 3, 1)

# Per record: the constructor's parameters with their defaults, a sample
# value's fields, and that sample's repr.
RECORDS = [
    (
        AbelianGroup,
        [("free_rank", 0), ("torsion", ())],
        {"free_rank": 1, "torsion": ((2, 2, 1), (3, 1, 1))},
        "AbelianGroup(free_rank=1, torsion=((2, 2, 1), (3, 1, 1)))",
    ),
    (
        FiveManifoldClass,
        [("h2", REQUIRED), ("i", REQUIRED)],
        {"h2": AbelianGroup(0, ((5, 1, 2),)), "i": INFINITY},
        "FiveManifoldClass(h2=AbelianGroup(free_rank=0, torsion=((5, 1, 2),)), i=INFINITY)",
    ),
    (
        GateVerdict,
        [("violated_rules", ())],
        {"violated_rules": ("R1_PRIME_COUNT",)},
        "GateVerdict(violated_rules=('R1_PRIME_COUNT',))",
    ),
    (Orientable, [("genus", REQUIRED)], {"genus": 1}, "Orientable(genus=1)"),
    (Nonorientable, [("b1", REQUIRED)], {"b1": 1}, "Nonorientable(b1=1)"),
    (
        Divisor,
        [("chart", REQUIRED), ("surface", REQUIRED), ("m", REQUIRED), ("b", REQUIRED)],
        {"chart": 0, "surface": Orientable(0), "m": 3, "b": 1},
        "Divisor(chart=0, surface=Orientable(genus=0), m=3, b=1)",
    ),
    (
        SpecIssue,
        [("code", REQUIRED), ("message", REQUIRED)],
        {"code": "BAD_CHART", "message": "divisor 0 chart 2 >= 1"},
        "SpecIssue(code='BAD_CHART', message='divisor 0 chart 2 >= 1')",
    ),
    (
        SeifertSpec,
        [("charts", REQUIRED), ("divisors", REQUIRED), ("twist", REQUIRED)],
        {"charts": 1, "divisors": (GENERATOR,), "twist": (0,)},
        "SeifertSpec(charts=1, divisors=(Divisor(chart=0, surface=Orientable(genus=0), m=3, b=1),),"
        " twist=(0,))",
    ),
    (
        CohomologyReport,
        [("h1_order", REQUIRED), ("h2", REQUIRED), ("c1", REQUIRED), ("c1_mu", REQUIRED),
         ("wu", REQUIRED)],
        {"h1_order": 1, "h2": AbelianGroup(), "c1": (Fraction(1, 3),), "c1_mu": (1,), "wu": 0},
        "CohomologyReport(h1_order=1, h2=AbelianGroup(free_rank=0, torsion=()),"
        " c1=(Fraction(1, 3),), c1_mu=(1,), wu=0)",
    ),
    (
        StabilizerRep,
        [("m", REQUIRED), ("exponents", REQUIRED)],
        {"m": 12, "exponents": (3, 4)},
        "StabilizerRep(m=12, exponents=(3, 4))",
    ),
    (
        LocalInvariants,
        [("c", REQUIRED), ("d", REQUIRED), ("C", REQUIRED), ("manifold_point", REQUIRED)],
        {"c": (4, 3), "d": (1, 1), "C": 12, "manifold_point": True},
        "LocalInvariants(c=(4, 3), d=(1, 1), C=12, manifold_point=True)",
    ),
    (
        Quadratic,
        [("a", REQUIRED), ("b", REQUIRED), ("c", REQUIRED)],
        {"a": 1, "b": -2, "c": 3},
        "Quadratic(a=1, b=-2, c=3)",
    ),
    (
        DensityViolation,
        [("lo", REQUIRED), ("hi", REQUIRED), ("count", REQUIRED)],
        {"lo": 1, "hi": 10, "count": 20},
        "DensityViolation(lo=1, hi=10, count=20)",
    ),
    (
        SasakiReport,
        [("witness", REQUIRED), ("exceptions", REQUIRED), ("densest_violation", REQUIRED),
         ("duplicates_dropped", REQUIRED), ("search_complete", REQUIRED)],
        {"witness": Quadratic(1, 0, 1), "exceptions": frozenset({3}),
         "densest_violation": None, "duplicates_dropped": False, "search_complete": True},
        "SasakiReport(witness=Quadratic(a=1, b=0, c=1), exceptions=frozenset({3}),"
        " densest_violation=None, duplicates_dropped=False, search_complete=True)",
    ),
]


@pytest.fixture(params=RECORDS, ids=[r[0].__name__ for r in RECORDS])
def record(request):
    return request.param


def test_constructor_signature(record):
    cls, params, _, _ = record
    got = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert got == params
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
               for p in inspect.signature(cls).parameters.values())


def test_positional_and_keyword_construction_agree(record):
    cls, _, fields, _ = record
    value = cls(**fields)
    assert cls(*fields.values()) == value
    assert tuple(getattr(value, name) for name in fields) == tuple(fields.values())


def test_equality_and_hash(record):
    cls, _, fields, _ = record
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert len({a, b}) == 1
    assert a != tuple(fields.values())


def test_never_equals_another_record_type(record, monkeypatch):
    cls, _, fields, text = record
    twin = type("Twin", (cls,), {"__slots__": ()})
    assert cls(**fields) != twin(**fields)
    assert twin(**fields) != cls(**fields)
    # A subclass that adds no slots keeps its parent's fields: it compares,
    # hashes, prints and pickles by them, not by its own empty `__slots__`.
    monkeypatch.setattr(sys.modules[__name__], "Twin", twin, raising=False)
    value = twin(**fields)
    assert hash(value) == hash(tuple(fields.values()))
    assert repr(value) == "Twin" + text[len(cls.__name__):]
    assert pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL)) == value


def test_same_fields_different_types():
    assert Orientable(1) != Nonorientable(1)
    twin = type("Twin", (Orientable,), {"__slots__": ()})
    assert twin(1) != twin(2) and twin(1) == twin(1)
    assert Quadratic(1, 2, 3) != DensityViolation(1, 2, 3)


def test_assignment_and_del_raise(record):
    cls, _, fields, _ = record
    value = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) == fields[name]


def test_repr(record):
    cls, _, fields, text = record
    assert repr(cls(**fields)) == text


def test_copy_and_pickle(record):
    cls, _, fields, _ = record
    value = cls(**fields)
    for other in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))):
        assert type(other) is cls
        assert other == value


class TestGuards:
    """Each constructor refuses the values its docstring rules out."""

    @pytest.mark.parametrize("make, message", [
        (lambda: AbelianGroup(-1), "free rank must be >= 0"),
        (lambda: AbelianGroup(0, ((4, 1, 1),)), "4 is not prime"),
        (lambda: AbelianGroup(0, ((2, 0, 1),)), "exponent must be >= 1"),
        (lambda: AbelianGroup(0, ((2, 1, -1),)), "torsion count must be >= 0, got -1"),
        (lambda: FiveManifoldClass(AbelianGroup(), -1),
         "i must be a natural number or INFINITY, got -1"),
        (lambda: Orientable(genus=-1), "genus must be >= 0"),
        (lambda: Nonorientable(b1=0), "b1 must be >= 1"),
        (lambda: Divisor(chart=-1, surface=Orientable(0), m=3, b=1),
         "chart index must be >= 0"),
        (lambda: SeifertSpec(charts=0, divisors=(), twist=()), "need at least one chart"),
        (lambda: StabilizerRep(m=0, exponents=()), "stabilizer order must be >= 1"),
        (lambda: StabilizerRep(m=5, exponents=(5,)), "exponent 5 out of range [1, 5)"),
        (lambda: StabilizerRep(m=4, exponents=(2, 2)),
         "representation is not faithful (common divisor of exponents and m)"),
        (lambda: Quadratic(0, 1, 1), "leading coefficient must be >= 1"),
    ])
    def test_refused(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_normalised(self):
        spec = SeifertSpec(charts=1, divisors=[GENERATOR], twist=[True])
        assert spec.divisors == (GENERATOR,) and spec.twist == (1,)
        assert type(spec.twist[0]) is int
        assert StabilizerRep(12, [3, 4]).exponents == (3, 4)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Both cost start-up on every CLI call; this counts modules, not time.
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, seifert5.cli; print(' '.join(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    loaded = set(done.stdout.split())
    assert "seifert5.cli" in loaded
    assert {"dataclasses", "inspect"} & loaded == set()
