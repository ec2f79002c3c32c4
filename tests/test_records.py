"""The records that `import quadratica` and its CLI load keep the dataclass contract.

solver's six records and cli's two are plain classes on a small frozen-record
base. Their construction, equality, hashing, repr text, immutability, pickling,
copying and pattern matching are pinned here to what the dataclasses gave.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from quadratica.cli import Output, OutputConfig
from quadratica.errors import DegenerateLeadingCoefficient
from quadratica.qfield import QuadElem
from quadratica.solver import (
    DampingKind,
    DerivativeDiscriminant,
    FamilyEquation,
    ModeClassification,
    Quadratic,
    RootKind,
    RootPair,
    VertexForm,
    solve,
)

R1, R2 = QuadElem(Fraction(1, 2), Fraction(1, 2), 5), QuadElem(Fraction(1, 2), Fraction(-1, 2), 5)
GOLDEN = Quadratic(1, -1, -1)
PAIR = RootPair(RootKind.REAL_DISTINCT, R1, R2)

# (class, field names, values, repr text as the dataclasses printed it)
RECORDS = [
    (Quadratic, ("a", "b", "c"), (Fraction(1), Fraction(-1), Fraction(-1)),
     "Quadratic(a=Fraction(1, 1), b=Fraction(-1, 1), c=Fraction(-1, 1))"),
    (RootPair, ("kind", "r1", "r2"), (RootKind.REAL_DISTINCT, R1, R2),
     "RootPair(kind=<RootKind.REAL_DISTINCT: 'RealDistinct'>, r1=QuadElem(1/2, 1/2, 5), r2=QuadElem(1/2, -1/2, 5))"),
    (VertexForm, ("h", "k", "leading"), (Fraction(1, 2), Fraction(-5, 4), Fraction(1)),
     "VertexForm(h=Fraction(1, 2), k=Fraction(-5, 4), leading=Fraction(1, 1))"),
    (FamilyEquation, ("label", "quadratic", "roots"), ("b", GOLDEN, PAIR),
     "FamilyEquation(label='b', quadratic=Quadratic(a=Fraction(1, 1), b=Fraction(-1, 1), c=Fraction(-1, 1)), "
     "roots=RootPair(kind=<RootKind.REAL_DISTINCT: 'RealDistinct'>, r1=QuadElem(1/2, 1/2, 5), "
     "r2=QuadElem(1/2, -1/2, 5)))"),
    (DerivativeDiscriminant, ("x1", "x2", "sqrt_disc", "check"), (R1, R2, QuadElem(0, 1, 5), True),
     "DerivativeDiscriminant(x1=QuadElem(1/2, 1/2, 5), x2=QuadElem(1/2, -1/2, 5), sqrt_disc=QuadElem(0, 1, 5), "
     "check=True)"),
    (ModeClassification, ("kind", "r1", "r2"), (DampingKind.OVERDAMPED, R1, R2),
     "ModeClassification(kind=<DampingKind.OVERDAMPED: 'Overdamped'>, r1=QuadElem(1/2, 1/2, 5), "
     "r2=QuadElem(1/2, -1/2, 5))"),
    (OutputConfig, ("format", "precision"), ("json", 3), "OutputConfig(format='json', precision=3)"),
    (Output, ("lines", "data", "rows", "failed"), (["a"], {"x": 1}, [[1]], True),
     "Output(lines=['a'], data={'x': 1}, rows=[[1]], failed=True)"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
FROZEN = [row for row in RECORDS if row[0] is not Output]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
class TestRecordContract:
    def test_positional_and_keyword_construction(self, cls, names, values, text):
        record = cls(*values)
        assert record == cls(**dict(zip(names, values)))
        assert cls.__match_args__ == names
        assert tuple(getattr(record, name) for name in names) == values

    def test_equality_and_hash(self, cls, names, values, text):
        record, twin = cls(*values), cls(*copy.deepcopy(values))
        assert record == twin and not record != twin
        if cls is not Output:
            assert hash(record) == hash(twin) == hash(values)
        assert record != values
        others = [other(*vals) for other, _, vals, _ in RECORDS if other is not cls]
        assert all(record != other for other in others)

    def test_repr_matches_the_dataclass_text(self, cls, names, values, text):
        assert repr(cls(*values)) == text

    def test_pickle_copy_and_deepcopy_round_trip(self, cls, names, values, text):
        record = cls(*values)
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is cls and twin == record


@pytest.mark.parametrize("cls, names, values, text", FROZEN, ids=[row[0].__name__ for row in FROZEN])
def test_frozen_records_refuse_assignment_and_deletion(cls, names, values, text):
    record = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values


def test_defaults():
    assert OutputConfig() == OutputConfig("text", 12) == OutputConfig(precision=12)
    assert repr(OutputConfig()) == "OutputConfig(format='text', precision=12)"
    assert Output(["a"], None) == Output(lines=["a"], data=None, rows=None, failed=False)
    assert repr(Output([], None)) == "Output(lines=[], data=None, rows=None, failed=False)"


def test_output_stays_mutable_and_unhashable():
    output = Output([], None)
    output.failed = True
    assert output.failed is True
    with pytest.raises(TypeError, match="unhashable"):
        hash(output)


def test_quadratic_coerces_its_coefficients_and_refuses_a_zero_leading_one():
    q = Quadratic(2, "1/3", Fraction(-1, 2))
    assert all(type(x) is Fraction for x in (q.a, q.b, q.c))
    assert (q.a, q.b, q.c) == (2, Fraction(1, 3), Fraction(-1, 2))
    assert Quadratic(a="1", b=-1, c=-1) == GOLDEN
    with pytest.raises(DegenerateLeadingCoefficient):
        Quadratic(0, 1, 1)
    with pytest.raises(DegenerateLeadingCoefficient):
        Quadratic(a=Fraction(0), b=1, c=1)
    with pytest.raises(TypeError):
        Quadratic(1.5, 1, 1)


def test_match_with_positional_sub_patterns():
    assert [_shape(record) for record in (cls(*values) for cls, _, values, _ in RECORDS)] == [
        ("quadratic", Fraction(1), Fraction(-1), Fraction(-1)),
        ("roots", R1, R2),
        ("vertex", Fraction(1, 2), Fraction(-5, 4)),
        ("family", "b", Fraction(-1)),
        ("witness", QuadElem(0, 1, 5)),
        ("mode", R1),
        ("config", 3),
        ("output", [[1]]),
    ]
    assert _shape(solve(Quadratic(1, 2, 1))) == ("double", QuadElem(-1, 0, 0))


def _shape(record):
    match record:
        case Quadratic(a, b, c):
            return "quadratic", a, b, c
        case RootPair(RootKind.REAL_DOUBLE, r1, r2) if r1 == r2:
            return "double", r1
        case RootPair(RootKind.REAL_DISTINCT, r1, r2):
            return "roots", r1, r2
        case VertexForm(h, k, 1):
            return "vertex", h, k
        case FamilyEquation(label, Quadratic(_, b, _), RootPair()):
            return "family", label, b
        case DerivativeDiscriminant(_, _, sqrt_disc, True):
            return "witness", sqrt_disc
        case ModeClassification(DampingKind.OVERDAMPED, r1, _):
            return "mode", r1
        case OutputConfig("json", precision):
            return "config", precision
        case Output(_, _, rows, True):
            return "output", rows
    return None
