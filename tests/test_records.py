"""The frozen records behave as frozen dataclasses of the same fields.

Each record class is checked against a twin that the standard library's
``dataclasses.make_dataclass(..., frozen=True)`` builds from the field table
below, which is written out here rather than read off the classes: the same
field order and defaults, ``repr`` byte for byte, ``==`` on every pair of
samples (two samples per class, and each mix that differs from the first in
one field only), ``hash`` (``StepFunction`` and ``PiecewiseLinearConcave``
keep their own), and AttributeError on assignment.  ``__post_init__`` runs
on the public constructor, looked up on the class, and not on ``_trusted``.
A StepFunction and a PiecewiseLinearConcave are stored as int pairs, so
their trusted samples hold only those, and their fields, ``repr`` and
``==`` come from them.
"""

import dataclasses
from fractions import Fraction as F

import pytest

from rearrcalc import (
    INF,
    ConstructionTrace,
    HlpVerdict,
    Hyperbolic,
    PiecewiseLinearConcave,
    ProbeRecord,
    ProbeReport,
    RearrangementResult,
    SequenceFamily,
    SpaceSpec,
    StepFunction,
    box,
    canonicalize,
)
from rearrcalc.stepfn import _trusted

_STEP_A = box(1, 1)
_STEP_B = canonicalize([F(1, 2)], [F(3)], F(1), F(1))
_PHI_A = PiecewiseLinearConcave(INF, (F(1),), (F(1),), F(0))
_PHI_B = PiecewiseLinearConcave(F(1), (F(1, 2),), (F(1),), F(1, 2), F(1, 2))
_L1 = SpaceSpec("L1")


def _twice(n):
    return _STEP_A


def _thrice(n):
    return _STEP_B


_NO = dataclasses.MISSING
# class -> [(field, default or _NO)], and two samples that differ in every field
RECORDS = {
    StepFunction: (
        [("alpha", _NO), ("cuts", _NO), ("values", _NO), ("tail", _NO)],
        (INF, (F(1),), (F(2),), F(0)),
        (F(1), (F(1, 2),), (F(3),), F(1)),
    ),
    PiecewiseLinearConcave: (
        [("alpha", _NO), ("cuts", _NO), ("node_values", _NO), ("final_slope", _NO),
         ("jump0", F(0))],
        (INF, (F(1),), (F(1),), F(0), F(0)),
        (F(1), (F(1, 2),), (F(3, 2),), F(1, 2), F(1, 2)),
    ),
    RearrangementResult: (
        [("star", _NO), ("level_integral", _NO), ("star_at_infinity", _NO)],
        (_STEP_A, _PHI_A, F(0)),
        (_STEP_B, _PHI_B, F(1)),
    ),
    HlpVerdict: (
        [("holds", _NO), ("witness", None)],
        (True, None),
        (False, F(1, 2)),
    ),
    ConstructionTrace: (
        [("case_tag", _NO), ("gamma", _NO), ("beta", _NO), ("xi", _NO), ("z", _NO),
         ("w", _NO), ("tau1", _NO), ("eps1", _NO), ("gamma0", None), ("gamma1", None),
         ("beta1", None)],
        ("affine_gap", F(1, 4), F(2), F(3, 7), _STEP_A, _STEP_A, F(1, 8), F(1, 14),
         None, None, None),
        ("affine_chord", F(1, 5), F(3), F(2, 7), _STEP_B, _STEP_B, F(1, 9), F(1, 15),
         F(1, 6), F(1, 3), F(5, 2)),
    ),
    Hyperbolic: (
        [("c", _NO)],
        (F(1),),
        (F(5, 2),),
    ),
    SpaceSpec: (
        [("kind", _NO), ("phi", None), ("alpha", INF)],
        ("L1", None, INF),
        ("Marcinkiewicz", _PHI_B, F(1)),
    ),
    SequenceFamily: (
        [("name", _NO), ("generator", _NO)],
        ("twice", _twice),
        ("thrice", _thrice),
    ),
    ProbeRecord: (
        [("n", _NO), ("norm", _NO), ("star_distances", _NO), ("maximal_distances", None),
         ("norm_gap", None)],
        (1, F(1), ((F(1), F(0)),), None, None),
        (2, INF, ((F(1, 2), INF),), ((F(1), F(1, 3)),), F(1, 4)),
    ),
    ProbeReport: (
        [("probe", _NO), ("family", _NO), ("space", _NO), ("n_list", _NO),
         ("records", _NO), ("verdict", _NO), ("notes", _NO), ("tolerance", None)],
        ("koc", "remark45", _L1, (1,), (), "a", "", None),
        ("lkm", "lemma43_x", SpaceSpec("Linf"), (1, 2),
         (ProbeRecord(1, F(1), ()),), "b", "n", F(1, 100)),
    ),
}
CLASSES = list(RECORDS)


def _twin(cls):
    table = RECORDS[cls][0]
    return dataclasses.make_dataclass(
        cls.__name__,
        [(n, object) if d is _NO else (n, object, dataclasses.field(default=d))
         for n, d in table],
        frozen=True,
    )


def _samples(cls):
    """Field tuples: both samples, then a's with one field taken from b."""
    _, a, b = RECORDS[cls]
    return [a, b, *(a[:i] + (b[i],) + a[i + 1:] for i in range(len(a)))]


def _flat(*qs):
    return tuple(n for q in qs for n in q.as_integer_ratio())


def _trusted_from(cls, values):
    """A trusted record of the field values; a StepFunction or a
    PiecewiseLinearConcave gets only its stored form, the flat int pairs
    (a PLC's slope function, then jump0 and its node values), and builds its
    Fractions when read.  Nothing is validated: a mix need not be canonical."""
    if cls is StepFunction:
        alpha, cuts, vals, tail = values
        return _trusted(cls, alpha=alpha, _cut_ints=_flat(*cuts), _value_ints=_flat(*vals, tail))
    if cls is PiecewiseLinearConcave:
        alpha, cuts, nodes, final, jump0 = values
        slopes = [(v - pv) / (c - pc) for c, v, pc, pv in
                  zip(cuts, nodes, (0, *cuts), (jump0, *nodes))]
        return _trusted(cls, alpha=alpha, _node_ints=_flat(jump0, *nodes),
                        slope=_trusted_from(StepFunction, (alpha, cuts, slopes, final)))
    return _trusted(cls, **dict(zip((n for n, _ in RECORDS[cls][0]), values)))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_compare_hash_and_print_like_frozen_dataclasses(cls):
    twin = _twin(cls)
    samples = _samples(cls)
    recs = [_trusted_from(cls, v) for v in samples]
    twins = [twin(*v) for v in samples]
    for r, t in zip(recs, twins):
        assert repr(r) == repr(t)
        assert cls in (StepFunction, PiecewiseLinearConcave) or hash(r) == hash(t)
        assert r.__eq__(t) is NotImplemented and r != t
    for r1, t1 in zip(recs, twins):
        for r2, t2 in zip(recs, twins):
            assert (r1 == r2) is (t1 == t2)
            assert (r1 != r2) is (t1 != t2)
            assert r1 != r2 or hash(r1) == hash(r2)
    # each mix differs from a in one field: the comparison reads every field
    assert all(r != recs[0] for r in recs[2:])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_take_fields_in_order_with_defaults(cls):
    table, a, b = RECORDS[cls]
    twin = _twin(cls)
    for values in (a, b):
        rec = cls(*values)
        # set in declaration order (cached properties may follow)
        assert list(vars(rec))[:len(table)] == [n for n, _ in table]
        assert rec == cls(**{n: v for (n, _), v in zip(table, values)})
        assert repr(rec) == repr(twin(*values))
    required = [v for (n, d), v in zip(table, a) if d is _NO]
    assert repr(cls(*required)) == repr(twin(*required))
    with pytest.raises(TypeError):
        cls(*a, a[0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    table, a, b = RECORDS[cls]
    rec = cls(*a)
    for (name, _), value in zip(table, b):
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.other = 1
    assert rec == cls(*a)


def test_step_function_keeps_its_own_hash():
    assert StepFunction.__hash__ is vars(StepFunction)["__hash__"]
    x = StepFunction(INF, (1,), (2,), 0)
    assert hash(x) == x._hash == hash(_trusted_from(StepFunction, RECORDS[StepFunction][1]))


def test_piecewise_linear_concave_keeps_its_own_hash():
    assert PiecewiseLinearConcave.__hash__ is vars(PiecewiseLinearConcave)["__hash__"]
    for values in RECORDS[PiecewiseLinearConcave][1:]:
        assert hash(PiecewiseLinearConcave(*values)) == hash(
            _trusted_from(PiecewiseLinearConcave, values))


@pytest.mark.parametrize("cls", [c for c in CLASSES if hasattr(c, "__post_init__")],
                         ids=lambda c: c.__name__)
def test_post_init_runs_on_the_public_constructor_only(cls, monkeypatch):
    calls = []
    post_init = cls.__post_init__

    def counting(obj):
        calls.append(obj)
        post_init(obj)

    monkeypatch.setattr(cls, "__post_init__", counting)
    _, a, b = RECORDS[cls]
    for values in (a, b):
        rec = cls(*values)
        assert calls[-1] is rec
        assert _trusted_from(cls, values) == rec
    assert len(calls) == 2

