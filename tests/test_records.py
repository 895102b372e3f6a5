"""The value semantics of relfix's nine frozen record classes.

Equality holds only between instances of the same class over the compared
fields, equal records hash alike where the class is hashable, fields cannot
be set or deleted, and the repr reads `Cls(field=value, ...)`.
"""
from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from relfix import nu
from relfix.finstruct import FinAlgebra, FinCoalgebra
from relfix.fractal import BoundaryPoint, CellSet
from relfix.jsonio import ProblemFile
from relfix.lattice import SafetyVerdict, TransitionSystem
from relfix.sigterm import EquationSet, Signature, app, var

CS = (("c", 0), ("s", 2))

# class -> (its fields in repr order, keyword arguments of one instance)
RECORDS = {
    Signature: (("symbols",), lambda: {"symbols": CS}),
    EquationSet: (
        ("sig", "equations"),
        lambda: {"sig": Signature(CS), "equations": ((var("x"), app("c", ())),)},
    ),
    FinCoalgebra: (
        ("sig", "states", "step"),
        lambda: {"sig": Signature(CS), "states": ("p", "q"),
                 "step": {"p": ("s", ("p", "q")), "q": ("c", ())}},
    ),
    FinAlgebra: (
        ("sig", "carrier", "table", "default"),
        lambda: {"sig": Signature(CS), "carrier": ("0", "1"),
                 "table": {("c", ()): "1", ("s", ("1", "1")): "1"}, "default": "0"},
    ),
    TransitionSystem: (
        ("states", "delta", "init", "safe"),
        lambda: {"states": ("a", "b"), "delta": {"a": frozenset("b"), "b": frozenset()},
                 "init": frozenset("a"), "safe": frozenset("ab")},
    ),
    SafetyVerdict: (
        ("result", "stage", "side", "witness"),
        lambda: {"result": "unsafe", "stage": 0, "side": "F^n(I) ⊄ P", "witness": "b"},
    ),
    ProblemFile: (("kind", "payload"), lambda: {"kind": "prefix", "payload": {"format": 1}}),
    CellSet: (("depth", "cells"), lambda: {"depth": 1, "cells": frozenset({(0, 0), (2, 1)})}),
    BoundaryPoint: (("edge", "t"), lambda: {"edge": "top", "t": Fraction(1, 3)}),
}
HASHABLE = {Signature, EquationSet, SafetyVerdict, CellSet, BoundaryPoint}
CLASSES = list(RECORDS)


def ids(cls):
    return cls.__name__


def build(cls):
    """Two instances of `cls` from the same fields, built apart."""
    _, kwargs = RECORDS[cls]
    return cls(**kwargs()), cls(*kwargs().values())


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_equal_fields_give_equal_records(cls):
    a, b = build(cls)
    assert a is not b
    assert a == b and not a != b
    if cls in HASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_a_record_equals_only_its_own_class(cls):
    fields, kwargs = RECORDS[cls]
    a, _ = build(cls)
    sub = type("Sub", (cls,), {})(**kwargs())
    twin = SimpleNamespace(**{f: getattr(a, f) for f in fields})
    assert a != sub and sub != a
    assert a != twin and twin != a
    assert a != None  # noqa: E711
    assert a.__eq__(twin) is NotImplemented


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_a_differing_field_breaks_equality(cls):
    fields, kwargs = RECORDS[cls]
    a, _ = build(cls)
    for f in fields:
        b = cls(**kwargs())
        object.__setattr__(b, f, "other")
        assert a != b, f


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_fields_cannot_be_set_or_deleted(cls):
    fields, _ = RECORDS[cls]
    a, _ = build(cls)
    for f in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert a == build(cls)[1]


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_repr_lists_the_fields(cls):
    fields, _ = RECORDS[cls]
    a, _ = build(cls)
    inner = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{cls.__qualname__}({inner})"


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_copies_and_pickles_are_equal(cls):
    a, _ = build(cls)
    assert copy.copy(a) == a
    if cls is not EquationSet:  # terms are interned: a deep copy is a new term
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a


def test_repr_forms():
    assert repr(SafetyVerdict("safe", 4999)) == (
        "SafetyVerdict(result='safe', stage=4999, side=None, witness=None)"
    )
    assert repr(Signature([["c", 0]])) == "Signature(symbols=(('c', 0),))"
    assert repr(BoundaryPoint("left", 1)) == "BoundaryPoint(edge='left', t=Fraction(1, 1))"


def test_defaults():
    verdict = SafetyVerdict("safe", 3)
    assert (verdict.side, verdict.witness) == (None, None)
    assert verdict == SafetyVerdict("safe", 3, None, None)
    alg = FinAlgebra(Signature((("c", 0),)), ("0",), {("c", ()): "0"})
    assert alg.default is None


def test_algebra_equality_ignores_outputs():
    a, b = build(FinAlgebra)
    object.__setattr__(b, "outputs", {})
    assert a == b
    assert "outputs" not in repr(a)
    assert a.outputs == {"c": ["1"], "s": ["0", "1"]}


def test_fields_are_normalized():
    sig = Signature([["c", 0], ["s", 2]])
    assert sig.symbols == CS and sig == Signature(CS)
    coalg = FinCoalgebra(sig, ["p"], {"p": ["s", ["p", "p"]]})
    assert coalg.states == ("p",) and coalg.step == {"p": ("s", ("p", "p"))}
    ts = TransitionSystem(["a"], {}, ["a"], set())
    assert ts.delta == {"a": frozenset()} and ts.init == frozenset("a") and ts.safe == frozenset()
    assert CellSet(0, [(0, 0)]).cells == frozenset({(0, 0)})
    assert BoundaryPoint("top", "1/2").t == Fraction(1, 2)


def test_equal_signatures_share_one_meet_algebra():
    nu.meet_algebra.cache_clear()
    try:
        first = nu.meet_algebra(Signature(CS))
        assert nu.meet_algebra(Signature([list(s) for s in CS])) is first
        assert nu.meet_algebra.cache_info().currsize == 1
    finally:
        nu.meet_algebra.cache_clear()
