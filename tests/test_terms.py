import pytest

from sylq import SizeGuardError
from sylq.terms import UNIVERSE, And, Not, Or, Prop, atoms_of


def test_atoms_of_single_property():
    # the first declared property owns the low bit: p holds in atoms 01, 11
    assert atoms_of(Prop("p"), ("p", "q")) == frozenset({1, 3})
    assert atoms_of(Prop("q"), ("p", "q")) == frozenset({2, 3})


def test_atoms_of_boolean_operators():
    p, q = Prop("p"), Prop("q")
    names = ("p", "q")
    assert atoms_of(And(p, q), names) == frozenset({3})
    assert atoms_of(Or(p, q), names) == frozenset({1, 2, 3})
    assert atoms_of(Not(Or(p, q)), names) == frozenset({0})
    assert atoms_of(UNIVERSE, names) == frozenset(range(4))
    assert atoms_of(Not(UNIVERSE), names) == frozenset()


def test_atoms_of_de_morgan():
    p, q, r = Prop("p"), Prop("q"), Prop("r")
    names = ("p", "q", "r")
    left = atoms_of(Not(And(p, Or(q, r))), names)
    right = atoms_of(Or(Not(p), And(Not(q), Not(r))), names)
    assert left == right


def test_atoms_of_unknown_property():
    with pytest.raises(ValueError):
        atoms_of(Prop("z"), ("p", "q"))


def test_property_count_guard():
    names = tuple("t%d" % i for i in range(17))
    with pytest.raises(SizeGuardError):
        atoms_of(Prop("t0"), names)
