import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylq import SizeGuardError
from sylq.terms import S_MAX, UNIVERSE, And, Not, Or, Prop, atom_mask, atoms_of


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


def holds(expr, member):
    """Truth of a term on one atom, given the atom's membership per name."""
    if isinstance(expr, Prop):
        return member[expr.name]
    if expr == UNIVERSE:
        return True
    if isinstance(expr, Not):
        return not holds(expr.arg, member)
    if isinstance(expr, And):
        return holds(expr.left, member) and holds(expr.right, member)
    return holds(expr.left, member) or holds(expr.right, member)


@st.composite
def sized_terms(draw):
    names = tuple("p%d" % i for i in range(draw(st.integers(1, 6))))
    leaves = st.sampled_from([Prop(name) for name in names] + [UNIVERSE])
    expr = draw(
        st.recursive(
            leaves,
            lambda sub: st.one_of(
                sub.map(Not),
                st.builds(And, sub, sub),
                st.builds(Or, sub, sub),
            ),
            max_leaves=10,
        )
    )
    return names, expr


@settings(derandomize=True, deadline=None, max_examples=200)
@given(sized_terms())
def test_atom_mask_matches_a_truth_table(case):
    names, expr = case
    k = 1 << len(names)
    mask = atom_mask(expr, names)
    assert 0 <= mask < 1 << k
    for atom in range(k):
        member = {name: bool(atom >> bit & 1) for bit, name in enumerate(names)}
        assert bool(mask >> atom & 1) == holds(expr, member)
    assert atoms_of(expr, names) == frozenset(x for x in range(k) if mask >> x & 1)


def test_atom_mask_at_the_property_cap():
    names = tuple("t%d" % i for i in range(S_MAX))
    k = 1 << S_MAX
    probes = (0, 1, 2, 3, 255, 256, 4097, 21845, 43690, 32768, k - 2, k - 1)
    for bit in (0, 1, 7, 8, S_MAX - 1):
        mask = atom_mask(Prop(names[bit]), names)
        assert bin(mask).count("1") == k // 2
        for atom in probes:
            assert mask >> atom & 1 == atom >> bit & 1
        assert atom_mask(Not(Prop(names[bit])), names) == (1 << k) - 1 - mask
    assert atom_mask(UNIVERSE, names) == (1 << k) - 1
    assert atoms_of(And(Prop("t0"), Prop("t15")), names) == frozenset(
        x for x in range(k) if x & 1 and x >> 15
    )
