import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylq import SizeGuardError, Syllogism
from sylq.quantifiers import ABSOLUTE
from sylq.statements import Conclusion
from sylq.terms import S_MAX, UNIVERSE, And, Not, Or, Prop, property_masks, term_mask


def mask_of(expr, names):
    """A term's atom mask over names, as Syllogism.term_sets builds it."""
    return term_mask(expr, property_masks(names), (1 << (1 << len(names))) - 1)


def test_single_property_mask():
    # the first declared property owns the low bit: p holds in atoms 01, 11
    assert property_masks(("p", "q")) == {"p": 0b1010, "q": 0b1100}
    assert mask_of(Prop("p"), ("p", "q")) == 0b1010


def test_boolean_operators():
    p, q = Prop("p"), Prop("q")
    names = ("p", "q")
    assert mask_of(And(p, q), names) == 0b1000
    assert mask_of(Or(p, q), names) == 0b1110
    assert mask_of(Not(Or(p, q)), names) == 0b0001
    assert mask_of(UNIVERSE, names) == 0b1111
    assert mask_of(Not(UNIVERSE), names) == 0


def test_de_morgan():
    p, q, r = Prop("p"), Prop("q"), Prop("r")
    names = ("p", "q", "r")
    left = mask_of(Not(And(p, Or(q, r))), names)
    right = mask_of(Or(Not(p), And(Not(q), Not(r))), names)
    assert left == right


def test_unknown_property_is_named():
    with pytest.raises(KeyError, match="z"):
        mask_of(Prop("z"), ("p", "q"))


def test_property_count_guard():
    names = tuple("t%d" % i for i in range(S_MAX + 1))
    with pytest.raises(SizeGuardError):
        property_masks(names)
    # a syllogism builds its masks, so the guard fires when it is built
    with pytest.raises(SizeGuardError, match="S=17"):
        Syllogism(names, (), Conclusion(ABSOLUTE, Prop("t0"), Prop("t1")))


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
def test_term_mask_matches_a_truth_table(case):
    names, expr = case
    k = 1 << len(names)
    mask = mask_of(expr, names)
    assert 0 <= mask < 1 << k
    for atom in range(k):
        member = {name: bool(atom >> bit & 1) for bit, name in enumerate(names)}
        assert bool(mask >> atom & 1) == holds(expr, member)


def test_term_mask_at_the_property_cap():
    names = tuple("t%d" % i for i in range(S_MAX))
    k = 1 << S_MAX
    probes = (0, 1, 2, 3, 255, 256, 4097, 21845, 43690, 32768, k - 2, k - 1)
    for bit in (0, 1, 7, 8, S_MAX - 1):
        mask = mask_of(Prop(names[bit]), names)
        assert bin(mask).count("1") == k // 2
        for atom in probes:
            assert mask >> atom & 1 == atom >> bit & 1
        assert mask_of(Not(Prop(names[bit])), names) == (1 << k) - 1 - mask
    assert mask_of(UNIVERSE, names) == (1 << k) - 1
    both = mask_of(And(Prop("t0"), Prop("t15")), names)
    assert [x for x in range(k) if both >> x & 1] == [x for x in range(k) if x & 1 and x >> 15]
