import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylq import Interval, KernelSupportPair, Trapezoid
from sylq.quantifiers import (
    COMPARATIVE_ABSOLUTE,
    FAMILIES,
    LOGICAL_FAMILIES,
    PROPORTIONAL,
    RATIO_FAMILIES,
    SIMILARITY,
    QuantifierSpec,
    RimQuantifier,
    as_fraction,
    cut,
    cut_ints,
    fit_trapezoid,
)

F = Fraction


def test_as_fraction_is_exact_for_strings_and_snaps_floats():
    assert as_fraction("0.7") == F(7, 10)
    assert as_fraction("2/3") == F(2, 3)
    assert as_fraction(3) == F(3)
    assert as_fraction(0.1) == F(1, 10)  # snapped, not 3602879701896397/2**55
    assert as_fraction(F(5, 8)) == F(5, 8)


def test_interval_validation_and_queries():
    iv = Interval(F(1, 4), F(3, 4))
    assert iv.subset_of(Interval(0, 1))
    assert not Interval(0, 1).subset_of(iv)

    open_ended = Interval(2, None)
    assert not open_ended.subset_of(Interval(0, 100))
    assert open_ended.subset_of(Interval(0, None))

    with pytest.raises(ValueError):
        Interval(3, 2)


def test_trapezoid_orders_knots_and_exposes_kernel_support():
    tz = Trapezoid(1, 2, 4, 6)
    assert tz.kernel == Interval(2, 4)
    assert tz.support == Interval(1, 6)
    assert tz.as_tuple() == (1, 2, 4, 6)
    with pytest.raises(ValueError):
        Trapezoid(1, 3, 2, 6)


def test_kernel_support_pair_requires_nesting():
    KernelSupportPair(Interval(2, 3), Interval(1, 4))
    with pytest.raises(ValueError):
        KernelSupportPair(Interval(0, 5), Interval(1, 4))


def test_rim_quantifier_needs_positive_exponent():
    RimQuantifier(F(1, 2))
    with pytest.raises(ValueError):
        RimQuantifier(0)


def test_alpha_cut_trapezoid_interpolates_sides():
    tz = Trapezoid(0, 10, 20, 40)
    assert cut(tz, 0) == Interval(0, 40)
    assert cut(tz, F(1, 2)) == Interval(5, 30)
    assert cut(tz, 1) == Interval(10, 20)
    with pytest.raises(ValueError):
        cut(tz, F(3, 2))


def test_alpha_cut_rim_inverts_the_power():
    linear = RimQuantifier(1)
    assert cut(linear, F(3, 10)) == Interval(F(3, 10), 1)
    sqrt_like = RimQuantifier(F(1, 2))  # membership p**0.5, cut lo = level**2
    assert cut(sqrt_like, F(1, 2)) == Interval(F(1, 4), 1)
    most = RimQuantifier(2)  # cut lo = sqrt(level), snapped when irrational
    lo = cut(most, F(1, 4)).lo
    assert lo == F(1, 2)


def test_rim_cut_is_exact_up_to_the_power_bound():
    level = F(9, 10)
    assert cut(RimQuantifier(F(1, 64)), level).lo == level**64
    snapped = F(0.9**65).limit_denominator(10**9)
    assert cut(RimQuantifier(F(1, 65)), level).lo == snapped
    assert cut(RimQuantifier(F(1, 10**10)), level) == Interval(0, 1)
    # 1/e past the float range
    assert cut(RimQuantifier(F(1, 10**400)), level) == Interval(0, 1)


def test_cut_reads_support_at_0_and_kernel_at_1():
    tz = Trapezoid(F(1, 10), F(2, 10), F(3, 10), F(4, 10))
    assert cut(tz, 1) == tz.kernel == Interval(F(2, 10), F(3, 10))
    assert cut(tz, 0) == tz.support == Interval(F(1, 10), F(4, 10))
    assert cut(Interval(1, 2), 1) == cut(Interval(1, 2), F(1, 2)) == Interval(1, 2)
    assert cut(RimQuantifier(1), 1) == Interval(1, 1)
    assert cut(RimQuantifier(1), 0) == Interval(0, 1)
    with pytest.raises(ValueError):
        cut(Interval(1, 2), -1)


def test_cut_reads_pairs_as_trapezoids():
    pair = KernelSupportPair(Interval(F(1, 2), F(3, 4)), Interval(F(1, 4), 1))
    assert cut(pair, 0) == Interval(F(1, 4), 1)
    assert cut(pair, 1) == Interval(F(1, 2), F(3, 4))
    assert cut(pair, F(1, 2)) == Interval(F(3, 8), F(7, 8))
    # an unbounded pair has a support and a kernel but nothing in between
    open_pair = KernelSupportPair(Interval(2, None), Interval(1, None))
    assert cut(open_pair, 0) == Interval(1, None)
    assert cut(open_pair, 1) == Interval(2, None)
    with pytest.raises(ValueError):
        cut(open_pair, F(1, 2))


def test_fit_trapezoid_recovers_linear_cuts_exactly():
    tz = Trapezoid(2, 4, 8, 10)
    cuts = [(F(i, 4), cut(tz, F(i, 4))) for i in range(5)]
    assert fit_trapezoid(cuts) == tz


def test_fit_trapezoid_tops_out_at_the_highest_given_level():
    cuts = [(0, Interval(0, 10)), (F(1, 2), Interval(2, 8))]
    fitted = fit_trapezoid(cuts)
    assert fitted == Trapezoid(0, 2, 8, 10)
    # the kernel is the level-1/2 cut, not an extrapolation to level 1
    assert fitted.kernel == cuts[-1][1]


def test_fit_trapezoid_rejects_bad_collections():
    with pytest.raises(ValueError):
        fit_trapezoid([])
    with pytest.raises(ValueError):
        fit_trapezoid([(F(1, 2), Interval(0, 1))])  # must start at level 0
    with pytest.raises(ValueError):
        fit_trapezoid([(0, Interval(0, 1)), (0, Interval(0, 1))])
    with pytest.raises(ValueError):
        fit_trapezoid([(0, Interval(0, 1)), (1, Interval(0, 2))])  # not nested
    with pytest.raises(ValueError):
        fit_trapezoid([(0, Interval(0, None))])


knots = st.lists(
    st.fractions(min_value=0, max_value=10, max_denominator=8),
    min_size=4,
    max_size=4,
).map(sorted)
levels = st.fractions(min_value=0, max_value=1, max_denominator=16)


@given(knots=knots, lam1=levels, lam2=levels)
def test_alpha_cuts_nest_by_construction(knots, lam1, lam2):
    tz = Trapezoid(*knots)
    low, high = min(lam1, lam2), max(lam1, lam2)
    assert cut(tz, high).subset_of(cut(tz, low))


# ------------------------------------------------- premise cuts on a grid

bound = st.fractions(min_value=0, max_value=5, max_denominator=20)


@st.composite
def shapes(draw):
    kind = draw(st.sampled_from(("logical", "interval", "trapezoid", "kersup", "rim")))
    if kind == "logical":
        return None
    if kind == "rim":
        # 1/2 and 1/3 take the exact power, the rest the snapped float one
        exponent = draw(st.one_of(st.sampled_from((F(1, 2), F(1, 3))), bound.filter(bool)))
        return RimQuantifier(exponent)
    ends = sorted(draw(st.lists(bound, min_size=4, max_size=4)))
    if kind == "trapezoid":
        return Trapezoid(*ends)
    a, b, c, d = ends
    if kind == "interval":
        return Interval(a, draw(st.sampled_from((d, None))))
    kernel_hi, support_hi = draw(st.sampled_from(((c, d), (c, None), (None, None))))
    return KernelSupportPair(Interval(b, kernel_hi), Interval(a, support_hi))


def _formula_cut(shape, lam):
    """(lo, hi) of the cut at Fraction level lam, by the textbook formula:
    a + lam (b - a) and d - lam (d - c) for a trapezoid or a bounded pair,
    the pair's support at 0 and kernel at 1, and lam ** n for RIM when the
    inverse exponent is an integer n <= 64 (None for a snapped RIM cut)."""
    if isinstance(shape, Interval):
        return shape.lo, shape.hi
    if isinstance(shape, RimQuantifier):
        inv = 1 / shape.exponent
        if inv.denominator == 1 and inv <= 64:
            return lam ** inv.numerator, F(1)
        return (lam, F(1)) if lam in (0, 1) else None
    if isinstance(shape, KernelSupportPair):
        if lam in (0, 1):
            iv = shape.kernel if lam else shape.support
            return iv.lo, iv.hi
        a, b, c, d = shape.support.lo, shape.kernel.lo, shape.kernel.hi, shape.support.hi
    else:
        a, b, c, d = shape.as_tuple()
    return a + lam * (b - a), d - lam * (d - c)


def _check_cut_ints(shape, p, q):
    lam = F(p, q)
    if shape is None:
        with pytest.raises(TypeError, match="no cut for shape None"):
            cut_ints(shape, p, q)
        return
    if isinstance(shape, KernelSupportPair) and 0 < lam < 1:
        if shape.support.hi is None or shape.kernel.hi is None:
            with pytest.raises(ValueError, match="cannot interpolate an unbounded"):
                cut_ints(shape, p, q)
            return
    lo_num, lo_den, hi_num, hi_den = cut_ints(shape, p, q)
    # each end in lowest terms with a positive denominator, so equal
    # bounds are equal int tuples
    assert lo_den > 0 and gcd(lo_num, lo_den) == 1
    if hi_num is None:
        assert hi_den is None
    else:
        assert hi_den > 0 and gcd(hi_num, hi_den) == 1
    lo, hi = F(lo_num, lo_den), None if hi_num is None else F(hi_num, hi_den)
    want = _formula_cut(shape, lam)
    if want is None:  # level ** (1 / exponent) through floats, then snapped
        assert hi == 1
        assert abs(float(lo) - float(lam) ** float(1 / shape.exponent)) <= 1e-9
    else:
        assert (lo, hi) == want


@st.composite
def any_level(draw):
    q = draw(st.integers(1, 10**9))
    return draw(st.integers(0, q)), q


@settings(derandomize=True, deadline=None, max_examples=300)
@given(shapes(), st.integers(2, 41), any_level())
def test_level_cuts_equal_the_generic_cut(shape, levels, level):
    # cut_ints against the Fraction formula at every level of a grid, in
    # the grid's unreduced terms as infer reads them, and at a random level
    for p, q in [*((i, levels - 1) for i in range(levels)), level]:
        _check_cut_ints(shape, p, q)


# ------------------------------------------- QuantifierSpec's level-0 check

SPEC_SHAPES = {
    "none": None,
    "interval-below-0": Interval(-1, 1),
    "interval-above-1": Interval(0, 2),
    "trapezoid-below-0": Trapezoid(-1, 0, 1, 1),
    "trapezoid-above-1": Trapezoid(0, 1, 1, 2),
    "kersup-below-0": KernelSupportPair(Interval(0, 1), Interval(-1, 1)),
    "kersup-above-1": KernelSupportPair(Interval(0, 1), Interval(0, 2)),
    "rim": RimQuantifier(2),
    "not-a-shape": F(1, 2),
}


def _spec_error(kind, family):
    """The error QuantifierSpec(family, SPEC_SHAPES[kind]) raises, or None."""
    if family in LOGICAL_FAMILIES:
        if kind == "none":
            return None
        return ValueError, "logical quantifier %s carries no bound shape" % family
    if kind == "none":
        return ValueError, "quantifier %s needs a bound shape" % family
    if kind == "rim":
        if family in RATIO_FAMILIES:
            return None
        return ValueError, "RIM shapes define proportions; family %s uses counts" % family
    if kind == "not-a-shape":
        return TypeError, "no cut for shape Fraction(1, 2)"
    # the unit check reads the level-0 cut, here [-1, 1] or [0, 2]
    if family in (PROPORTIONAL, SIMILARITY):
        return ValueError, "%s bounds must lie inside [0, 1]" % family
    if kind.endswith("below-0") and family != COMPARATIVE_ABSOLUTE:
        return ValueError, "%s bounds must be nonnegative" % family
    return None


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("kind", SPEC_SHAPES)
def test_quantifier_spec_checks_family_and_level_0_cut(kind, family):
    error = _spec_error(kind, family)
    if error is None:
        assert QuantifierSpec(family, SPEC_SHAPES[kind]).shape is SPEC_SHAPES[kind]
        return
    exc, message = error
    with pytest.raises(exc, match="^%s$" % re.escape(message)):
        QuantifierSpec(family, SPEC_SHAPES[kind])
