import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylq import Interval, KernelSupportPair, SolveOutcome, Trapezoid
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
    bound_ints,
    cut_ints,
    fit_trapezoid,
)
from conftest import bound_ends

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
    assert cut_ints(tz, 0, 1) == bound_ints(Interval(0, 40))
    assert cut_ints(tz, 1, 2) == cut_ints(tz, 2, 4) == bound_ints(Interval(5, 30))
    assert cut_ints(tz, 1, 1) == bound_ints(Interval(10, 20))


def test_alpha_cut_rim_inverts_the_power():
    linear = RimQuantifier(1)
    assert cut_ints(linear, 3, 10) == bound_ints(Interval(F(3, 10), 1))
    sqrt_like = RimQuantifier(F(1, 2))  # membership p**0.5, cut lo = level**2
    assert cut_ints(sqrt_like, 1, 2) == bound_ints(Interval(F(1, 4), 1))
    most = RimQuantifier(2)  # cut lo = sqrt(level), snapped when irrational
    assert cut_ints(most, 1, 4) == bound_ints(Interval(F(1, 2), 1))


def test_rim_cut_is_exact_up_to_the_power_bound():
    level = F(9, 10)
    assert cut_ints(RimQuantifier(F(1, 64)), 9, 10) == bound_ints(Interval(level**64, 1))
    assert not RimQuantifier(F(1, 64)).rounds and RimQuantifier(F(1, 65)).rounds
    rounded = F(9**65 * 10**9 // 10**65, 10**9)  # 0.9 ** 65 rounded down
    assert cut_ints(RimQuantifier(F(1, 65)), 9, 10) == bound_ints(Interval(rounded, 1))
    # past the root's bit bound, and past the float range, the cut is 0
    assert cut_ints(RimQuantifier(F(1, 10**10)), 9, 10) == bound_ints(Interval(0, 1))
    assert cut_ints(RimQuantifier(F(1, 10**400)), 9, 10) == bound_ints(Interval(0, 1))
    assert cut_ints(RimQuantifier(10**400), 9, 10) == bound_ints(Interval(0, 1))


def test_rounded_rim_cuts_are_the_exact_cut_rounded_down():
    # with 1/e = m/n the exact cut p0 has p0 ** n == level ** m; the cut p is
    # p0 rounded down to a multiple of 1/D, so p ** n <= level ** m < (p + 1/D) ** n
    d = F(1, 10**9)
    wrong, cuts = [], []
    for exponent in (F(3, 2), F(5, 2), F(2, 3), F(7, 10), F(13, 10)):
        m, n = (1 / exponent).as_integer_ratio()
        for i in range(1, 100):
            level = F(i, 100)
            lo_num, lo_den, hi_num, hi_den = cut_ints(RimQuantifier(exponent), i, 100)
            p = F(lo_num, lo_den)
            cuts.append(p)
            assert (hi_num, hi_den) == (1, 1)
            if not p**n <= level**m < (p + d) ** n:
                wrong.append((exponent, level, p))
    assert wrong == [], "%d of 495 cuts" % len(wrong)
    assert all((p / d).denominator == 1 for p in cuts)


def test_cut_reads_support_at_0_and_kernel_at_1():
    tz = Trapezoid(F(1, 10), F(2, 10), F(3, 10), F(4, 10))
    assert cut_ints(tz, 1, 1) == bound_ints(tz.kernel) == (1, 5, 3, 10)
    assert cut_ints(tz, 0, 1) == bound_ints(tz.support) == (1, 10, 2, 5)
    assert cut_ints(Interval(1, 2), 1, 1) == cut_ints(Interval(1, 2), 1, 2) == (1, 1, 2, 1)
    assert cut_ints(RimQuantifier(1), 1, 1) == (1, 1, 1, 1)
    assert cut_ints(RimQuantifier(1), 0, 1) == (0, 1, 1, 1)


def test_cut_reads_pairs_as_trapezoids():
    pair = KernelSupportPair(Interval(F(1, 2), F(3, 4)), Interval(F(1, 4), 1))
    assert cut_ints(pair, 0, 1) == bound_ints(Interval(F(1, 4), 1))
    assert cut_ints(pair, 1, 1) == bound_ints(Interval(F(1, 2), F(3, 4)))
    assert cut_ints(pair, 1, 2) == bound_ints(Interval(F(3, 8), F(7, 8)))
    # an unbounded pair has a support and a kernel but nothing in between
    open_pair = KernelSupportPair(Interval(2, None), Interval(1, None))
    assert cut_ints(open_pair, 0, 2) == (1, 1, None, None)
    assert cut_ints(open_pair, 2, 2) == (2, 1, None, None)
    with pytest.raises(ValueError):
        cut_ints(open_pair, 1, 2)


def cut_interval(shape, p, q):
    """The cut at level p/q as an Interval."""
    return Interval(*bound_ends(cut_ints(shape, p, q)))


def fit_rows(*cuts):
    """Inference rows (level, reading, outcome) with the given (level, lo, hi)."""
    return [(F(level), None, SolveOutcome("bounded", lo, hi)) for level, lo, hi in cuts]


def test_fit_trapezoid_recovers_linear_cuts_exactly():
    tz = Trapezoid(2, 4, 8, 10)
    rows = fit_rows(*((F(i, 4), *bound_ends(cut_ints(tz, i, 4))) for i in range(5)))
    assert fit_trapezoid(rows) == (tz, 0, None)
    # two rows always fit: they are the support and the kernel
    assert fit_trapezoid(rows[::4]) == (tz, 0, None)


def test_fit_trapezoid_names_the_largest_gap_of_a_kinked_stack():
    # the level-1/2 cut [1, 9] lies 1 inside the line from [0, 10] to [4, 6]
    rows = fit_rows((0, F(0), F(10)), (F(1, 2), F(1), F(9)), (1, F(4), F(6)))
    assert fit_trapezoid(rows) == (Trapezoid(0, 4, 6, 10), 1, F(1, 2))
    # the gap at a level is the larger of its two ends' gaps
    rows[1] = fit_rows((F(1, 2), F(2), F(15, 2)))[0]
    assert fit_trapezoid(rows) == (Trapezoid(0, 4, 6, 10), F(1, 2), F(1, 2))
    # of equal gaps, the highest level's is named
    rows = fit_rows(
        (0, F(0), F(10)), (F(1, 4), F(1), F(8)), (F(1, 2), F(2), F(8)),
        (F(3, 4), F(3), F(6)), (1, F(4), F(6)),
    )
    assert fit_trapezoid(rows) == (Trapezoid(0, 4, 6, 10), 1, F(3, 4))


def test_fit_trapezoid_rejects_bad_collections():
    with pytest.raises(ValueError, match="run from level 0 to level 1"):
        fit_trapezoid(fit_rows((F(1, 2), F(0), F(1)), (1, F(0), F(1))))
    with pytest.raises(ValueError, match="run from level 0 to level 1"):
        fit_trapezoid(fit_rows((0, F(0), F(1)), (F(1, 2), F(0), F(1))))
    with pytest.raises(ValueError, match="bounded"):
        fit_trapezoid(fit_rows((0, F(0), None), (1, F(0), None)))
    with pytest.raises(ValueError, match="bounded"):
        fit_trapezoid(fit_rows((0, None, F(1)), (1, F(0), F(1))))
    # not nested: a middle row outside the one below it, or a kernel
    # outside the support
    with pytest.raises(ValueError, match="not nested at level 0.5"):
        fit_trapezoid(fit_rows((0, F(0), F(4)), (F(1, 2), F(0), F(5)), (1, F(1), F(2))))
    with pytest.raises(ValueError):
        fit_trapezoid(fit_rows((0, F(0), F(1)), (1, F(0), F(2))))


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
    inner = cut_interval(tz, high.numerator, high.denominator)
    assert inner.subset_of(cut_interval(tz, low.numerator, low.denominator))


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
