from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylq import Interval, KernelSupportPair, Trapezoid
from sylq.quantifiers import RimQuantifier, as_fraction, cut, fit_trapezoid, grid_cuts

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


@settings(derandomize=True, deadline=None, max_examples=300)
@given(shapes(), st.integers(2, 41))
def test_level_cuts_equal_the_generic_cut(shape, levels):
    # grid_cuts gives cut(shape, i/(levels-1)) as ints in lowest terms, so
    # equal bounds are equal int tuples
    cuts = grid_cuts(shape, levels)
    for i in range(levels):
        if shape is None:
            assert next(cuts) is None
            continue
        try:
            want = cut(shape, F(i, levels - 1))
        except ValueError as exc:  # an unbounded pair between its ends
            with pytest.raises(ValueError, match=str(exc)):
                next(cuts)
            return
        lo_num, lo_den, hi_num, hi_den = next(cuts)
        assert (lo_num, lo_den) == (want.lo.numerator, want.lo.denominator)
        if want.hi is None:
            assert (hi_num, hi_den) == (None, None)
        else:
            assert (hi_num, hi_den) == (want.hi.numerator, want.hi.denominator)
    assert next(cuts, "done") == "done"
