from fractions import Fraction

from sylq import (
    ABSOLUTE,
    COMPARATIVE_ABSOLUTE,
    LOGICAL_SOME,
    PROPORTIONAL,
    Conclusion,
    Constraint,
    Interval,
    LinearExpr,
    Prop,
    QuantifierSpec,
    Statement,
    Syllogism,
    compile_syllogism,
    rewrite_strict,
    solve,
)
from conftest import load_fixture

F = Fraction
P, Q = Prop("p"), Prop("q")
NAMES = ("p", "q")


def crisp_bounds(syl):
    return [prem.quantifier.shape for prem in syl.premises]


def build(premises, conclusion, universe=None):
    syl = Syllogism(NAMES, tuple(premises), conclusion, universe_size=universe)
    return compile_syllogism(syl, crisp_bounds(syl))


def stmt(family, shape=None, restriction=P, scope=Q):
    return Statement(QuantifierSpec(family, shape), restriction, scope)


def test_rewrite_strict_count_moves_by_one():
    row = Constraint(LinearExpr.of({3: F(1)}), ">", F(0))
    [out] = rewrite_strict([row], k=4, proportional_context=False)
    assert (out.rel, out.rhs) == (">=", F(1))
    assert out.expr.as_dict() == {3: F(1)}


def test_rewrite_strict_proportion_with_declared_universe():
    row = Constraint(LinearExpr.of({1: F(1), 3: F(1)}), ">", F(0))
    [out] = rewrite_strict(
        [row], k=4, proportional_context=True, universe_size=F(1)
    )
    assert (out.rel, out.rhs) == (">=", F(1, 10**6))


def test_rewrite_strict_proportion_folds_total_when_universe_is_free():
    eps = F(1, 10**6)
    row = Constraint(LinearExpr.of({1: F(1), 3: F(1)}), ">", F(0))
    [out] = rewrite_strict([row], k=4, proportional_context=True)
    assert out.rel == ">="
    assert out.expr.as_dict() == {0: -eps, 1: 1 - eps, 2: -eps, 3: 1 - eps}
    assert out.rhs == F(0)


def test_rewrite_strict_keeps_weak_rows_untouched():
    row = Constraint(LinearExpr.of({0: F(1)}), "<=", F(5))
    assert rewrite_strict([row], k=4, proportional_context=False) == [row]


def test_bounded_count_band_comes_back_exactly():
    system = build([stmt(ABSOLUTE, Interval(2, 6))], Conclusion(ABSOLUTE, P, Q))
    outcome = solve(system)
    assert outcome.status == "bounded"
    assert (outcome.lo, outcome.hi) == (F(2), F(6))


def test_point_proportion_premise_pins_the_conclusion():
    bound = Interval(F(2, 5), F(2, 5))
    system = build([stmt(PROPORTIONAL, bound)], Conclusion(PROPORTIONAL, P, Q))
    outcome = solve(system)
    assert outcome.status == "bounded"
    assert (outcome.lo, outcome.hi) == (F(2, 5), F(2, 5))


def test_unbounded_above_floors_the_reported_lo():
    system = build([stmt(LOGICAL_SOME)], Conclusion(ABSOLUTE, P, Q))
    outcome = solve(system)
    assert outcome.status == "unbounded-above"
    assert outcome.hi is None
    assert outcome.lo == 0  # reported floor
    assert outcome.attained_lo == 1  # true minimum under the count margin


def test_margin_choice_does_not_move_the_pets_answer():
    syl = load_fixture("pets_at_home.syl").to_syllogism()
    system = compile_syllogism(syl, crisp_bounds(syl))
    for eps in (F(1), F(1, 10**6)):
        outcome = solve(system, eps_count=eps)
        assert (outcome.lo, outcome.hi) == (F(3), F(3))


def test_difference_objective_can_be_unbounded_below():
    system = build(
        [stmt(ABSOLUTE, Interval(0, 3), P, P)],  # |p| <= 3
        Conclusion(COMPARATIVE_ABSOLUTE, P, Q),
    )
    outcome = solve(system)
    assert outcome.status == "unbounded-below"
    assert outcome.lo is None
    assert outcome.hi == F(3)


def test_difference_objective_can_be_unbounded_both_ways():
    system = build([stmt(LOGICAL_SOME)], Conclusion(COMPARATIVE_ABSOLUTE, P, Q))
    outcome = solve(system)
    assert outcome.status == "unbounded"
    assert outcome.lo is None and outcome.hi is None


def test_empty_denominator_is_infeasible_not_vacuous():
    from sylq import LOGICAL_NONE, UNIVERSE

    system = build(
        [stmt(LOGICAL_NONE, None, P, UNIVERSE)],  # p is empty
        Conclusion(PROPORTIONAL, P, Q),
    )
    outcome = solve(system)
    assert outcome.status == "infeasible"


def test_fractional_bounds_scale_with_nothing():
    # a ratio band plus a declared universe: answer equals the band
    system = build(
        [stmt(PROPORTIONAL, Interval(F(1, 3), F(1, 2)))],
        Conclusion(PROPORTIONAL, P, Q),
        universe=F(12),
    )
    outcome = solve(system)
    assert (outcome.lo, outcome.hi) == (F(1, 3), F(1, 2))
