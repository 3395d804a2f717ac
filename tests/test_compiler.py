from fractions import Fraction

import pytest

from sylq import Interval, Syllogism, UnitMixingError
from sylq.compiler import (
    Constraint,
    LinearExpr,
    Objective,
    build_objective,
    compile_statement,
    compile_syllogism,
    structural_constraints,
)
from sylq.quantifiers import (
    ABSOLUTE,
    COMPARATIVE_ABSOLUTE,
    COMPARATIVE_PROPORTIONAL,
    EXCEPTION,
    LOGICAL_ALL,
    LOGICAL_NOT_ALL,
    LOGICAL_SOME,
    PROPORTIONAL,
    SIMILARITY,
    QuantifierSpec,
)
from sylq.statements import Conclusion, Statement
from sylq.terms import UNIVERSE, And, Not, Or, Prop

F = Fraction
P, Q = Prop("p"), Prop("q")
NAMES = ("p", "q")


def row_dicts(rows):
    return [(r.expr.as_dict(), r.rel, r.rhs) for r in rows]


def stmt(family, shape, restriction=P, scope=Q):
    return Statement(QuantifierSpec(family, shape), restriction, scope)


def test_logical_rows():
    # over (p, q): p = {1, 3}, q = {2, 3}
    [row] = compile_statement(stmt(LOGICAL_ALL, None), None, NAMES)
    assert row_dicts([row]) == [({1: F(1)}, "==", F(0))]

    [row] = compile_statement(stmt(LOGICAL_SOME, None), None, NAMES)
    assert row_dicts([row]) == [({3: F(1)}, ">", F(0))]

    [row] = compile_statement(stmt(LOGICAL_NOT_ALL, None), None, NAMES)
    assert row_dicts([row]) == [({1: F(1)}, ">", F(0))]
    assert row.is_strict


def test_absolute_band_is_two_one_sided_rows():
    lo_row, hi_row = compile_statement(stmt(ABSOLUTE, Interval(3, 6)), Interval(3, 6), NAMES)
    assert (lo_row.rel, lo_row.rhs) == (">=", F(3))
    assert (hi_row.rel, hi_row.rhs) == ("<=", F(6))
    assert lo_row.expr.as_dict() == {3: F(1)}


def test_unbounded_hi_emits_only_the_lower_row():
    rows = compile_statement(stmt(ABSOLUTE, Interval(3, None)), Interval(3, None), NAMES)
    assert len(rows) == 1 and rows[0].rel == ">="


def test_exception_counts_the_left_difference():
    rows = compile_statement(stmt(EXCEPTION, Interval(2, 2)), Interval(2, 2), NAMES)
    assert [r.expr.as_dict() for r in rows] == [{1: F(1)}, {1: F(1)}]
    assert [(r.rel, r.rhs) for r in rows] == [(">=", F(2)), ("<=", F(2))]


def test_proportional_rows_cross_multiply():
    bound = Interval(F(1, 3), F(2, 3))
    lo_row, hi_row = compile_statement(stmt(PROPORTIONAL, bound), bound, NAMES)
    # num - lo*den >= 0 over num = x3, den = x1 + x3
    assert lo_row.expr.as_dict() == {1: -F(1, 3), 3: F(2, 3)}
    assert (lo_row.rel, lo_row.rhs) == (">=", F(0))
    assert hi_row.expr.as_dict() == {1: -F(2, 3), 3: F(1, 3)}
    assert (hi_row.rel, hi_row.rhs) == ("<=", F(0))


def test_comparative_rows():
    bound = Interval(-1, 2)
    rows = compile_statement(stmt(COMPARATIVE_ABSOLUTE, bound), bound, NAMES)
    assert rows[0].expr.as_dict() == {1: F(1), 2: -F(1)}

    bound = Interval(F(1, 2), 2)
    rows = compile_statement(stmt(COMPARATIVE_PROPORTIONAL, bound), bound, NAMES)
    # |p| - lo*|q| >= 0
    assert rows[0].expr.as_dict() == {1: F(1), 2: -F(1, 2), 3: F(1, 2)}


def test_similarity_rows_use_the_union_denominator():
    bound = Interval(F(1, 2), 1)
    lo_row, hi_row = compile_statement(stmt(SIMILARITY, bound), bound, NAMES)
    assert lo_row.expr.as_dict() == {1: -F(1, 2), 2: -F(1, 2), 3: F(1, 2)}
    assert hi_row.expr.as_dict() == {1: -F(1), 2: -F(1)}


def test_bound_unit_checks():
    with pytest.raises(ValueError):
        compile_statement(stmt(PROPORTIONAL, Interval(0, 1)), Interval(0, 2), NAMES)
    with pytest.raises(ValueError):
        compile_statement(stmt(ABSOLUTE, Interval(0, 1)), Interval(-1, 1), NAMES)


def count_syllogism(universe=None):
    return Syllogism(
        NAMES,
        (stmt(ABSOLUTE, Interval(1, 2)),),
        Conclusion(ABSOLUTE, P, Q),
        universe_size=universe,
    )


def test_structural_rows_nonnegativity_and_universe():
    syl = count_syllogism(universe=F(7))
    rows, has_ratio = structural_constraints(
        syl.premises, syl.conclusion, syl.properties, syl.universe_size
    )
    assert not has_ratio
    # x >= 0 is the solver's domain, not a row: only the universe equation
    assert rows == [Constraint(LinearExpr.of({0: 1, 1: 1, 2: 1, 3: 1}), "==", 7)]


def test_structural_rows_force_ratio_denominators_positive():
    syl = Syllogism(
        NAMES,
        (stmt(PROPORTIONAL, Interval(0, 1)),),
        Conclusion(SIMILARITY, Q, Not(P)),
    )
    rows, has_ratio = structural_constraints(
        syl.premises, syl.conclusion, syl.properties, None
    )
    assert has_ratio
    strict = [r for r in rows if r.rel == ">"]
    # premise denominator |p|, conclusion denominator |q or not p|
    assert [r.expr.as_dict() for r in strict] == [
        {1: F(1), 3: F(1)},
        {0: F(1), 2: F(1), 3: F(1)},
    ]


def test_unit_mixing_needs_a_declared_universe():
    premises = (
        stmt(ABSOLUTE, Interval(1, 2)),
        stmt(PROPORTIONAL, Interval(F(1, 2), 1)),
    )
    conclusion = Conclusion(ABSOLUTE, P, Q)
    with pytest.raises(UnitMixingError):
        structural_constraints(premises, conclusion, NAMES, None)
    rows, _ = structural_constraints(premises, conclusion, NAMES, F(5))
    assert any(r.rel == "==" for r in rows)


def test_objectives():
    objective = build_objective(Conclusion(ABSOLUTE, P, Q), NAMES)
    assert objective.numerator.as_dict() == {3: F(1)}
    assert objective.denominator is None

    objective = build_objective(Conclusion(PROPORTIONAL, P, Q), NAMES)
    assert objective.denominator.as_dict() == {1: F(1), 3: F(1)}

    objective = build_objective(Conclusion(COMPARATIVE_ABSOLUTE, P, Q), NAMES)
    assert objective.numerator.as_dict() == {1: F(1), 2: -F(1)}

    with pytest.raises(ValueError):
        Conclusion(LOGICAL_ALL, P, Q)


def test_ratio_denominator_signs_read_per_atom():
    # 2*S_A - S_B is a nonnegative atom sum exactly when B lies inside A
    a = frozenset({1, 3})
    numerator = LinearExpr.sum_over({3})
    Objective(numerator, LinearExpr(((a, F(2)), (frozenset({3}), F(-1)))))
    with pytest.raises(ValueError, match="nonnegative atom sums"):
        Objective(numerator, LinearExpr(((a, F(2)), (frozenset({2, 3}), F(-1)))))


def test_compile_syllogism_checks_bound_count():
    syl = count_syllogism()
    with pytest.raises(ValueError):
        compile_syllogism(syl, [])


def test_compile_syllogism_assembles_everything():
    syl = Syllogism(
        NAMES,
        (
            stmt(PROPORTIONAL, Interval(F(1, 2), 1), UNIVERSE, P),
            Statement(QuantifierSpec(LOGICAL_SOME), Q, And(P, Q)),
        ),
        Conclusion(PROPORTIONAL, UNIVERSE, Or(P, Q)),
    )
    system = compile_syllogism(syl, [Interval(F(1, 2), 1), None])
    assert system.k == 4
    assert system.proportional_context
    assert system.objective.denominator is not None
    # premise rows + strict some-row + 2 denominators
    assert len(system.constraints) == 2 + 1 + 2


def test_linear_expr_helpers():
    expr = LinearExpr.of({0: F(2), 2: F(1)})
    other = LinearExpr.of({1: F(4), 2: F(1)})
    assert expr.plus(other) == LinearExpr.of({0: 2, 1: 4, 2: 2})
    assert expr.plus(expr) == LinearExpr.of({0: 4, 2: 2})
    # a coefficient that cancels drops out of the sparse row
    assert expr.plus(other, -1) == LinearExpr.of({0: 2, 1: -4})
    assert expr.plus(expr, -1) == LinearExpr.of({})
    assert expr.plus(other, F(1, 2)) == LinearExpr.of({0: 2, 1: 2, 2: F(3, 2)})
    assert expr.plus(other, F(1, 2)).coeffs == ((0, 2), (1, 2), (2, F(3, 2)))
