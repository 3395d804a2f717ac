from fractions import Fraction

import numpy as np
import pytest

from sylq import Interval, SizeGuardError, Syllogism, Trapezoid, enumerate_range
from sylq.oracle import population_totals, statement_predicate
from sylq.quantifiers import (
    ABSOLUTE,
    COMPARATIVE_PROPORTIONAL,
    PROPORTIONAL,
    SIMILARITY,
    QuantifierSpec,
)
from sylq.statements import Conclusion, Statement
from sylq.terms import Prop
from conftest import load_fixture

F = Fraction
P, Q = Prop("p"), Prop("q")
NAMES = ("p", "q")


def stmt(family, shape=None, restriction=P, scope=Q):
    return Statement(QuantifierSpec(family, shape), restriction, scope)


def test_pets_enumeration_pins_three():
    syl = load_fixture("pets_at_home.syl").to_syllogism()
    assert enumerate_range(syl, 10) == Interval(F(3), F(3))


def test_no_premises_ranges_over_everything():
    syl = Syllogism(NAMES, (), Conclusion(ABSOLUTE, P, Q))
    assert enumerate_range(syl, 5) == Interval(F(0), F(5))


def test_declared_universe_fixes_the_total():
    from sylq.terms import UNIVERSE

    syl = Syllogism(
        NAMES, (), Conclusion(ABSOLUTE, UNIVERSE, UNIVERSE), universe_size=F(4)
    )
    assert enumerate_range(syl, 99) == Interval(F(4), F(4))
    fractional = Syllogism(
        NAMES, (), Conclusion(ABSOLUTE, UNIVERSE, UNIVERSE), universe_size=F(9, 2)
    )
    assert enumerate_range(fractional, 99) is None


def test_fractional_measure_is_exact():
    syl = Syllogism(
        NAMES,
        (stmt(ABSOLUTE, Interval(1, 1), P, P),),  # |p| == 1
        Conclusion(SIMILARITY, P, Q),
    )
    # |p & q| / |p | q| over totals <= 3 with |p| = 1: 0, 1/2, 1/3, or 1
    assert enumerate_range(syl, 3) == Interval(F(0), F(1))
    narrowed = Syllogism(
        NAMES,
        (stmt(ABSOLUTE, Interval(1, 1), P, P), stmt(ABSOLUTE, Interval(2, 2), Q, Q)),
        Conclusion(SIMILARITY, P, Q),
    )
    assert enumerate_range(narrowed, 3) == Interval(F(0), F(1, 2))


def test_ratio_premises_never_read_vacuously():
    # |q|/|p| = 1 plus an empty p: no population qualifies, matching the
    # solver's infeasibility instead of a vacuous-truth reading
    from sylq.quantifiers import LOGICAL_NONE
    from sylq.terms import UNIVERSE

    syl = Syllogism(
        NAMES,
        (
            stmt(PROPORTIONAL, Interval(1, 1)),
            stmt(LOGICAL_NONE, None, P, UNIVERSE),
        ),
        Conclusion(ABSOLUTE, P, Q),
    )
    assert enumerate_range(syl, 6) is None


def test_conclusion_denominator_counts_too():
    from sylq.quantifiers import LOGICAL_NONE
    from sylq.terms import UNIVERSE

    syl = Syllogism(
        NAMES,
        (stmt(LOGICAL_NONE, None, P, UNIVERSE),),
        Conclusion(PROPORTIONAL, P, Q),
    )
    assert enumerate_range(syl, 6) is None


def test_fuzzy_premises_need_explicit_bounds():
    syl = Syllogism(
        NAMES,
        (stmt(ABSOLUTE, Trapezoid(0, 1, 2, 3)),),
        Conclusion(ABSOLUTE, P, Q),
    )
    with pytest.raises(ValueError):
        enumerate_range(syl, 4)
    got = enumerate_range(syl, 4, premise_bounds=[Interval(0, 3)])
    assert got == Interval(F(0), F(3))


def test_population_guard_trips_before_blowing_up():
    syl = Syllogism(("p", "q", "r"), (), Conclusion(ABSOLUTE, P, Q))
    with pytest.raises(SizeGuardError):
        enumerate_range(syl, 60)


def test_population_guard_reads_only_the_size():
    # S = 5 with no premises: 2^5 atoms, so cap 20 is refused and cap 3 is not
    names = ("p", "q", "r", "s", "t")
    syl = Syllogism(names, (), Conclusion(ABSOLUTE, P, Q))
    with pytest.raises(SizeGuardError, match="enumerating 125994627894135 populations"):
        population_totals(syl, 20)
    assert population_totals(syl, 3) == [0, 1, 2, 3]
    # a fractional universe has no integer population, whatever the cap
    half = Syllogism(names, (), Conclusion(ABSOLUTE, P, Q), universe_size=F(21, 2))
    assert population_totals(half, 20) is None
    assert enumerate_range(half, 20) is None


def test_negative_cap_is_rejected():
    # a negative cap is a caller error, not "no population"
    syl = load_fixture("pets_at_home.syl").to_syllogism()
    with pytest.raises(ValueError, match="cap must be a nonnegative integer"):
        enumerate_range(syl, -1)


def test_statement_predicate_edge_conventions():
    counts = np.array(
        [
            [2, 0, 0, 0],  # p and q both empty except atom 0
            [0, 1, 0, 0],  # p nonempty, q empty
            [0, 0, 1, 1],  # q = 2, p = 1 (atom 3)
        ],
        dtype=np.int64,
    )
    prop = stmt(PROPORTIONAL, Interval(1, 1))
    # row 1: empty restriction reads vacuously true in the raw table
    # row 3: the single p element lies in q, so the ratio is exactly 1
    assert statement_predicate(prop, Interval(1, 1), NAMES, counts).tolist() == [
        True,
        False,
        True,
    ]
    cmp_eq = stmt(COMPARATIVE_PROPORTIONAL, Interval(1, 1))
    # |p| = 1*|q|: empty q tolerates only empty p
    assert statement_predicate(cmp_eq, Interval(1, 1), NAMES, counts).tolist() == [
        True,
        False,
        False,
    ]
    sim = stmt(SIMILARITY, Interval(F(1, 2), 1))
    assert statement_predicate(sim, Interval(F(1, 2), 1), NAMES, counts).tolist() == [
        True,
        False,
        True,
    ]


def test_term_sets_are_computed_once_per_enumeration(monkeypatch):
    from sylq import terms

    calls = []
    real = terms.atom_mask

    def counting(expr, properties):
        calls.append(expr)
        return real(expr, properties)

    # atoms_of reads the module's atom_mask
    monkeypatch.setattr(terms, "atom_mask", counting)
    syl = load_fixture("pets_at_home.syl").to_syllogism()
    assert enumerate_range(syl, 6) == Interval(F(3), F(3))
    # a restriction and a scope set for each premise and the conclusion
    assert len(calls) == 2 * (len(syl.premises) + 1)
