"""End-to-end checks over the bundled syllogisms plus the property suites.

Each criterion is one test function; the conftest hook prints a one-line
PASS/FAIL verdict per criterion after the run.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from sylq import (
    InfeasiblePremisesError,
    InferenceConfig,
    Interval,
    Syllogism,
    Trapezoid,
    enumerate_range,
    infer,
)
from sylq.compiler import compile_syllogism
from sylq.optimizer import solve
from sylq.oracle import _compositions, statement_predicate
from sylq.quantifiers import bound_ints, cut_ints

from conftest import (
    bound_ends,
    int_bounds,
    load_fixture,
    random_crisp_syllogism,
    random_fuzzy_syllogism,
)
from reference_lp import compile_statement, term_masks

F = Fraction


def with_premises(syl, premises):
    return Syllogism(syl.properties, tuple(premises), syl.conclusion, syl.universe_size)


def cut_ends(shape, level):
    """(lo, hi) of shape's cut at a Fraction level."""
    return bound_ends(cut_ints(shape, level.numerator, level.denominator))


# ---------------------------------------------------------------------------
# criterion 1: counting pets, and what missing premises look like


def test_criterion_1_pets_crisp_counts():
    syl = load_fixture("pets_at_home.syl").to_syllogism()

    full = infer(syl, mode="crisp")
    assert abs(full.crisp.lo - 3) <= 1e-9
    assert abs(full.crisp.hi - 3) <= 1e-9
    assert full.outcomes[0].status == "bounded"

    # drop the two closure premises (every animal is a dog, cat or parrot)
    opened = with_premises(syl, syl.premises[:3] + syl.premises[5:])
    part = infer(opened, mode="crisp")
    assert abs(part.crisp.lo - 2) <= 1e-9
    assert abs(part.crisp.hi - 3) <= 1e-9

    # the three exception premises alone leave the total unbounded
    bare = with_premises(syl, syl.premises[:3])
    loose = infer(bare, mode="crisp")
    assert loose.outcomes[0].status == "unbounded-above"
    assert loose.crisp.lo == 2
    assert loose.crisp.hi is None


# ---------------------------------------------------------------------------
# criterion 2: crisp ratio conclusion via the fractional solver


def test_criterion_2_course_crisp_fractional():
    syl = load_fixture("course_passrates_crisp.syl").to_syllogism()
    assert syl.s == 5  # 32 atoms
    result = infer(syl, mode="crisp")
    assert abs(result.crisp.lo - F(1, 5)) <= 1e-6
    assert abs(result.crisp.hi - 1) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 3: kernel and support readings of the fuzzy pass rates


def test_criterion_3_kernel_support():
    syl = load_fixture("course_passrates_fuzzy.syl").to_syllogism()
    result = infer(syl, mode="kersup")
    assert abs(result.pair.kernel.lo - F(42, 100)) <= 1e-6
    assert abs(result.pair.kernel.hi - 1) <= 1e-6
    assert abs(result.pair.support.lo - F(20, 100)) <= 1e-6
    assert abs(result.pair.support.hi - 1) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 4: the fitted trapezoid agrees with the two-solve reading


def test_criterion_4_alpha_trapezoid():
    syl = load_fixture("course_passrates_fuzzy.syl").to_syllogism()
    result = infer(syl, mode="alpha")
    fitted = result.fitted
    assert fitted is not None
    for got, want in zip(fitted.as_tuple(), (F(1, 5), F(21, 50), 1, 1)):
        assert abs(got - want) <= 1e-6

    pair = infer(syl, mode="kersup").pair
    level0 = result.cuts[0][1]
    level1 = result.cuts[-1][1]
    assert result.cuts[0][0] == 0 and result.cuts[-1][0] == 1
    assert abs(level0.lo - pair.support.lo) <= 1e-9
    assert abs(level0.hi - pair.support.hi) <= 1e-9
    assert abs(level1.lo - pair.kernel.lo) <= 1e-9
    assert abs(level1.hi - pair.kernel.hi) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 5: a contradictory high-level premise caps the membership


def test_criterion_5_nonnormalized_feasibility_edge():
    doc = load_fixture("course_passrates_nonnormalized.syl")
    syl = doc.to_syllogism()
    assert doc.options["levels"] == 21

    # the exact contradiction threshold is 20/21; a level grid reports the
    # last feasible level it samples, so granularity decides the digit
    result = infer(syl, mode="alpha", config=InferenceConfig(levels=21))
    level = result.max_feasible_level
    assert level == F(19, 20)
    assert F(90, 100) <= level <= F(99, 100)
    assert level < 1
    assert abs(level - F(95, 100)) <= F(5, 100)
    assert result.fitted is None
    assert result.max_feasible_level < 1

    coarse = infer(syl, mode="alpha", config=InferenceConfig(levels=11))
    assert coarse.max_feasible_level == F(9, 10)
    assert F(90, 100) <= coarse.max_feasible_level <= F(99, 100)


# ---------------------------------------------------------------------------
# criterion 6: chained linear proportions square the cut edges


def test_criterion_6_rim_composition():
    syl = load_fixture("wine_exports_rim.syl").to_syllogism()
    result = infer(syl, mode="alpha")
    assert len(result.cuts) == 11
    for level, iv in result.cuts:
        assert iv is not None
        assert abs(iv.lo - level * level) <= 1e-6
        assert abs(iv.hi - 1) <= 1e-6

    # a single trapezoid through kernel and support reads the lower edge as
    # the chord from (0,0) to (1,1); the 11-cut piecewise description hugs
    # the parabola far better
    fitted_pair = infer(syl, mode="kersup").fitted
    cuts = result.cuts

    def piecewise_lo(level):
        for (l0, c0), (l1, c1) in zip(cuts, cuts[1:]):
            if l0 <= level <= l1:
                t = (level - l0) / (l1 - l0)
                return c0.lo + t * (c1.lo - c0.lo)
        raise AssertionError("level outside grid")

    grid = [F(i, 200) for i in range(201)]
    linear_res = max(abs(cut_ends(fitted_pair, g)[0] - g * g) for g in grid)
    piece_res = max(abs(piecewise_lo(g) - g * g) for g in grid)
    assert linear_res > piece_res


# ---------------------------------------------------------------------------
# criterion 7: counts subtract like intervals, level by level


def test_criterion_7_exception_minus_absolute():
    syl = load_fixture("wine_boxes_exception.syl").to_syllogism()
    result = infer(syl, mode="alpha")
    assert result.fitted == Trapezoid(8, 10, 12, 14)

    to_moriarty = syl.premises[0].quantifier.shape
    to_watson = syl.premises[1].quantifier.shape
    for level, iv in result.cuts:
        first_lo, first_hi = cut_ends(to_moriarty, level)
        second_lo, second_hi = cut_ends(to_watson, level)
        assert abs(iv.lo - (first_lo - second_hi)) <= 1e-9
        assert abs(iv.hi - (first_hi - second_lo)) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 8: decreasing quantifiers, with the oracle as referee


def check_against_oracle(syl, which, cap):
    bounds = int_bounds(syl, {"support": 0, "kernel": 1}[which])
    outcome = solve(compile_syllogism(syl, bounds))
    exact = enumerate_range(syl, cap, premise_bounds=bounds)
    assert exact is not None
    assert outcome.lo == exact.lo
    assert outcome.hi == exact.hi
    return exact


def test_criterion_8_decreasing_results_match_oracle(acceptance_notes):
    sales = load_fixture("warehouse_sales_mix.syl").to_syllogism()
    pair = infer(sales, mode="kersup").pair
    assert abs(pair.support.hi - F(1, 2)) <= 1e-6
    assert abs(pair.kernel.hi - F(45, 100)) <= 1e-6
    sup = check_against_oracle(sales, "support", 20)
    ker = check_against_oracle(sales, "kernel", 20)
    assert pair.support == sup and pair.kernel == ker
    acceptance_notes.append(
        "note: warehouse_sales_mix lower bounds are %s (support) and %s "
        "(kernel), not 0; enumeration at cap 20 attains both exactly"
        % (sup.lo, ker.lo)
    )

    hats = load_fixture("hats_and_ties.syl").to_syllogism()
    pair = infer(hats, mode="kersup").pair
    assert abs(pair.support.hi - 1) <= 1e-6
    assert abs(pair.kernel.hi - 1) <= 1e-6  # upper shoulders coincide
    sup = check_against_oracle(hats, "support", 20)
    ker = check_against_oracle(hats, "kernel", 20)
    assert pair.support == sup and pair.kernel == ker
    acceptance_notes.append(
        "note: hats_and_ties lower bounds are %s (support) and %s (kernel), "
        "not 0; too few hats exist to cover the red ties" % (sup.lo, ker.lo)
    )


# ---------------------------------------------------------------------------
# criterion 9a: compiled rows mean exactly what the definitions say.  The
# rows are the reference build's (reference_lp.py); test_compiler checks
# that the LP compile_syllogism writes equals that build's at every reading.


def populations(k, cap):
    cache = {}
    return np.vstack([_compositions(total, k, cache) for total in range(cap + 1)])


def rows_hold(constraints, counts, k):
    held = np.ones(len(counts), dtype=bool)
    for con in constraints:
        terms = con.expr.as_dict()
        scale = math.lcm(con.rhs.denominator, *[v.denominator for v in terms.values()])
        vec = np.zeros(k, dtype=np.int64)
        for index, coeff in terms.items():
            vec[index] = int(coeff * scale)
        value = counts @ vec
        rhs = int(con.rhs * scale)
        if con.rel == "<=":
            held &= value <= rhs
        elif con.rel == ">=":
            held &= value >= rhs
        elif con.rel == "==":
            held &= value == rhs
        elif con.rel == "<":
            held &= value < rhs
        else:
            held &= value > rhs
    return held


def test_criterion_9a_rows_match_definitions():
    from sylq.quantifiers import (
        ABSOLUTE,
        COMPARATIVE_ABSOLUTE,
        COMPARATIVE_PROPORTIONAL,
        EXCEPTION,
        LOGICAL_ALL,
        LOGICAL_NONE,
        LOGICAL_NOT_ALL,
        LOGICAL_SOME,
        PROPORTIONAL,
        SIMILARITY,
        QuantifierSpec,
    )
    from sylq.statements import Statement
    from sylq.terms import UNIVERSE, And, Not, Or, Prop

    cases = {
        LOGICAL_ALL: [None],
        LOGICAL_NONE: [None],
        LOGICAL_SOME: [None],
        LOGICAL_NOT_ALL: [None],
        ABSOLUTE: [Interval(0, 0), Interval(2, 5), Interval(3, None)],
        EXCEPTION: [Interval(0, 0), Interval(2, 5), Interval(3, None)],
        COMPARATIVE_ABSOLUTE: [Interval(-2, 1), Interval(0, None), Interval(1, 3)],
        PROPORTIONAL: [Interval(0, F(1, 2)), Interval(F(1, 3), 1), Interval(F(1, 4), F(3, 4))],
        SIMILARITY: [Interval(0, F(1, 2)), Interval(F(1, 3), 1), Interval(F(1, 4), F(3, 4))],
        COMPARATIVE_PROPORTIONAL: [Interval(F(1, 2), 2), Interval(0, F(3, 2)), Interval(1, None)],
    }
    p, q, r = Prop("p"), Prop("q"), Prop("r")
    layouts = [
        (("p", "q"), [(p, q), (Or(p, q), Not(q)), (UNIVERSE, p), (And(p, q), Or(p, Not(q)))]),
        (("p", "q", "r"), [(p, Or(q, r)), (And(p, q), Not(r)), (Or(p, Not(q)), And(q, r))]),
    ]
    for names, pairs in layouts:
        k = 1 << len(names)
        counts = populations(k, 8)
        for family, bounds in cases.items():
            for bound in bounds:
                shape = bound if bound is not None else None
                spec = QuantifierSpec(family, shape)
                for restriction, scope in pairs:
                    stmt = Statement(spec, restriction, scope)
                    ints = None if bound is None else bound_ints(bound)
                    want = statement_predicate(family, ints, term_masks(stmt, names), counts)
                    rows = compile_statement(stmt, ints, names)
                    got = rows_hold(rows, counts, k)
                    mismatch = np.nonzero(want != got)[0]
                    assert mismatch.size == 0, (
                        family,
                        bound,
                        restriction,
                        scope,
                        counts[mismatch[0]],
                    )


# ---------------------------------------------------------------------------
# criterion 9b: every small population the oracle accepts sits inside the
# solver's reported range


def test_criterion_9b_oracle_containment(rng):
    checked = 0
    for _ in range(200):
        syl = random_crisp_syllogism(rng)
        outcome = solve(compile_syllogism(syl, int_bounds(syl)))
        exact = enumerate_range(syl, 8, premise_bounds=int_bounds(syl))
        if outcome.status == "infeasible":
            assert exact is None
            continue
        if exact is None:
            continue
        checked += 1
        if outcome.lo is not None:
            assert outcome.lo <= exact.lo
        if outcome.hi is not None:
            assert exact.hi <= outcome.hi
    assert checked >= 60  # the generator must not starve the property


# ---------------------------------------------------------------------------
# criterion 9c: cuts tighten as the level climbs


def test_criterion_9c_alpha_cuts_nest(rng):
    config = InferenceConfig(levels=5)
    checked = 0
    for _ in range(100):
        syl = random_fuzzy_syllogism(rng)
        try:
            result = infer(syl, mode="alpha", config=config)
        except InfeasiblePremisesError:
            continue
        checked += 1
        present = [cut is not None for _, cut in result.cuts]
        assert present == sorted(present, reverse=True)  # no feasibility gaps
        live = [(level, cut) for level, cut in result.cuts if cut is not None]
        for (_, outer), (_, inner) in zip(live, live[1:]):
            assert outer.lo <= inner.lo
            if outer.hi is not None:
                assert inner.hi is not None and inner.hi <= outer.hi
    assert checked >= 40


# ---------------------------------------------------------------------------
# criterion 9d: premise order is irrelevant


def test_criterion_9d_premise_permutation(rng):
    for _ in range(60):
        syl = random_crisp_syllogism(rng)
        order = list(syl.premises)
        rng.shuffle(order)
        shuffled = with_premises(syl, order)
        try:
            base = infer(syl, mode="crisp")
        except InfeasiblePremisesError:
            with pytest.raises(InfeasiblePremisesError):
                infer(shuffled, mode="crisp")
            continue
        other = infer(shuffled, mode="crisp")
        assert base.crisp == other.crisp
        assert base.outcomes[0].status == other.outcomes[0].status

    config = InferenceConfig(levels=4)
    for _ in range(25):
        syl = random_fuzzy_syllogism(rng)
        order = list(syl.premises)
        rng.shuffle(order)
        shuffled = with_premises(syl, order)
        try:
            base = infer(syl, mode="alpha", config=config)
        except InfeasiblePremisesError:
            with pytest.raises(InfeasiblePremisesError):
                infer(shuffled, mode="alpha", config=config)
            continue
        other = infer(shuffled, mode="alpha", config=config)
        assert base.cuts == other.cuts
        assert base.fitted == other.fitted


# ---------------------------------------------------------------------------
# criterion 9e: ratio conclusions ignore the absolute size of the universe


def test_criterion_9e_fractional_scale_invariance(rng):
    for _ in range(60):
        syl = random_crisp_syllogism(rng, ratio_only=True)
        outcomes = []
        for c in (1, 3, 10):
            scaled = type(syl)(
                syl.properties,
                syl.premises,
                syl.conclusion,
                universe_size=syl.universe_size * c,
            )
            outcomes.append(solve(compile_syllogism(scaled, int_bounds(scaled))))
        first = outcomes[0]
        for other in outcomes[1:]:
            assert other.status == first.status
            assert other.lo == first.lo
            assert other.hi == first.hi
