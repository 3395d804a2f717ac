import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylq import Interval, SolveOutcome, Syllogism, cli, parse, simplex
from sylq.compiler import compile_syllogism
from sylq.optimizer import rewrite_strict, solve
from sylq.quantifiers import (
    ABSOLUTE,
    COMPARATIVE_ABSOLUTE,
    COUNT_FAMILIES,
    LOGICAL_SOME,
    PROPORTIONAL,
    RATIO_FAMILIES,
    QuantifierSpec,
)
from sylq.statements import Conclusion, Statement
from sylq.terms import And, Not, Or, Prop
from conftest import (
    FIXTURE_DIR,
    LOGICAL,
    int_bounds,
    int_rows,
    load_fixture,
    mask_atoms,
    random_count_interval,
    random_ratio_interval,
)
from reference_lp import LinearExpr, atom_lp

F = Fraction
P, Q = Prop("p"), Prop("q")
NAMES = ("p", "q")


def build(premises, conclusion, universe=None):
    syl = Syllogism(NAMES, tuple(premises), conclusion, universe_size=universe)
    return compile_syllogism(syl, int_bounds(syl))


def stmt(family, shape=None, restriction=P, scope=Q):
    return Statement(QuantifierSpec(family, shape), restriction, scope)


def per_atom(terms):
    """Per-atom coefficients of (atom mask, coefficient) terms."""
    return LinearExpr(tuple((frozenset(mask_atoms(m)), v) for m, v in terms)).as_dict()


def test_rewrite_strict_count_moves_by_one():
    terms = ((0b1000, F(1)),)
    [out] = rewrite_strict([(terms, ">", F(0))], k=4, proportional_context=False)
    assert out == (terms, ">=", F(1))


def test_rewrite_strict_proportion_with_declared_universe():
    row = (((0b1010, F(1)),), ">", F(0))
    [(_, rel, rhs)] = rewrite_strict(
        [row], k=4, proportional_context=True, universe_size=F(1)
    )
    assert (rel, rhs) == (">=", F(1, 10**6))


def test_rewrite_strict_proportion_folds_total_when_universe_is_free():
    eps = F(1, 10**6)
    row = (((0b1010, F(1)),), ">", F(0))
    [(terms, rel, rhs)] = rewrite_strict([row], k=4, proportional_context=True)
    assert rel == ">="
    assert per_atom(terms) == {0: -eps, 1: 1 - eps, 2: -eps, 3: 1 - eps}
    assert rhs == F(0)


def test_rewrite_strict_keeps_weak_rows_untouched():
    row = (((0b0001, F(1)),), "<=", F(5))
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


def test_margin_choice_does_not_move_the_pets_answer(monkeypatch):
    import sylq.optimizer

    for eps in (F(1), F(1, 10**6)):
        monkeypatch.setattr(sylq.optimizer, "EPS_COUNT", eps)
        # the margin is applied once per syllogism, when its skeleton is built
        syl = load_fixture("pets_at_home.syl").to_syllogism()
        outcome = solve(compile_syllogism(syl, int_bounds(syl)))
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
    from sylq.quantifiers import LOGICAL_NONE
    from sylq.terms import UNIVERSE

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


# ------------------------------------------- classes against the dense atom LP


def _holds(lhs, rel, rhs):
    return lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs


def dense_solve(syl, bounds):
    """solve() rebuilt with one column per atom (and t), from the reference
    build's per-atom rows.

    The same zero-row and implied-row rules apply; no column is merged or
    dropped.
    """
    lp = atom_lp(syl, bounds)
    n = lp.k + (syl.conclusion.family in RATIO_FAMILIES)
    rows = [(expr.as_dict(), rel, rhs) for expr, rel, rhs in lp.rows]
    cost = lp.cost.as_dict()
    dense = []
    for coeffs, rel, rhs in rows:
        values = [coeffs.get(j, F(0)) for j in range(n)]
        if not any(values):
            if not _holds(0, rel, rhs):
                return SolveOutcome("infeasible", None, None)
        elif not (rel == ">=" and rhs <= 0 and min(values) >= 0) and not (
            rel == "<=" and rhs >= 0 and max(values) <= 0
        ):
            dense.append((values, rel, rhs))
    costs = [cost.get(j, F(0)) for j in range(n)]
    lo_sol = simplex.minimize(costs, int_rows(dense))
    if lo_sol.status == simplex.INFEASIBLE:
        return SolveOutcome("infeasible", None, None, pivots=lo_sol.pivots)
    hi_sol = simplex.maximize(costs, int_rows(dense))
    pivots = lo_sol.pivots + hi_sol.pivots
    lo = lo_sol.value if lo_sol.status == simplex.OPTIMAL else None
    hi = hi_sol.value if hi_sol.status == simplex.OPTIMAL else None
    if lo is None:
        status = "unbounded" if hi is None else "unbounded-below"
        return SolveOutcome(status, None, hi, pivots=pivots)
    if hi is None:
        if min(costs) >= 0:
            return SolveOutcome("unbounded-above", F(0), None, attained_lo=lo, pivots=pivots)
        return SolveOutcome("unbounded-above", lo, None, pivots=pivots)
    return SolveOutcome("bounded", lo, hi, pivots=pivots)


def _readings(syl, levels):
    grid = {F(0), F(1)} | {F(i, levels - 1) for i in range(levels)}
    found = []
    for level in sorted(grid):
        bounds = int_bounds(syl, level.numerator, level.denominator)
        if bounds not in found:
            found.append(bounds)
    return found


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.syl")), ids=lambda p: p.stem)
def test_class_lp_equals_the_dense_atom_lp_on_bundled_documents(path):
    doc = parse(path.read_text())
    syl = doc.to_syllogism()
    for bounds in _readings(syl, doc.options.get("levels", 11)):
        assert solve(compile_syllogism(syl, bounds)) == dense_solve(syl, bounds)


def test_class_lp_equals_the_dense_atom_lp_on_chains():
    rng = random.Random(11)
    for s in range(3, 7):
        for _ in range(3):
            names = ["p%d" % i for i in range(s)]
            lines = ["terms: " + ", ".join(names)]
            for name in names[1:]:
                lo = rng.randint(40, 95)
                hi = min(100, lo + rng.randint(0, 30))
                lines.append("premise: prop[%d/100, %d/100] p0 -> %s" % (lo, hi, name))
            lines.append("conclude: prop? p0 -> " + " & ".join(names[1:]))
            syl = parse("\n".join(lines) + "\n").to_syllogism()
            bounds = int_bounds(syl)
            assert solve(compile_syllogism(syl, bounds)) == dense_solve(syl, bounds)


PQR = ("p", "q", "r")


def atom_term(atoms):
    """A term whose atom set over (p, q, r) is exactly ``atoms``."""
    cells = []
    for x in sorted(atoms):
        p, q, r = (Prop(n) if x >> i & 1 else Not(Prop(n)) for i, n in enumerate(PQR))
        cells.append(And(And(p, q), r))
    term = cells[0]
    for cell in cells[1:]:
        term = Or(term, cell)
    return term


@st.composite
def class_readings(draw):
    """Readings over 8 atoms in which atom 6 copies atom 0 and atom 7 is in
    no drawn term set, so there are always duplicate atom columns and
    usually all-zero ones."""
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        atoms = set(draw(st.sets(st.integers(0, 5), min_size=1)))
        if 0 in atoms:
            atoms.add(6)
        pool.append(atom_term(atoms))
    term = st.sampled_from(pool)
    rng = draw(st.randoms(use_true_random=False))
    numeric = sorted(RATIO_FAMILIES if draw(st.booleans()) else COUNT_FAMILIES)
    premises = []
    for _ in range(draw(st.integers(1, 4))):
        family = draw(st.sampled_from(LOGICAL + tuple(numeric)))
        if family in LOGICAL:
            shape = None
        elif family in RATIO_FAMILIES:
            shape = random_ratio_interval(rng, family)
        else:
            shape = random_count_interval(rng, family)
        premises.append(Statement(QuantifierSpec(family, shape), draw(term), draw(term)))
    conclusion = Conclusion(draw(st.sampled_from(numeric)), draw(term), draw(term))
    syl = Syllogism(PQR, tuple(premises), conclusion)
    return syl, int_bounds(syl)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(class_readings())
def test_class_lp_equals_the_dense_atom_lp_with_duplicate_and_zero_columns(reading):
    syl, bounds = reading
    assert solve(compile_syllogism(syl, bounds)) == dense_solve(syl, bounds)


# ------------------------------------------------ the rows the simplex receives


def recorded_lps(monkeypatch, run):
    """run()'s result and the (costs, rows) of every simplex.minimize call
    it made."""
    seen = []
    real = simplex.minimize

    def recording(costs, rows, **kwargs):
        seen.append((list(costs), [list(nums) for nums, _, _ in rows]))
        return real(costs, rows, **kwargs)

    monkeypatch.setattr(simplex, "minimize", recording)
    result = run()
    monkeypatch.setattr(simplex, "minimize", real)
    return result, seen


@pytest.mark.parametrize("mode", [None, "crisp", "kersup", "alpha"])
@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.syl")), ids=lambda p: p.stem)
def test_bundled_lps_have_no_zero_column(monkeypatch, capsys, path, mode):
    # solve keeps every class column; on the bundled documents each one is
    # read by the costs or by a kept row
    argv = [str(path)] + (["--mode", mode] if mode else [])
    _, lps = recorded_lps(monkeypatch, lambda: cli.main(argv))
    capsys.readouterr()
    assert lps or mode == "crisp"
    for costs, rows in lps:
        for j, cost in enumerate(costs):
            assert cost or any(nums[j] for nums in rows), (costs, rows)


def test_a_class_named_only_by_a_dropped_row_stays_a_zero_column(monkeypatch):
    # abs[0, inf] p -> q writes only |p & q| >= 0, which x >= 0 implies, so
    # the class p & q is in no kept row and not in the costs
    doc = "terms: p, q\npremise: abs[0, inf] p -> q\npremise: abs[0, 5] p -> !q\n"
    syl = parse(doc + "conclude: abs? p -> !q\n").to_syllogism()
    system = compile_syllogism(syl, int_bounds(syl))
    outcome, lps = recorded_lps(monkeypatch, lambda: solve(system))
    assert lps == [([1, 0], [[1, 0, 5]]), ([-1, 0], [[1, 0, 5]])]
    assert outcome == dense_solve(syl, int_bounds(syl))
    assert (outcome.status, outcome.lo, outcome.hi, outcome.pivots) == ("bounded", 0, 5, 1)
