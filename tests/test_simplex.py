import itertools
import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylq import cli, infer, optimizer, parse, simplex
from sylq.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED

from conftest import FIXTURE_DIR, int_rows

F = Fraction


def minimize(costs, rows):
    return simplex.minimize(costs, int_rows(rows))


def maximize(costs, rows):
    return simplex.maximize(costs, int_rows(rows))


def test_minimize_small_bounded():
    sol = minimize([1, 1], [([1, 2], ">=", 4), ([3, 1], ">=", 6)])
    assert sol.status == OPTIMAL
    assert sol.value == F(14, 5)
    assert sol.point == [F(8, 5), F(6, 5)]


def test_maximize_flips_the_value_back():
    sol = maximize([3, 2], [([1, 1], "<=", 4), ([1, 3], "<=", 6)])
    assert sol.status == OPTIMAL
    assert sol.value == 12
    assert sol.point == [4, 0]


def test_equalities_solve_through_artificials():
    sol = minimize([1, 0], [([1, 1], "==", 2), ([1, -1], "==", 0)])
    assert sol.status == OPTIMAL
    assert sol.value == 1
    assert sol.point == [1, 1]


def test_redundant_equality_rows_are_harmless():
    sol = minimize([1, 1], [([1, 1], "==", 2), ([2, 2], "==", 4)])
    assert sol.status == OPTIMAL
    assert sol.value == 2


def test_infeasible_band():
    sol = minimize([1], [([1], ">=", 2), ([1], "<=", 1)])
    assert sol.status == INFEASIBLE
    assert sol.value is None


def test_unbounded_direction():
    sol = minimize([-1, 0], [([0, 1], "<=", 5)])
    assert sol.status == UNBOUNDED


def test_exact_rational_arithmetic_no_drift():
    # thirds and sevenths stay exact end to end
    sol = minimize(
        [F(1, 3), F(1, 7)],
        [([F(1, 3), F(2, 7)], ">=", F(5, 21)), ([1, 1], "<=", 10)],
    )
    assert sol.status == OPTIMAL
    assert sol.value == F(5, 42)
    assert sol.point == [0, F(5, 6)]


def test_degenerate_cycling_example_terminates():
    # a classic cycling tableau for the textbook most-negative rule; the
    # pivot budget hands it to Bland's rule, which must reach -1/20
    sol = minimize(
        [F(-3, 4), 150, F(-1, 50), 6],
        [
            ([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
            ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
    )
    assert sol.status == OPTIMAL
    assert sol.value == F(-1, 20)


def test_zero_variable_edge():
    with pytest.raises(ValueError):
        minimize([1], [([1, 2], ">=", 1)])


def test_negative_rhs_rows_normalize():
    sol = minimize([2, 1], [([-1, -1], "<=", -3)])
    assert sol.status == OPTIMAL
    assert sol.value == 3
    assert sol.point == [0, 3]


# (exit code, pivots of each minimize call in order) of `sylq FILE` and of
# `sylq FILE --mode M` for every bundled document, read from the output
# digest, which is their one pin; the integer-row tableau must choose every
# pivot as the digest recorded it.  Crisp mode refuses fuzzy premises.
_DIGEST = json.loads((Path(__file__).parent / "output_digest.json").read_text())["digest"]
BUNDLED = sorted({key.split(" ")[0] for key in _DIGEST if key.endswith(" text own")})
MODES = ("crisp", "kersup", "alpha")


def _pinned(name, mode):
    run = _DIGEST["%s text %s" % (name, mode)]
    return run["code"], run["pivots"]


def _pivots_per_call(argv, monkeypatch, capsys):
    """Exit code of `sylq argv` and the pivots of each minimize call in order."""
    seen = []
    original = simplex.minimize

    def counting_minimize(costs, rows, **kwargs):
        sol = original(costs, rows, **kwargs)
        seen.append(sol.pivots)
        return sol

    monkeypatch.setattr(simplex, "minimize", counting_minimize)
    code = cli.main(argv)
    capsys.readouterr()
    return code, seen


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_pivot_counts(name, monkeypatch, capsys):
    code, seen = _pivots_per_call([str(FIXTURE_DIR / ("%s.syl" % name))], monkeypatch, capsys)
    assert code == 0
    assert (code, seen) == _pinned(name, "own")


@pytest.mark.parametrize("name, mode", sorted(itertools.product(BUNDLED, MODES)))
def test_bundled_pivots_per_call(name, mode, monkeypatch, capsys):
    argv = [str(FIXTURE_DIR / ("%s.syl" % name)), "--mode", mode]
    assert _pivots_per_call(argv, monkeypatch, capsys) == _pinned(name, mode)


# ------------------------------------------------- differential property test

RELATIONS = ("<=", ">=", "==")
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _solve_square(a, b):
    """The unique x with a x = b by Fraction elimination, else None."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [v - f * p for v, p in zip(m[r], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _holds(lhs, rel, rhs):
    return lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs


def _brute_minimum(costs, rows):
    """min costs.x over a bounded polytope by enumerating its vertices.

    Every vertex is the unique solution of n active hyperplanes taken from
    the rows and from x_i = 0; None when no vertex is feasible.
    """
    n = len(costs)
    planes = [(list(a), b) for a, _, b in rows]
    planes += [([F(int(i == j)) for j in range(n)], F(0)) for i in range(n)]
    best = None
    for subset in itertools.combinations(planes, n):
        x = _solve_square([a for a, _ in subset], [b for _, b in subset])
        if x is None or any(v < 0 for v in x):
            continue
        if not all(_holds(sum(c * v for c, v in zip(a, x)), rel, b) for a, rel, b in rows):
            continue
        value = sum(c * v for c, v in zip(costs, x))
        best = value if best is None else min(best, value)
    return best


@st.composite
def boxed_lps(draw):
    n = draw(st.integers(1, 3))
    costs = draw(st.lists(small, min_size=n, max_size=n))
    rows = draw(
        st.lists(
            st.tuples(st.lists(small, min_size=n, max_size=n), st.sampled_from(RELATIONS), small),
            min_size=1,
            max_size=4,
        )
    )
    box = draw(st.integers(1, 4))
    rows += [([F(int(i == j)) for j in range(n)], "<=", F(box)) for i in range(n)]
    return costs, _with_repeats(draw, rows, st.integers(0, 2))


def _with_repeats(draw, rows, picks, times=st.just(1)):
    """rows with a drawn number (`picks`) of them drawn again, each copied a
    drawn number (`times`) of times, every copy at a drawn place."""
    for _ in range(draw(picks)):
        row = draw(st.sampled_from(rows))
        for _ in range(draw(times)):
            rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


@contextmanager
def patched(name, value):
    """Run the simplex with its module constant simplex.<name> set to value."""
    saved = getattr(simplex, name)
    setattr(simplex, name, value)
    try:
        yield
    finally:
        setattr(simplex, name, saved)


def reduce_bits(bits):
    """Run the simplex with eliminated rows reduced past `bits` bits."""
    return patched("_REDUCE_BITS", bits)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(boxed_lps())
def test_minimize_matches_vertex_enumeration(lp):
    _check_against_vertices(lp)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(boxed_lps())
def test_minimize_matches_vertex_enumeration_reducing_every_row(lp):
    # bound 0 reduces every eliminated row to lowest terms
    with reduce_bits(0):
        _check_against_vertices(lp)


def _check_against_vertices(lp):
    costs, rows = lp
    expected = _brute_minimum(costs, rows)
    solver_rows = int_rows(rows)
    lo = simplex.minimize(costs, solver_rows)
    # the maximize half starts from the minimize half's phase-1 state, as a
    # bracket does, so it also sets up its objective by negation
    hi = simplex.maximize(costs, solver_rows, phase1=lo.phase1)
    if expected is None:
        assert lo.status == hi.status == INFEASIBLE
        return
    highest = -_brute_minimum([-c for c in costs], rows)
    for sol, value in ((lo, expected), (hi, highest)):
        assert sol.status == OPTIMAL
        assert sol.value == value
        assert all(v >= 0 for v in sol.point)
        assert all(_holds(sum(c * v for c, v in zip(a, sol.point)), rel, b) for a, rel, b in rows)
        assert sum(c * v for c, v in zip(costs, sol.point)) == value


# large coprime denominators, so that rows pass the default bound too
PRIMES = (1, 3, 7, 2**31 - 1, 2**61 - 1, 1_000_000_007, 998_244_353)
wide = st.builds(F, st.integers(-40, 40), st.sampled_from(PRIMES))


@st.composite
def wide_lps(draw):
    n = draw(st.integers(1, 4))
    costs = draw(st.lists(wide, min_size=n, max_size=n))
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(wide, min_size=n, max_size=n),
                st.sampled_from(RELATIONS),
                st.one_of(st.just(F(0)), wide),
            ),
            min_size=1,
            max_size=5,
        )
    )
    if draw(st.booleans()):
        rows += [([F(int(i == j)) for j in range(n)], "<=", draw(wide)) for i in range(n)]
    return costs, _with_repeats(draw, rows, st.integers(0, 2))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(wide_lps())
def test_lazy_reduction_changes_no_solution(lp):
    costs, rows = lp
    with reduce_bits(0):
        eager = minimize(costs, rows)
    assert minimize(costs, rows) == eager


def test_an_artificial_that_leaves_the_basis_never_comes_back():
    # phase 1 first pivots x1 in for the artificial of `x1 == 0`; were that
    # artificial's column kept, Dantzig's rule would take it back in and x1
    # would have to enter again: four pivots instead of two
    rows = [([3, 1], ">=", 2), ([-2, 0], "==", 0), ([1, 0], "==", 0)]
    for solve in (minimize, maximize):
        sol = solve([-1, 0], rows)
        assert (sol, sol.point) == (simplex.LpSolution(OPTIMAL, F(0), 2), [F(0), F(2)])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(boxed_lps(), wide_lps()), st.data())
def test_int_costs_solve_like_equal_fraction_costs(lp, data):
    # int costs are the phase-2 row as they are; Fractions go through _int_row
    _, rows = lp
    n = len(rows[0][0])
    costs = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    rows = int_rows(rows)
    for solve in (simplex.minimize, simplex.maximize):
        assert _with_point(solve(costs, rows)) == _with_point(solve([F(c) for c in costs], rows))


# ---------------------------------------------------- one phase 1 per system


def _with_point(sol):
    """A solution and its point: equal solutions can differ in point."""
    return sol, sol.point


@contextmanager
def counting(name):
    """Count the calls of simplex.<name>, looked up by the module at call time."""
    calls = []
    original = getattr(simplex, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    setattr(simplex, name, wrapper)
    try:
        yield calls
    finally:
        setattr(simplex, name, original)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(boxed_lps(), wide_lps()))
def test_shared_phase1_changes_no_solution(lp):
    costs, rows = lp
    rows = int_rows(rows)
    fresh_lo = simplex.minimize(costs, rows)
    fresh_hi = simplex.maximize(costs, rows)
    with counting("_phase1") as runs:
        lo = simplex.minimize(costs, rows)
        hi = simplex.maximize(costs, rows, phase1=lo.phase1)
        # a state serves any number of later calls, and any costs
        again = simplex.minimize(costs, rows, phase1=hi.phase1)
    got, fresh = (lo, hi, again), (fresh_lo, fresh_hi, fresh_lo)
    assert list(map(_with_point, got)) == list(map(_with_point, fresh))
    assert lo.phase1 is hi.phase1 is again.phase1
    assert len(runs) == 1


def test_interleaved_systems_get_their_own_phase1():
    a_costs, a_rows = [1, 1], int_rows([([1, 2], ">=", 4), ([3, 1], ">=", 6)])
    b_costs, b_rows = [1, 0], int_rows([([1, 1], "==", 2), ([1, -1], "==", 0)])
    fresh = [simplex.minimize(a_costs, a_rows), simplex.minimize(b_costs, b_rows)]
    with counting("_phase1") as runs:
        got = [
            simplex.minimize(a_costs, a_rows),
            simplex.minimize(b_costs, b_rows),
            simplex.minimize(a_costs, a_rows),
        ]
        # interleaved systems, each handed its own state
        states = [sol.phase1 for sol in got]
        again = [
            simplex.minimize(b_costs, b_rows, phase1=states[1]),
            simplex.minimize(a_costs, a_rows, phase1=states[0]),
        ]
    fresh = list(map(_with_point, fresh))
    assert list(map(_with_point, got)) == [fresh[0], fresh[1], fresh[0]]
    assert list(map(_with_point, again)) == [fresh[1], fresh[0]]
    assert len(runs) == 3


def test_zero_row_systems_of_different_width_do_not_share_phase1():
    narrow = simplex.minimize([1], [])
    assert _with_point(narrow) == (simplex.LpSolution(OPTIMAL, F(0), 0), [F(0)])
    # the second column can grow without bound; a width-1 tableau cannot see it
    assert simplex.minimize([0, -1], []).status == UNBOUNDED
    with pytest.raises(ValueError, match="phase-1 state is for 1 variables, not 2"):
        simplex.minimize([0, -1], [], phase1=narrow.phase1)


def test_rows_changed_in_place_are_solved_again():
    rows = int_rows([([1, 1], ">=", 2), ([1, 0], "<=", 5)])
    first = simplex.minimize([1, 1], rows)
    assert first.value == 2
    rows[0][0][-1] = 3  # the first row's rhs, in the caller's own list
    assert simplex.minimize([1, 1], rows).value == 3
    # the earlier state still holds the rows as they were
    assert simplex.minimize([1, 1], rows, phase1=first.phase1).value == 2
    rows[1][0][-1] = -1  # x0 <= -1 with x0 >= 0
    assert simplex.minimize([1, 1], rows).status == INFEASIBLE
    assert simplex.maximize([1, 1], rows, phase1=first.phase1).status == UNBOUNDED


def test_one_phase1_per_feasible_solve(monkeypatch):
    syl = parse((FIXTURE_DIR / "pets_at_home.syl").read_text()).to_syllogism()
    outcomes = []
    original = optimizer.solve

    def recording_solve(system):
        outcomes.append(original(system))
        return outcomes[-1]

    monkeypatch.setattr(optimizer, "solve", recording_solve)
    with counting("_phase1") as runs, counting("_iterate") as iterations:
        infer(syl)
    feasible = sum(o.status != optimizer.INFEASIBLE for o in outcomes)
    assert feasible == len(outcomes) == 1
    # one phase-1 run of the iterations, then phase 2 for min and for max
    assert len(runs) == feasible
    assert len(iterations) == 3 * feasible


# ------------------------------------------------------ carried repeated rows


@st.composite
def repeated_lps(draw):
    """An LP with 1 to 3 of its rows repeated 1 to 4 times each."""
    costs, rows = draw(st.one_of(boxed_lps(), wide_lps()))
    return costs, _with_repeats(draw, rows, st.integers(1, 3), st.integers(1, 4))


def _carried_and_eliminated(costs, rows):
    """(min, max) solutions with repeats carried, then with none carried."""
    rows = int_rows(rows)
    solves = []
    for carry in (True, False):
        with patched("_CARRY_REPEATS", carry):
            lo = simplex.minimize(costs, rows)
            hi = simplex.maximize(costs, rows, phase1=lo.phase1)
        # the phase-1 end state: tableau value for value, basis, pivots
        solves.append((_with_point(lo), _with_point(hi), lo.phase1[:4]))
    return solves


# LPs in which a slack of a repeated pair enters: x >= 1 twice, where the
# first copy pivots in phase 1 and the repeat then takes its slack; rows 0
# and 2 alike, where phase 2 takes the repeat's own slack; rows 0 and 3
# alike, where the repeat is carried to the end of phase 1 and phase 2
# takes the first copy's slack
SLACK_ENTERS = [
    ([1], [([1], ">=", 1), ([1], ">=", 1)]),
    ([0, -1], [([1, 1], ">=", 2), ([1, 0], "<=", 3), ([1, 1], ">=", 2), ([1, 1], "<=", 5)]),
    ([-2, -1], [([1, -2], "<=", 0), ([-1, 3], ">=", 0), ([3, 1], "<=", 3), ([1, -2], "<=", 0)]),
]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(repeated_lps())
def test_carried_repeats_change_no_solution(lp):
    # bound 0 reduces every eliminated row, so a repeat written out as delta
    # is reduced too
    for bits in (simplex._REDUCE_BITS, 0):
        with reduce_bits(bits):
            carried, eliminated = _carried_and_eliminated(*lp)
        assert carried == eliminated


@pytest.mark.parametrize("lp", SLACK_ENTERS)
def test_a_repeated_rows_slack_enters_as_if_eliminated(lp):
    costs, rows = lp
    with counting("_pivot") as pivots:
        carried, eliminated = _carried_and_eliminated(costs, rows)
    assert carried == eliminated
    # a slack of the repeated pair enters (no row is ==, so row i's slack
    # is column n + i)
    n = len(costs)
    slacks = {n + i for i, row in enumerate(rows) if rows.count(row) > 1}
    assert any(col in slacks for *_, col in pivots)
