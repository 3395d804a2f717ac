"""Exact two-phase simplex over rational arithmetic.

Solves  min c.x  subject to  rows a.x rel b with rel in {<=, >=, ==} and
x >= 0 exactly, so optima, infeasibility and unboundedness are certificates
rather than tolerance calls.  Each row arrives as the int numerators of a
and b over one positive denominator; the costs c are rationals.

Every tableau row, the reduced-cost row included, is a list of Python ints
over one positive int denominator.  A pivot is fraction-free elimination
(Bareiss, Math. Comp. 1968): row i becomes (d*row_i - f*prow) / (den_i*d),
where prow/d is the pivot row scaled so its pivot entry is one and
f = row_i[col]; rows with f == 0 are left alone.  Because denominators are
positive, signs and orderings read straight off the numerators, and ratios
compare by cross-multiplication, so every choice is the one exact rational
arithmetic makes.  Fractions appear only at the input and result boundaries.

Rows are exact but not always in lowest terms.  The pivot row is reduced;
an eliminated row is reduced only once its denominator is longer than
_REDUCE_BITS bits, because a gcd over the whole row after every elimination
costs more than the bits it saves.  No choice depends on a row's scale: the
entering rule reads signs and the order of numerators within the one
reduced-cost row, the ratio test compares rhs/coef of each row (its scale
cancels) by cross-multiplication, and phase 1 reads a sign.  So pivots,
values and points are those of rows kept in lowest terms throughout.

Pivoting: entering variable by most negative reduced cost (Dantzig) for
speed, switching permanently to Bland's smallest-index rule once an iteration
budget is exhausted, which guarantees termination; the leaving row always
breaks ratio ties by smallest basis variable, as Bland requires.

Phase 1 stores no artificial column: a basic artificial is only its index
past the slacks in the basis, which is all that ratio ties and the final
drive-out read, and one that leaves never comes back.  Fixing it at 0 only
restricts the phase-1 LP, whose least sum of artificials is still 0 exactly
when the rows are feasible; pivots change only where Dantzig's or Bland's
rule would have brought an artificial back in.

A row equal to an earlier row after normalization is a repeat, and phase 1
carries it on its first copy instead of eliminating it.  Until the first
copy pivots, the two rows' slack columns are zero in every other row and
keep their starting phase-1 reduced costs (+1 or 0), so neither enters;
every pivot subtracts the same multiple of the pivot row from both rows, so
the repeat stays first copy + delta (+-1 in the two slack columns, nothing
for ==), and it never wins the ratio test, since it ties its first copy,
whose basis index is smaller.  When the first copy pivots the repeat is
written out as delta, what elimination would leave, and when the iterations
end as first copy + delta, so the drive-out and phase 2 see the tableau
value for value.

Phase 1 never reads the costs: its end state depends only on the variable
count n and the normalized rows.  minimize returns that state with its
solution and takes it back for the same rows, so a bracket (minimize, then
maximize with phase1=) normalizes and runs phase 1 once, sets up the
phase-2 objective once and runs phase 2 twice.  Each solution's pivots
still count the whole path from the slack/artificial start basis, phase 1
included, so both solutions of one system count it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from ._value import value

__all__ = ["LpSolution", "minimize", "maximize"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

# pivots before the entering rule falls back from Dantzig to Bland
_DANTZIG_BUDGET = 500
# absolute ceiling; exceeding it means the implementation is broken
_MAX_PIVOTS = 50_000
# an eliminated row is reduced to lowest terms once its denominator is
# longer than this; any bound from 45 to 90 bits runs about as fast
_REDUCE_BITS = 60

# phase 1 carries repeated rows on their first copy; with False it
# eliminates them like any other row (same tableau, more work), for tests
_CARRY_REPEATS = True

_ZERO = Fraction(0)


class PivotLimitError(RuntimeError):
    """The simplex ran past its pivot cap without terminating."""


class _Point:
    """LpSolution.point: None on the class, the field's default.  minimize
    leaves an optimal point in its final tableau, read off on first use."""

    def __get__(self, sol, owner=None) -> Optional[List[Fraction]]:
        point = None
        if sol is not None and "_final" in sol.__dict__:
            tableau, basis, n = sol.__dict__.pop("_final")
            point = [_ZERO] * n
            for (nums, den), b in zip(tableau, basis):
                if b < n:
                    point[b] = Fraction(nums[-1], den)
            sol.point = point
        return point


@value(frozen=False)
class LpSolution:
    """A solve's answer; minimize also sets ``phase1`` (not a field) on it."""

    status: str  # optimal | unbounded | infeasible
    value: Optional[Fraction] = None
    point: Optional[List[Fraction]] = _Point()
    pivots: int = 0

    def __init__(self, status: str, value=None, point=None, pivots: int = 0) -> None:
        self.status = status
        self.value = value
        if point is not None:
            self.point = point
        self.pivots = pivots


# an exact row: (numerators, positive denominator), not always in lowest terms
IntRow = Tuple[List[int], int]

# an input row: the int numerators of its n coefficients and then of its
# rhs, their common positive denominator, and the relation
Row = Tuple[List[int], int, str]

# phase 1's end state for one system: tableau (None if infeasible), basis,
# pivots, columns, the reduced-cost rows set up at that basis by costs, and
# the variable count n
_Phase1 = Tuple[Optional[List[IntRow]], List[int], int, int, Dict[tuple, IntRow], int]


def _reduced(nums: List[int], den: int) -> IntRow:
    g = gcd(den, *nums)
    if g > 1:
        return [v // g for v in nums], den // g
    return nums, den


def _int_row(values: Sequence) -> IntRow:
    """Exact int numerators over one denominator for a sequence of rationals."""
    fracs = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in fracs))
    return _reduced([v.numerator * (den // v.denominator) for v in fracs], den)


def _plus(nums: List[int], den: int, delta: Sequence[Tuple[int, int]]) -> IntRow:
    """The row nums/den plus delta, given as (column, +-1) pairs."""
    nums = nums[:]
    for j, unit in delta:
        nums[j] += unit * den
    return nums, den


def _eliminate(row: IntRow, col: int, prow: IntRow, support: List[int]) -> IntRow:
    """row - row[col] * prow, where prow's entry at col equals one.

    support lists prow's nonzero columns; only those entries change.  The
    result is reduced to lowest terms only once its denominator is longer
    than _REDUCE_BITS bits.
    """
    nums, den = row
    pnums, pden = prow
    f = nums[col]
    g = gcd(pden, f)
    a, b = pden // g, f // g
    new = nums[:] if a == 1 else [a * v for v in nums]
    for j in support:
        new[j] -= b * pnums[j]
    den *= a
    if den.bit_length() > _REDUCE_BITS:
        return _reduced(new, den)
    return new, den


def _pivot(tableau: List[IntRow], basis: List[int], row: int, col: int) -> List[int]:
    """Pivot on (row, col) in place; returns the new pivot row's support."""
    nums, den = tableau[row]
    piv = nums[col]
    if piv == 0:
        raise ArithmeticError("pivot on zero element")
    # row / (piv/den) = nums / piv
    if piv < 0:
        nums, piv = [-v for v in nums], -piv
    prow = tableau[row] = _reduced(nums, piv)
    support = [j for j, v in enumerate(prow[0]) if v]
    for i, other in enumerate(tableau):
        if i != row and other[0][col]:
            tableau[i] = _eliminate(other, col, prow, support)
    basis[row] = col
    return support


def _iterate(
    tableau: List[IntRow],
    basis: List[int],
    obj: IntRow,
    ncols: int,
    pivots_done: int,
    repeats: Optional[Dict[int, list]] = None,
) -> Tuple[str, int, IntRow]:
    """Run simplex iterations in place; obj is the reduced-cost row.

    repeats maps a first copy's row to its carried repeats (see _phase1);
    when the first copy pivots, its repeats are written out and its entry
    leaves the table.
    """
    pivots = pivots_done
    while True:
        reduced = obj[0]  # signs and order hold: the denominator is positive
        if pivots >= _DANTZIG_BUDGET:
            col = next((j for j in range(ncols) if reduced[j] < 0), -1)
        else:
            best = min(reduced[:ncols]) if ncols else 0
            col = reduced.index(best) if best < 0 else -1
        if col < 0:
            return OPTIMAL, pivots, obj

        # ratio rhs/coef over rows with coef > 0; a row's denominator
        # cancels, and rhs_i/coef_i < rhs_r/coef_r iff rhs_i*coef_r < rhs_r*coef_i
        row = -1
        for i, (nums, _) in enumerate(tableau):
            coef = nums[col]
            if coef > 0:
                if row < 0:
                    row, rhs_best, coef_best = i, nums[-1], coef
                    continue
                lhs, rhs = nums[-1] * coef_best, rhs_best * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row, rhs_best, coef_best = i, nums[-1], coef
        if row < 0:
            return UNBOUNDED, pivots, obj

        if repeats and row in repeats:
            # first copy + delta less the pivot row times its entry at col
            # is delta over the first copy's denominator, reduced as
            # _eliminate would; delta is 0 at col, so _pivot passes it by
            nums, den = tableau[row]
            for j, delta in repeats.pop(row):
                new = _plus([0] * len(nums), den, delta)
                tableau[j] = _reduced(*new) if den.bit_length() > _REDUCE_BITS else new
        support = _pivot(tableau, basis, row, col)
        obj = _eliminate(obj, col, tableau[row], support)
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise PivotLimitError("simplex did not terminate within the pivot cap")


def _phase1(n: int, rows: Sequence[Row]) -> _Phase1:
    """Phase 1 over the rows, each normalized to lowest terms and rhs >= 0.

    Returns the feasible tableau, its basis (artificials as indices past
    the stored columns), the pivots taken, the column count, an empty
    table for the reduced-cost rows that minimize sets up at this basis,
    and n; the tableau is None when the rows are infeasible.  The costs
    play no part, so the result depends only on n and the rows' values.  No
    row of the caller's is changed or kept.  A repeated row is a zero row
    while the iterations carry it (see the module docstring).
    """
    slacks = [0] * sum(1 for *_, rel in rows if rel != "==")
    art_start = n + len(slacks)
    tableau: List[IntRow] = []
    basis: List[int] = []
    art_rows: List[IntRow] = []
    slack_at = n
    art_at = art_start
    # normalized row -> (its first copy's index, slack column); first
    # copy's index -> [(repeat's index, delta = repeat - first copy)]
    firsts: Dict[tuple, Tuple[int, int]] = {}
    repeats: Dict[int, list] = {}
    for nums, den, rel in rows:
        if len(nums) != n + 1:
            raise ValueError("row length does not match variable count")
        if rel not in _FLIP:
            raise ValueError("relation must be <=, >= or == (rewrite strict first)")
        if den <= 0:
            raise ValueError("row denominator must be positive")
        g = gcd(den, *nums)
        if nums[-1] < 0:
            g, rel = -g, _FLIP[rel]
        if g != 1:
            nums, den = [v // g for v in nums], den // abs(g)
        key = den, rel, *nums
        if key not in firsts:
            firsts[key] = len(tableau), slack_at
        else:
            first, slack = firsts[key]
            unit = 1 if rel == "<=" else -1
            delta = () if rel == "==" else ((slack_at, unit), (slack, -unit))
            repeats.setdefault(first, []).append((len(tableau), delta))
        row = [*nums[:n], *slacks, nums[n]], den
        if rel != "==":
            row[0][slack_at] = den if rel == "<=" else -den
            slack_at += 1
        if rel == "<=":
            basis.append(slack_at - 1)
        else:
            basis.append(art_at)
            art_at += 1
            art_rows.append(row)
        tableau.append(row)
    if not art_rows:
        return tableau, basis, 0, art_start, {}, n

    # drive artificial variables to zero: the reduced costs of their sum are
    # minus the sum of their basic rows, over the lcm of those denominators
    oden = lcm(*(den for _, den in art_rows))
    scaled = [nums if den == oden else [oden // den * v for v in nums] for nums, den in art_rows]
    obj = _reduced([-sum(column) for column in zip(*scaled)], oden)
    if not _CARRY_REPEATS:
        repeats = {}
    for carried in repeats.values():
        for j, _ in carried:
            tableau[j] = [0] * (art_start + 1), 1
    status, pivots, obj = _iterate(tableau, basis, obj, art_start, 0, repeats)
    assert status == OPTIMAL  # phase 1 objective is bounded below by 0
    if obj[0][-1] < 0:
        return None, basis, pivots, art_start, {}, n
    for first, carried in repeats.items():
        for j, delta in carried:
            tableau[j] = _plus(*tableau[first], delta)
    # pivot lingering artificials out of the basis, dropping empty rows
    for i in reversed(range(len(basis))):
        if basis[i] < art_start:
            continue
        nums = tableau[i][0]
        entry = next((j for j in range(art_start) if nums[j]), None)
        if entry is None:
            del tableau[i]
            del basis[i]
        else:
            _pivot(tableau, basis, i, entry)
            pivots += 1
    return tableau, basis, pivots, art_start, {}, n


_FLIP = {"<=": ">=", ">=": "<=", "==": "=="}


def minimize(costs: Sequence, rows: Sequence[Row], phase1: Optional[_Phase1] = None) -> LpSolution:
    """Minimize costs.x over {x >= 0 : every row holds}; costs are rationals.

    The solution's ``phase1`` is the phase-1 end state of (n, rows).  Handed
    back as ``phase1=`` with the same rows, it skips normalization and
    phase 1, and the rows are not read; a state of another width is refused.
    Each call works on shallow copies of the state's tableau and basis,
    which is enough because _reduced, _eliminate and _pivot never change a
    row list in place, and phase 1 builds its rows from copies.  The state
    also keeps the reduced-cost rows set up at its basis, by costs; they are
    linear in the costs, so the row for -c is the negated row for c.
    """
    n = len(costs)
    if phase1 is None:
        phase1 = _phase1(n, rows)
    elif phase1[-1] != n:
        raise ValueError("phase-1 state is for %d variables, not %d" % (phase1[-1], n))
    tableau, basis, pivots, ncols, objectives, _ = phase1
    if tableau is None:
        sol = LpSolution(INFEASIBLE, pivots=pivots)
        sol.phase1 = phase1
        return sol

    # phase 2: reduced costs c - sum of c_b * (basic row b)
    key = tuple(costs)
    obj = objectives.get(key)
    if obj is None:
        obj = [*costs, *[0] * (ncols - n), 0]
        obj = (obj, 1) if all(type(c) is int for c in costs) else _int_row(obj)
        for row, b in zip(tableau, basis):
            if obj[0][b]:
                obj = _eliminate(obj, b, row, [j for j, v in enumerate(row[0]) if v])
        objectives[key] = obj
        objectives[tuple([-c for c in costs])] = [-v for v in obj[0]], obj[1]
    tableau, basis = list(tableau), list(basis)
    status, pivots, obj = _iterate(tableau, basis, obj, ncols, pivots)
    if status == UNBOUNDED:
        sol = LpSolution(UNBOUNDED, pivots=pivots)
    else:
        # the reduced-cost row's rhs entry is -c.x
        onums, oden = obj
        sol = LpSolution(OPTIMAL, Fraction(-onums[-1], oden), pivots=pivots)
        sol._final = tableau, basis, n
    sol.phase1 = phase1
    return sol


def maximize(costs: Sequence, rows: Sequence[Row], phase1: Optional[_Phase1] = None) -> LpSolution:
    """Maximize costs.x; same contract as minimize."""
    sol = minimize([-c for c in costs], rows, phase1=phase1)
    if sol.status == OPTIMAL:
        sol.value = -sol.value
    return sol
