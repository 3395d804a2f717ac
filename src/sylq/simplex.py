"""Exact two-phase simplex over rational arithmetic.

Solves  min c.x  subject to  rows of (a, rel, b) with rel in {<=, >=, ==}
and x >= 0, entirely in Fraction arithmetic, so optima, infeasibility and
unboundedness are certificates rather than tolerance calls.  Problem sizes
here are tiny (tens of variables), which makes exactness affordable.

Pivoting: entering variable by most negative reduced cost (Dantzig) for
speed, switching permanently to Bland's smallest-index rule once an iteration
budget is exhausted, which guarantees termination; the leaving row always
breaks ratio ties by smallest basis variable, as Bland requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

__all__ = ["LpSolution", "minimize", "maximize"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

# pivots before the entering rule falls back from Dantzig to Bland
_DANTZIG_BUDGET = 500
# absolute ceiling; exceeding it means the implementation is broken
_MAX_PIVOTS = 50_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LpSolution:
    status: str  # optimal | unbounded | infeasible
    value: Optional[Fraction] = None
    point: Optional[List[Fraction]] = None
    pivots: int = 0


Row = Tuple[Sequence[Fraction], str, Fraction]


def _pivot(tableau: List[List[Fraction]], basis: List[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    if piv == 0:
        raise ArithmeticError("pivot on zero element")
    inv = _ONE / piv
    tableau[row] = [v * inv for v in tableau[row]]
    prow = tableau[row]
    for i, other in enumerate(tableau):
        if i == row:
            continue
        factor = other[col]
        if factor != 0:
            tableau[i] = [v - factor * p for v, p in zip(other, prow)]
    basis[row] = col


def _iterate(
    tableau: List[List[Fraction]],
    basis: List[int],
    obj: List[Fraction],
    ncols: int,
    pivots_done: int,
) -> Tuple[str, int]:
    """Run simplex iterations in place; obj is the reduced-cost row."""
    pivots = pivots_done
    while True:
        use_bland = pivots >= _DANTZIG_BUDGET
        col = -1
        if use_bland:
            for j in range(ncols):
                if obj[j] < 0:
                    col = j
                    break
        else:
            best = _ZERO
            for j in range(ncols):
                if obj[j] < best:
                    best = obj[j]
                    col = j
        if col < 0:
            return OPTIMAL, pivots

        row = -1
        best_ratio: Optional[Fraction] = None
        for i, trow in enumerate(tableau):
            coef = trow[col]
            if coef > 0:
                ratio = trow[-1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[row])
                ):
                    best_ratio = ratio
                    row = i
        if row < 0:
            return UNBOUNDED, pivots

        _pivot(tableau, basis, row, col)
        prow = tableau[row]
        factor = obj[col]
        if factor != 0:
            for j in range(ncols + 1):
                obj[j] -= factor * prow[j]
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise RuntimeError("simplex did not terminate within the pivot cap")


def minimize(costs: Sequence, rows: Sequence[Row]) -> LpSolution:
    """Minimize costs.x over {x >= 0 : every row holds}."""
    n = len(costs)
    costs = [Fraction(c) for c in costs]

    # normalize rows to nonnegative rhs and count extra columns
    norm: List[Tuple[List[Fraction], str, Fraction]] = []
    for coeffs, rel, rhs in rows:
        coeffs = [Fraction(c) for c in coeffs]
        rhs = Fraction(rhs)
        if len(coeffs) != n:
            raise ValueError("row length does not match variable count")
        if rel not in ("<=", ">=", "=="):
            raise ValueError("relation must be <=, >= or == (rewrite strict first)")
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm.append((coeffs, rel, rhs))

    n_slack = sum(1 for _, rel, _ in norm if rel != "==")
    n_art = sum(1 for _, rel, _ in norm if rel != "<=")
    ncols = n + n_slack + n_art
    art_cols = []

    tableau: List[List[Fraction]] = []
    basis: List[int] = []
    slack_at = n
    art_at = n + n_slack
    for coeffs, rel, rhs in norm:
        row = coeffs + [_ZERO] * (n_slack + n_art) + [rhs]
        if rel == "<=":
            row[slack_at] = _ONE
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            row[slack_at] = Fraction(-1)
            slack_at += 1
            row[art_at] = _ONE
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        else:
            row[art_at] = _ONE
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        tableau.append(row)

    pivots = 0

    # phase 1: drive artificial variables to zero
    if art_cols:
        obj = [_ZERO] * (ncols + 1)
        for a in art_cols:
            obj[a] = _ONE
        for i, b in enumerate(basis):
            if b in set(art_cols):
                obj = [o - t for o, t in zip(obj, tableau[i])]
        status, pivots = _iterate(tableau, basis, obj, ncols, pivots)
        assert status == OPTIMAL  # phase 1 objective is bounded below by 0
        if -obj[-1] > 0:
            return LpSolution(INFEASIBLE, pivots=pivots)
        # pivot lingering artificials out of the basis, dropping empty rows
        art_set = set(art_cols)
        for i in reversed(range(len(basis))):
            if basis[i] not in art_set:
                continue
            entry = next(
                (j for j in range(ncols) if j not in art_set and tableau[i][j] != 0),
                None,
            )
            if entry is None:
                del tableau[i]
                del basis[i]
            else:
                _pivot(tableau, basis, i, entry)
                pivots += 1
        # freeze artificial columns at zero
        for trow in tableau:
            for a in art_cols:
                trow[a] = _ZERO

    # phase 2
    ext_costs = costs + [_ZERO] * (n_slack + n_art)
    obj = ext_costs + [_ZERO]
    for i, b in enumerate(basis):
        if ext_costs[b] != 0:
            obj = [o - ext_costs[b] * t for o, t in zip(obj, tableau[i])]
    if art_cols:
        for a in art_cols:
            obj[a] = _ZERO  # never re-enter
    status, pivots = _iterate(tableau, basis, obj, ncols, pivots)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, pivots=pivots)

    point = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = tableau[i][-1]
    value = sum((c * p for c, p in zip(costs, point)), _ZERO)
    return LpSolution(OPTIMAL, value=value, point=point, pivots=pivots)


def maximize(costs: Sequence, rows: Sequence[Row]) -> LpSolution:
    """Maximize costs.x; same contract as minimize."""
    sol = minimize([-Fraction(c) for c in costs], rows)
    if sol.status == OPTIMAL:
        sol.value = -sol.value
    return sol
