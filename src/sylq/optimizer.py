"""Bounding conclusion measures by linear programming.

Strict rows become weak ones with a fixed margin (rewrite_strict), which
the compiler applies once per syllogism.  Ratio objectives go through the
Charnes-Cooper substitution y = t*x, which turns a linear-fractional program
into a plain LP with one extra variable; because every constraint here is
homogeneous or carries the scaling variable, the substitution is exact, not
approximate.

solve() takes one compiled reading: integer rows and costs over atom
classes, in the simplex's row layout.  It drops constant rows and rows
implied by x >= 0 (keep_rows), then minimizes and maximizes the conclusion
objective over the kept rows as they are, on the skeleton's columns; no
level filters a column.  The rows no premise bound changes are kept once
per syllogism (Skeleton.solver_fixed), so a level pays only for its
premise rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from . import simplex
from ._value import value

if TYPE_CHECKING:
    from .compiler import ConstraintSystem

__all__ = [
    "BOUNDED",
    "INFEASIBLE",
    "UNBOUNDED",
    "UNBOUNDED_ABOVE",
    "UNBOUNDED_BELOW",
    "SolveOutcome",
    "keep_rows",
    "rewrite_strict",
    "solve",
]

LE, GE, EQ, GT = "<=", ">=", "==", ">"

BOUNDED = "bounded"
UNBOUNDED_ABOVE = "unbounded-above"
UNBOUNDED_BELOW = "unbounded-below"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

# strictness margins: a strict count row moves by one, which is exact for
# integer cardinalities; a strict proportion row moves by EPS_PROP relative
# to the universe, an approximation kept until strictness is decided exactly
EPS_COUNT = Fraction(1)
EPS_PROP = Fraction(1, 10**6)

# (atom mask, coefficient): the coefficient times the sum of x_k over bits k
Term = Tuple[int, Fraction]

# a row over atom sets: (terms, relation, rhs)
SetRow = Tuple[Tuple[Term, ...], str, Fraction]


@value
class SolveOutcome:
    """Bounds on the conclusion measure over the feasible region.

    lo/hi are the program's exact minimum and maximum; hi is None when the
    measure is unbounded above, lo is None when unbounded below.
    """

    status: str
    lo: Optional[Fraction]
    hi: Optional[Fraction]
    pivots: int = 0

    def __init__(self, status: str, lo, hi, pivots: int = 0) -> None:
        # the frozen fields, written past __setattr__ (one outcome per solve)
        self.__dict__.update(status=status, lo=lo, hi=hi, pivots=pivots)


def rewrite_strict(
    rows: Sequence[SetRow],
    *,
    k: int,
    proportional_context: bool,
    universe_size: Optional[Fraction] = None,
) -> List[SetRow]:
    """Replace strict rows (>, the only strict relation the compiler
    writes) with weak rows at a fixed margin.

    Count context: a strict count bound moves by EPS_COUNT (cardinalities
    are integers, so a margin of one is exact).  Proportion context: the
    margin is EPS_PROP at the scale of the universe; without a declared
    universe size the margin EPS_PROP * sum(x) over the k atoms is folded
    into the row itself, which keeps the rewritten system invariant under
    rescaling all cardinalities.
    """
    if not proportional_context:
        margin = EPS_COUNT
    elif universe_size is not None:
        margin = EPS_PROP * universe_size
    else:
        margin = None
        total = (((1 << k) - 1, -EPS_PROP),)
    out: List[SetRow] = []
    for terms, rel, rhs in rows:
        if rel != GT:
            out.append((terms, rel, rhs))
        elif margin is None:
            out.append((terms + total, GE, rhs))
        else:
            out.append((terms, GE, rhs + margin))
    return out


_ORDER = {LE: lambda a, b: a <= b, GE: lambda a, b: a >= b, EQ: lambda a, b: a == b}


def _bracket(costs: Sequence[int], rows: List[simplex.Row]) -> SolveOutcome:
    lo_sol = simplex.minimize(costs, rows)
    if lo_sol.status == simplex.INFEASIBLE:
        return SolveOutcome(INFEASIBLE, None, None, pivots=lo_sol.pivots)
    # the same rows: phase 1 and its normalization carry over
    hi_sol = simplex.maximize(costs, rows, phase1=lo_sol.phase1)
    pivots = lo_sol.pivots + hi_sol.pivots

    lo = lo_sol.value if lo_sol.status == simplex.OPTIMAL else None
    hi = hi_sol.value if hi_sol.status == simplex.OPTIMAL else None

    if lo is None:
        status = UNBOUNDED if hi is None else UNBOUNDED_BELOW
    else:
        status = UNBOUNDED_ABOVE if hi is None else BOUNDED
    return SolveOutcome(status, lo, hi, pivots=pivots)


def keep_rows(rows: Sequence[simplex.Row]) -> Optional[List[simplex.Row]]:
    """rows without constant rows and rows implied by x >= 0, which only add
    simplex columns; None when a constant row is false."""
    kept = []
    for row in rows:
        (*coeffs, rhs), _, rel = row
        if not any(coeffs):
            if not _ORDER[rel](0, rhs):
                return None
            continue
        if rel == GE and rhs <= 0 and min(coeffs) >= 0:
            continue
        if rel == LE and rhs >= 0 and max(coeffs) <= 0:
            continue
        kept.append(row)
    return kept


def solve(system: ConstraintSystem) -> SolveOutcome:
    """Min/max a compiled reading's objective over its feasible cardinalities.

    The system's columns are atom classes (see the compiler).  Equal
    columns stay equal under pivoting and the simplex breaks every tie by
    smallest index, so it makes the same choices on the classes as on the
    atoms.  A column that is zero in the costs and in every kept row (a
    class only dropped rows name) has reduced cost 0 throughout, so it never
    enters and changes no pivot.  The kept premise rows, then the skeleton's
    kept fixed rows, go to the simplex as the compiler wrote them.
    """
    fixed = system.skeleton.solver_fixed
    kept = keep_rows(system.rows)
    if fixed is None or kept is None:
        return SolveOutcome(INFEASIBLE, None, None)
    return _bracket(system.skeleton.costs, kept + fixed)
