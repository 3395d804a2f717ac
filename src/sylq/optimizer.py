"""Bounding conclusion measures by linear programming.

Strict rows become weak ones with a fixed margin (rewrite_strict), which
the compiler applies once per syllogism.  Ratio objectives go through the
Charnes-Cooper substitution y = t*x, which turns a linear-fractional program
into a plain LP with one extra variable; because every constraint here is
homogeneous or carries the scaling variable, the substitution is exact, not
approximate.

solve() takes one compiled reading: integer rows and costs over atom
classes.  It drops constant rows and rows implied by x >= 0, gives no
column to a class that no kept row or cost touches, then minimizes and
maximizes the conclusion objective.

Reporting convention: a measure with a nonnegative objective that is
unbounded above is reported with lo = 0 (the bracket conveys no lower
information in that case); the minimum the program actually attains is kept
in attained_lo so callers can still see it.
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
    "rewrite_strict",
    "solve",
]

LE, GE, EQ, LT, GT = "<=", ">=", "==", "<", ">"

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

_ZERO = Fraction(0)

# (atom mask, coefficient): the coefficient times the sum of x_k over bits k
Term = Tuple[int, Fraction]

# a row over atom sets: (terms, relation, rhs)
SetRow = Tuple[Tuple[Term, ...], str, Fraction]


@value
class SolveOutcome:
    """Bounds on the conclusion measure over the feasible region.

    lo/hi are exact rationals; hi is None when the measure is unbounded
    above, lo is None when unbounded below.  attained_lo records the true
    minimum whenever the reported lo was floored to zero.
    """

    status: str
    lo: Optional[Fraction]
    hi: Optional[Fraction]
    attained_lo: Optional[Fraction] = None
    pivots: int = 0

    def __init__(
        self,
        status: str,
        lo: Optional[Fraction],
        hi: Optional[Fraction],
        attained_lo: Optional[Fraction] = None,
        pivots: int = 0,
    ) -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "attained_lo", attained_lo)
        object.__setattr__(self, "pivots", pivots)


def rewrite_strict(
    rows: Sequence[SetRow],
    *,
    k: int,
    proportional_context: bool,
    universe_size: Optional[Fraction] = None,
) -> List[SetRow]:
    """Replace strict rows with weak rows at a fixed margin.

    Count context: a strict count bound moves by EPS_COUNT (cardinalities
    are integers, so a margin of one is exact).  Proportion context: the
    margin is EPS_PROP at the scale of the universe; without a declared
    universe size the margin EPS_PROP * sum(x) over the k atoms is folded
    into the row itself, which keeps the rewritten system invariant under
    rescaling all cardinalities.
    """
    out: List[SetRow] = []
    for terms, rel, rhs in rows:
        if rel not in (LT, GT):
            out.append((terms, rel, rhs))
            continue
        sign = 1 if rel == GT else -1
        weak = GE if rel == GT else LE
        if not proportional_context:
            out.append((terms, weak, rhs + sign * EPS_COUNT))
        elif universe_size is not None:
            out.append((terms, weak, rhs + sign * EPS_PROP * universe_size))
        else:
            total = ((1 << k) - 1, -sign * EPS_PROP)
            out.append((terms + (total,), weak, rhs))
    return out


_ORDER = {LE: lambda a, b: a <= b, GE: lambda a, b: a >= b, EQ: lambda a, b: a == b}


def _bracket(costs: Sequence[int], rows: List[simplex.Row], sign_definite: bool) -> SolveOutcome:
    lo_sol = simplex.minimize(costs, rows)
    if lo_sol.status == simplex.INFEASIBLE:
        return SolveOutcome(INFEASIBLE, None, None, pivots=lo_sol.pivots)
    hi_sol = simplex.maximize(costs, rows)
    pivots = lo_sol.pivots + hi_sol.pivots

    lo = lo_sol.value if lo_sol.status == simplex.OPTIMAL else None
    hi = hi_sol.value if hi_sol.status == simplex.OPTIMAL else None

    if lo is None and hi is None:
        return SolveOutcome(UNBOUNDED, None, None, pivots=pivots)
    if lo is None:
        return SolveOutcome(UNBOUNDED_BELOW, None, hi, pivots=pivots)
    if hi is None:
        if sign_definite:
            return SolveOutcome(UNBOUNDED_ABOVE, _ZERO, None, attained_lo=lo, pivots=pivots)
        return SolveOutcome(UNBOUNDED_ABOVE, lo, None, pivots=pivots)
    return SolveOutcome(BOUNDED, lo, hi, pivots=pivots)


def solve(system: ConstraintSystem) -> SolveOutcome:
    """Min/max a compiled reading's objective over its feasible cardinalities.

    The system's columns are atom classes (see the compiler).  Equal
    columns stay equal under pivoting and the simplex breaks every tie by
    smallest index, so it makes the same choices on the classes as on the
    atoms; a zero column never enters, so it gets no column at all.
    """
    kept = []
    for coeffs, rhs, den, rel in system.constraints:
        if not any(coeffs):
            if not _ORDER[rel](0, rhs):
                return SolveOutcome(INFEASIBLE, None, None)
            continue
        # rows already implied by x >= 0 only add simplex columns
        if rel == GE and rhs <= 0 and min(coeffs) >= 0:
            continue
        if rel == LE and rhs >= 0 and max(coeffs) <= 0:
            continue
        kept.append((coeffs, rhs, den, rel))
    costs = system.costs
    live = [j for j, column in enumerate(zip(costs, *(row[0] for row in kept))) if any(column)]
    if len(live) < len(costs):
        kept = [([coeffs[j] for j in live], rhs, den, rel) for coeffs, rhs, den, rel in kept]
        costs = [costs[j] for j in live]
    rows = [([*coeffs, rhs], den, rel) for coeffs, rhs, den, rel in kept]
    return _bracket(costs, rows, all(v >= 0 for v in costs))
