"""Bounding conclusion measures by linear programming.

Takes a compiled constraint system, rewrites strict inequalities into weak
ones with an explicit epsilon, and minimizes/maximizes the conclusion
objective.  Ratio objectives go through the Charnes-Cooper substitution
y = t*x, which turns a linear-fractional program into a plain LP with one
extra variable; because every constraint here is homogeneous or carries the
scaling variable, the substitution is exact, not approximate.

Reporting convention: a measure with a nonnegative objective that is
unbounded above is reported with lo = 0 (the bracket conveys no lower
information in that case); the minimum the program actually attains is kept
in attained_lo so callers can still see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import simplex
from .compiler import EQ, GE, GT, LE, Constraint, ConstraintSystem, LinearExpr

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

BOUNDED = "bounded"
UNBOUNDED_ABOVE = "unbounded-above"
UNBOUNDED_BELOW = "unbounded-below"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

DEFAULT_EPS_COUNT = Fraction(1)
DEFAULT_EPS_PROP = Fraction(1, 10**6)

_ZERO = Fraction(0)


@dataclass(frozen=True)
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


def rewrite_strict(
    constraints: Sequence[Constraint],
    *,
    k: int,
    proportional_context: bool,
    universe_size: Optional[Fraction] = None,
    eps_count: Fraction = DEFAULT_EPS_COUNT,
    eps_prop: Fraction = DEFAULT_EPS_PROP,
) -> List[Constraint]:
    """Replace strict rows with weak rows at an explicit margin.

    Count context: a strict count bound moves by eps_count (cardinalities
    are integers, so the default margin of one is exact).  Proportion
    context: the margin is eps_prop at the scale of the universe; without a
    declared universe size the margin eps_prop * sum(x) is folded into the
    row itself, which keeps the rewritten system invariant under rescaling
    all cardinalities.
    """
    eps_count = Fraction(eps_count)
    eps_prop = Fraction(eps_prop)
    total = LinearExpr.sum_over(range(k))
    out: List[Constraint] = []
    for c in constraints:
        if not c.is_strict:
            out.append(c)
            continue
        sign = 1 if c.rel == GT else -1
        weak = GE if c.rel == GT else LE
        if not proportional_context:
            out.append(Constraint(c.expr, weak, c.rhs + sign * eps_count))
        elif universe_size is not None:
            out.append(Constraint(c.expr, weak, c.rhs + sign * eps_prop * universe_size))
        else:
            out.append(Constraint(c.expr.plus(total, -sign * eps_prop), weak, c.rhs))
    return out


def _dense(expr: LinearExpr, n: int) -> List[Fraction]:
    row = [_ZERO] * n
    for i, f in expr.coeffs:
        row[i] = f
    return row


_ORDER = {LE: lambda a, b: a <= b, GE: lambda a, b: a >= b, EQ: lambda a, b: a == b}


def _prepare_rows(
    constraints: Sequence[Constraint], n: int
) -> Tuple[Optional[List[simplex.Row]], bool]:
    """Dense rows for the solver; (None, False) on a constant contradiction.

    The checks read the sparse coefficients; only kept rows are densified.
    """
    rows: List[simplex.Row] = []
    for c in constraints:
        coeffs = [v for _, v in c.expr.coeffs]
        rhs = c.rhs - c.expr.const
        if all(v == 0 for v in coeffs):
            if not _ORDER[c.rel](_ZERO, rhs):
                return None, False
            continue
        # rows already implied by x >= 0 only add simplex columns
        if c.rel == GE and rhs <= 0 and all(v >= 0 for v in coeffs):
            continue
        if c.rel == LE and rhs >= 0 and all(v <= 0 for v in coeffs):
            continue
        rows.append((_dense(c.expr, n), c.rel, rhs))
    return rows, True


def _bracket(
    costs: List[Fraction],
    const: Fraction,
    rows: List[simplex.Row],
    sign_definite: bool,
) -> SolveOutcome:
    lo_sol = simplex.minimize(costs, rows)
    if lo_sol.status == simplex.INFEASIBLE:
        return SolveOutcome(INFEASIBLE, None, None, pivots=lo_sol.pivots)
    hi_sol = simplex.maximize(costs, rows)
    pivots = lo_sol.pivots + hi_sol.pivots

    lo = lo_sol.value + const if lo_sol.status == simplex.OPTIMAL else None
    hi = hi_sol.value + const if hi_sol.status == simplex.OPTIMAL else None

    if lo is None and hi is None:
        return SolveOutcome(UNBOUNDED, None, None, pivots=pivots)
    if lo is None:
        return SolveOutcome(UNBOUNDED_BELOW, None, hi, pivots=pivots)
    if hi is None:
        if sign_definite:
            return SolveOutcome(UNBOUNDED_ABOVE, _ZERO, None, attained_lo=lo, pivots=pivots)
        return SolveOutcome(UNBOUNDED_ABOVE, lo, None, pivots=pivots)
    return SolveOutcome(BOUNDED, lo, hi, pivots=pivots)


def solve(
    system: ConstraintSystem,
    *,
    eps_count: Fraction = DEFAULT_EPS_COUNT,
    eps_prop: Fraction = DEFAULT_EPS_PROP,
) -> SolveOutcome:
    """Min/max the system's objective over its feasible cardinalities."""
    rewritten = rewrite_strict(
        system.constraints,
        k=system.k,
        proportional_context=system.proportional_context,
        universe_size=system.universe_size,
        eps_count=eps_count,
        eps_prop=eps_prop,
    )
    obj = system.objective
    if obj.kind == "linear":
        rows, ok = _prepare_rows(rewritten, system.k)
        if not ok:
            return SolveOutcome(INFEASIBLE, None, None)
        costs = _dense(obj.numerator, system.k)
        sign_definite = all(v >= 0 for v in costs) and obj.numerator.const >= 0
        return _bracket(costs, obj.numerator.const, rows, sign_definite)

    # linear-fractional: substitute y = t*x with t = 1/denominator.
    # Row a.x rel b becomes a.y - b*t rel 0, plus the normalization
    # den.y + den_const*t == 1; t >= 0 admits limits along recession
    # directions, so suprema that are only approached are still found.
    n = system.k + 1
    t = system.k
    cc_rows: List[Constraint] = []
    for c in rewritten:
        shifted = LinearExpr.of({**c.expr.as_dict(), t: c.expr.const - c.rhs})
        cc_rows.append(Constraint(shifted, c.rel, _ZERO))
    den = obj.denominator
    norm = LinearExpr.of({**den.as_dict(), t: den.const})
    cc_rows.append(Constraint(norm, EQ, Fraction(1)))

    rows, ok = _prepare_rows(cc_rows, n)
    if not ok:
        return SolveOutcome(INFEASIBLE, None, None)
    num = obj.numerator
    costs = _dense(LinearExpr.of({**num.as_dict(), t: num.const}), n)
    sign_definite = all(v >= 0 for v in costs)
    return _bracket(costs, _ZERO, rows, sign_definite)
