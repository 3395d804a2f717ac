"""Bounding conclusion measures by linear programming.

Takes a compiled constraint system, rewrites strict inequalities into weak
ones with a fixed margin, and minimizes/maximizes the conclusion
objective.  Ratio objectives go through the Charnes-Cooper substitution
y = t*x, which turns a linear-fractional program into a plain LP with one
extra variable; because every constraint here is homogeneous or carries the
scaling variable, the substitution is exact, not approximate.

The solver sees atom classes, not atoms.  Rows arrive as a few (atom set,
coefficient) terms, so atoms that lie in exactly the same referenced sets
have equal columns; each such class becomes one variable, the sum of its
atoms (in a chain of premises on p0, every atom outside p0 is one class).
Each row reaches the simplex as int numerators over one denominator.

Reporting convention: a measure with a nonnegative objective that is
unbounded above is reported with lo = 0 (the bracket conveys no lower
information in that case); the minimum the program actually attains is kept
in attained_lo so callers can still see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import simplex
from .compiler import EQ, GE, GT, LE, Constraint, ConstraintSystem, LinearExpr, Term

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

# strictness margins: a strict count row moves by one, which is exact for
# integer cardinalities; a strict proportion row moves by EPS_PROP relative
# to the universe, an approximation kept until strictness is decided exactly
EPS_COUNT = Fraction(1)
EPS_PROP = Fraction(1, 10**6)

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
) -> List[Constraint]:
    """Replace strict rows with weak rows at a fixed margin.

    Count context: a strict count bound moves by EPS_COUNT (cardinalities
    are integers, so a margin of one is exact).  Proportion context: the
    margin is EPS_PROP at the scale of the universe; without a declared
    universe size the margin EPS_PROP * sum(x) is folded into the row
    itself, which keeps the rewritten system invariant under rescaling all
    cardinalities.
    """
    total = LinearExpr.sum_over(range(k))
    out: List[Constraint] = []
    for c in constraints:
        if not c.is_strict:
            out.append(c)
            continue
        sign = 1 if c.rel == GT else -1
        weak = GE if c.rel == GT else LE
        if not proportional_context:
            out.append(Constraint(c.expr, weak, c.rhs + sign * EPS_COUNT))
        elif universe_size is not None:
            out.append(Constraint(c.expr, weak, c.rhs + sign * EPS_PROP * universe_size))
        else:
            out.append(Constraint(c.expr.plus(total, -sign * EPS_PROP), weak, c.rhs))
    return out


# an LP row over atoms: (terms, relation, rhs)
_AtomRow = Tuple[Tuple[Term, ...], str, Fraction]

_ORDER = {LE: lambda a, b: a <= b, GE: lambda a, b: a >= b, EQ: lambda a, b: a == b}


def _class_lp(
    rows: Sequence[_AtomRow], cost_terms: Tuple[Term, ...]
) -> Optional[Tuple[List[Fraction], List[simplex.Row]]]:
    """Costs and integer rows over atom classes; None on a constant contradiction.

    Atoms that lie in the same referenced sets have equal columns, so each
    class of them is one variable (their sum), ordered by its smallest atom.
    Equal columns stay equal under pivoting and the simplex breaks every tie
    by smallest index, so it makes the same choices on the classes as on the
    atoms.  Each referenced set is mapped once to the class positions it
    covers; a row is then built by adding each term's coefficient into its
    set's positions, as int numerators over the lcm of the row's
    denominators.  Constant rows and rows implied by x >= 0 are dropped.
    Atoms in no set, and classes no kept row or cost touches, get no column:
    a zero column never enters.
    """
    bits: Dict[FrozenSet[int], int] = {}
    for atoms, _ in chain(*(terms for terms, _, _ in rows), cost_terms):
        bits.setdefault(atoms, 1 << len(bits))
    member: Dict[int, int] = {}
    for atoms, bit in bits.items():
        for k in atoms:
            member[k] = member.get(k, 0) | bit
    classes = list(dict.fromkeys(member[k] for k in sorted(member)))
    covers = {
        atoms: [j for j, sig in enumerate(classes) if sig & bit] for atoms, bit in bits.items()
    }

    kept: List[simplex.Row] = []
    for terms, rel, rhs in rows:
        den = lcm(rhs.denominator, *(v.denominator for _, v in terms))
        nums = [0] * len(classes)
        for atoms, v in terms:
            a = v.numerator * (den // v.denominator)
            for j in covers[atoms]:
                nums[j] += a
        b = rhs.numerator * (den // rhs.denominator)
        if not any(nums):
            if not _ORDER[rel](0, b):
                return None
            continue
        # rows already implied by x >= 0 only add simplex columns
        if rel == GE and b <= 0 and min(nums) >= 0:
            continue
        if rel == LE and b >= 0 and max(nums) <= 0:
            continue
        kept.append((nums + [b], den, rel))

    costs = [_ZERO] * len(classes)
    for atoms, v in cost_terms:
        for j in covers[atoms]:
            costs[j] += v
    live = [j for j, c in enumerate(costs) if c or any(nums[j] for nums, _, _ in kept)]
    if len(live) < len(classes):
        costs = [costs[j] for j in live]
        kept = [([nums[j] for j in live] + nums[-1:], den, rel) for nums, den, rel in kept]
    return costs, kept


def _bracket(
    costs: List[Fraction], rows: List[simplex.Row], sign_definite: bool
) -> SolveOutcome:
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
    """Min/max the system's objective over its feasible cardinalities."""
    rewritten = rewrite_strict(
        system.constraints,
        k=system.k,
        proportional_context=system.proportional_context,
        universe_size=system.universe_size,
    )
    den = system.objective.denominator
    if den is None:
        rows = [(c.expr.terms, c.rel, c.rhs) for c in rewritten]
    else:
        # linear-fractional: substitute y = t*x with t = 1/denominator.
        # Row a.x rel b becomes a.y - b*t rel 0, plus the normalization
        # den.y == 1; t >= 0 admits limits along recession directions, so
        # suprema that are only approached are still found.  t is atom
        # index k, so it forms the last class.
        t = frozenset((system.k,))
        rows = [(c.expr.terms + ((t, -c.rhs),), c.rel, _ZERO) for c in rewritten]
        rows.append((den.terms, EQ, Fraction(1)))
    lp = _class_lp(rows, system.objective.numerator.terms)
    if lp is None:
        return SolveOutcome(INFEASIBLE, None, None)
    costs, int_rows = lp
    return _bracket(costs, int_rows, all(v >= 0 for v in costs))
