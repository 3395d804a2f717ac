"""The per-reading LP build, kept as a reference for the compiled skeleton.

This is how the LP reaching the simplex was built before the skeleton: at
every crisp reading, each statement is compiled into rows of rational
(atom set, coefficient) terms, strict rows are rewritten with the engine's
margins, a ratio objective goes through Charnes-Cooper, and the atoms are
partitioned into classes from scratch.  Tests compare compile_syllogism and
solve against it; it shares nothing with them beyond atoms_of, check_unit
and the margin constants.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Dict, FrozenSet, List, Optional, Tuple

from sylq import optimizer
from sylq.compiler import UnitMixingError
from sylq.quantifiers import (
    ABSOLUTE,
    COMPARATIVE_ABSOLUTE,
    COMPARATIVE_PROPORTIONAL,
    COUNT_FAMILIES,
    EXCEPTION,
    LOGICAL_ALL,
    LOGICAL_NONE,
    LOGICAL_NOT_ALL,
    LOGICAL_SOME,
    PROPORTIONAL,
    RATIO_FAMILIES,
    SIMILARITY,
    check_unit,
)
from sylq.terms import atoms_of

LE, GE, EQ, LT, GT = "<=", ">=", "==", "<", ">"

Term = Tuple[FrozenSet[int], Fraction]


@dataclass(frozen=True, eq=False)
class LinearExpr:
    """Sum of (atom set, coefficient) terms; compares by per-atom values."""

    terms: Tuple[Term, ...] = ()

    @staticmethod
    def of(coeffs):
        return LinearExpr(tuple((frozenset((k,)), Fraction(v)) for k, v in coeffs.items() if v))

    @staticmethod
    def sum_over(atoms):
        members = frozenset(atoms)
        return LinearExpr(((members, Fraction(1)),) if members else ())

    @property
    def coeffs(self):
        out: Dict[int, Fraction] = {}
        for atoms, v in self.terms:
            for k in atoms:
                out[k] = out.get(k, 0) + v
        return tuple(sorted((k, v) for k, v in out.items() if v != 0))

    def as_dict(self):
        return dict(self.coeffs)

    def plus(self, other, factor=1):
        f = Fraction(factor)
        if f == 0:
            return self
        return LinearExpr(self.terms + tuple((atoms, f * v) for atoms, v in other.terms))

    def __eq__(self, other):
        return isinstance(other, LinearExpr) and self.coeffs == other.coeffs

    __hash__ = None


@dataclass(frozen=True)
class Constraint:
    expr: LinearExpr
    rel: str
    rhs: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rhs", Fraction(self.rhs))


def measure(family, a, b):
    if family == ABSOLUTE:
        return LinearExpr.sum_over(a & b), None
    if family == EXCEPTION:
        return LinearExpr.sum_over(a - b), None
    if family == COMPARATIVE_ABSOLUTE:
        return LinearExpr.sum_over(a).plus(LinearExpr.sum_over(b), -1), None
    if family == PROPORTIONAL:
        return LinearExpr.sum_over(a & b), a
    if family == COMPARATIVE_PROPORTIONAL:
        return LinearExpr.sum_over(a), b
    if family == SIMILARITY:
        return LinearExpr.sum_over(a & b), a | b
    raise ValueError(family)


LOGICAL_ROWS = {
    LOGICAL_ALL: (EXCEPTION, EQ),
    LOGICAL_NONE: (ABSOLUTE, EQ),
    LOGICAL_SOME: (ABSOLUTE, GT),
    LOGICAL_NOT_ALL: (EXCEPTION, GT),
}


def compile_statement(stmt, bound, properties) -> List[Constraint]:
    """The rows saying ``stmt`` holds with a crisp bound, given as the ints
    of quantifiers.bound_ints (None if logical)."""
    a, b = atoms_of(stmt.restriction, properties), atoms_of(stmt.scope, properties)
    if stmt.family in LOGICAL_ROWS:
        family, rel = LOGICAL_ROWS[stmt.family]
        return [Constraint(measure(family, a, b)[0], rel, 0)]
    lo_num, lo_den, hi_num, hi_den = bound
    check_unit(stmt.family, lo_num, hi_num, hi_den)
    num, den = measure(stmt.family, a, b)
    rows = []
    hi = None if hi_num is None else Fraction(hi_num, hi_den)
    for rel, value in ((GE, Fraction(lo_num, lo_den)), (LE, hi)):
        if value is None:
            continue
        if den is None:
            rows.append(Constraint(num, rel, value))
        else:
            rows.append(Constraint(num.plus(LinearExpr.sum_over(den), -value), rel, 0))
    return rows


def rewrite_strict(constraints, k, proportional_context, universe_size):
    total = LinearExpr.sum_over(range(k))
    out = []
    for c in constraints:
        if c.rel not in (LT, GT):
            out.append(c)
            continue
        sign = 1 if c.rel == GT else -1
        weak = GE if c.rel == GT else LE
        if not proportional_context:
            out.append(Constraint(c.expr, weak, c.rhs + sign * optimizer.EPS_COUNT))
        elif universe_size is not None:
            out.append(Constraint(c.expr, weak, c.rhs + sign * optimizer.EPS_PROP * universe_size))
        else:
            out.append(Constraint(c.expr.plus(total, -sign * optimizer.EPS_PROP), weak, c.rhs))
    return out


@dataclass
class AtomLP:
    """One reading's rows over atom sets, strict rows rewritten; t is atom k."""

    k: int
    rows: List[Tuple[LinearExpr, str, Fraction]]
    cost: LinearExpr


def atom_lp(syl, bounds) -> AtomLP:
    """The LP of one crisp reading over atoms, built from scratch."""
    statements = (*syl.premises, syl.conclusion)
    families = [st.family for st in statements]
    has_ratio = any(f in RATIO_FAMILIES for f in families)
    if has_ratio and any(f in COUNT_FAMILIES for f in families) and syl.universe_size is None:
        raise UnitMixingError("mixed units")
    k = 1 << syl.s
    rows = []
    for stmt, bound in zip(syl.premises, bounds):
        rows += compile_statement(stmt, bound, syl.properties)
    for stmt in statements:
        if stmt.family in RATIO_FAMILIES:
            a, b = atoms_of(stmt.restriction, syl.properties), atoms_of(stmt.scope, syl.properties)
            rows.append(Constraint(LinearExpr.sum_over(measure(stmt.family, a, b)[1]), GT, 0))
    if syl.universe_size is not None:
        rows.append(Constraint(LinearExpr.sum_over(range(k)), EQ, syl.universe_size))
    rows = rewrite_strict(rows, k, has_ratio, syl.universe_size)
    conclusion = syl.conclusion
    a = atoms_of(conclusion.restriction, syl.properties)
    b = atoms_of(conclusion.scope, syl.properties)
    num, den = measure(conclusion.family, a, b)
    if den is None:
        return AtomLP(k, [(c.expr, c.rel, c.rhs) for c in rows], num)
    # t, atom k, enters a row only through a nonzero rhs (plus drops factor 0)
    t = LinearExpr.sum_over((k,))
    out = [(c.expr.plus(t, -c.rhs), c.rel, Fraction(0)) for c in rows]
    out.append((LinearExpr.sum_over(den), EQ, Fraction(1)))
    return AtomLP(k, out, num)


_ORDER = {LE: lambda a, b: a <= b, GE: lambda a, b: a >= b, EQ: lambda a, b: a == b}


def class_lp(syl, bounds) -> Optional[Tuple[List[Fraction], list]]:
    """Costs and int rows over atom classes, as the simplex receives them;
    None on a constant contradiction."""
    lp = atom_lp(syl, bounds)
    rows = [(expr.terms, rel, rhs) for expr, rel, rhs in lp.rows]
    cost_terms = lp.cost.terms
    bits: Dict[FrozenSet[int], int] = {}
    for atoms, _ in chain(*(terms for terms, _, _ in rows), cost_terms):
        bits.setdefault(atoms, 1 << len(bits))
    member: Dict[int, int] = {}
    for atoms, bit in bits.items():
        for k in atoms:
            member[k] = member.get(k, 0) | bit
    classes = list(dict.fromkeys(member[k] for k in sorted(member)))
    covers = {atoms: [j for j, sig in enumerate(classes) if sig & bit] for atoms, bit in bits.items()}
    kept = []
    for terms, rel, rhs in rows:
        den = lcm(rhs.denominator, *(v.denominator for _, v in terms))
        nums = [0] * len(classes)
        for atoms, v in terms:
            for j in covers[atoms]:
                nums[j] += v.numerator * (den // v.denominator)
        b = rhs.numerator * (den // rhs.denominator)
        if not any(nums):
            if not _ORDER[rel](0, b):
                return None
            continue
        if rel == GE and b <= 0 and min(nums) >= 0:
            continue
        if rel == LE and b >= 0 and max(nums) <= 0:
            continue
        kept.append((nums + [b], den, rel))
    costs = [Fraction(0)] * len(classes)
    for atoms, v in cost_terms:
        for j in covers[atoms]:
            costs[j] += v
    return costs, kept


def reduced(costs, rows):
    """An LP as exact rationals, so rows that differ only in scale compare equal."""
    return (
        [Fraction(c) for c in costs],
        [(rel, [Fraction(v, den) for v in nums]) for nums, den, rel in rows],
    )
