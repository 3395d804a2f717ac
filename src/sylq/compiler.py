"""Translation of quantified statements into linear constraints.

Each statement, at a crisp interval for its quantifier, becomes one or two
linear (in)equalities over the atom cardinalities x_0..x_{K-1}.  With
A = atoms(restriction), B = atoms(scope) and S_X the sum of x_k over X:

    logical-all               S_{A\\B}  = 0
    logical-none              S_{A&B}  = 0
    logical-some              S_{A&B}  > 0
    logical-not-all           S_{A\\B}  > 0
    absolute                  lo <= S_{A&B} <= hi
    proportional              lo*S_A <= S_{A&B} <= hi*S_A
    exception                 lo <= S_{A\\B} <= hi
    comparative-absolute      lo <= S_A - S_B <= hi
    comparative-proportional  lo*S_B <= S_A <= hi*S_B
    similarity                lo*S_{A|B} <= S_{A&B} <= hi*S_{A|B}

Ratio constraints are cross-multiplied so the premise set stays purely linear;
only the conclusion objective may be a ratio.  The structural layer adds
denominator positivity for ratio statements and the universe cardinality
equation when |E| is declared.  Nonnegativity x >= 0 is not a row: the
solver works over x >= 0 already.

From one crisp reading of a syllogism to the next only the numeric
premises' bounds move, so the LP is built in two steps.  build_skeleton
runs once per Syllogism (kept as Syllogism.skeleton).  It splits the
K = 2**S atoms into classes, the atoms that lie in exactly the same
referenced sets (in a chain of premises on p0, every atom outside p0 is one
class), and makes each class one LP column, the sum of its atoms.  Over
those columns it writes the logical and structural rows, with the strict
rewrite and the Charnes-Cooper substitution already applied, the objective
costs, and each numeric premise's measure as int vectors: U for the
numerator and, for a ratio family, W for the denominator.  compile_syllogism
then writes each bound p/q of a reading as one int row: q*U - p*W rel 0 for
a ratio family, q*U rel p for a count family (q*U - p*t rel 0 under
Charnes-Cooper).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import optimizer
from ._value import value
from .optimizer import EQ, GE, GT, LE, SetRow, Term
from .quantifiers import (
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
    Interval,
    check_unit,
)

if TYPE_CHECKING:
    from .statements import Syllogism

__all__ = [
    "UnitMixingError",
    "Skeleton",
    "ConstraintSystem",
    "build_skeleton",
    "compile_syllogism",
]

_ZERO, _ONE = Fraction(0), Fraction(1)


class UnitMixingError(ValueError):
    """Count and proportion quantifiers mixed without a declared universe."""


# an LP row over atom classes: (class numerators, rhs numerator, their
# positive denominator, relation)
ClassRow = Tuple[Sequence[int], int, int, str]


class _Measure(NamedTuple):
    """A numeric premise's measure over the classes: U, and W for ratios."""

    family: str
    u: Tuple[int, ...]
    w: Optional[Tuple[int, ...]]


@value
class Skeleton:
    """The part of a syllogism's LP that no premise bound changes.

    classes   the atoms of each column, ordered by smallest atom; under
              Charnes-Cooper the last column is t, written as atom K
    premises  per premise, a logical premise's row or a numeric one's measure
    fixed     the structural rows, then the Charnes-Cooper normalization
    costs     the objective numerator per column
    """

    classes: Tuple[Tuple[int, ...], ...]
    premises: Tuple[object, ...]
    fixed: Tuple[ClassRow, ...]
    costs: Tuple[int, ...]
    charnes_cooper: bool


@value
class ConstraintSystem:
    """One crisp reading's LP over its syllogism's atom classes.

    constraints holds the premise rows in premise order, then the
    skeleton's fixed rows; costs are the skeleton's; k is the atom count.
    """

    k: int
    constraints: List[ClassRow]
    costs: Tuple[int, ...]

    def __init__(self, k: int, constraints: List[ClassRow], costs: Tuple[int, ...]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "costs", costs)


def _sum(atoms: frozenset, coefficient: Fraction = _ONE) -> Tuple[Term, ...]:
    """coefficient * S_atoms as terms; none for the empty set."""
    return ((atoms, coefficient),) if atoms else ()


def _measure(
    family: str, a: frozenset, b: frozenset
) -> Tuple[Tuple[Term, ...], Optional[frozenset]]:
    """A numeric family's measure over term sets a and b.

    Returns (numerator terms, denominator atoms), with None as the
    denominator of a count family.
    """
    if family == ABSOLUTE:
        return _sum(a & b), None
    if family == EXCEPTION:
        return _sum(a - b), None
    if family == COMPARATIVE_ABSOLUTE:
        return _sum(a) + _sum(b, -_ONE), None
    if family == PROPORTIONAL:
        return _sum(a & b), a
    if family == COMPARATIVE_PROPORTIONAL:
        return _sum(a), b
    if family == SIMILARITY:
        return _sum(a & b), a | b
    raise ValueError("family %r has no numeric measure" % family)


# a logical family is a fixed relation on a count measure: (family, rel) of 0
_LOGICAL_ROWS = {
    LOGICAL_ALL: (EXCEPTION, EQ),
    LOGICAL_NONE: (ABSOLUTE, EQ),
    LOGICAL_SOME: (ABSOLUTE, GT),
    LOGICAL_NOT_ALL: (EXCEPTION, GT),
}


def _class_row(row: SetRow, covers: Dict[frozenset, List[int]], n: int) -> ClassRow:
    """A set row as int numerators over the lcm of its denominators."""
    terms, rel, rhs = row
    den = lcm(rhs.denominator, *(v.denominator for _, v in terms))
    nums = [0] * n
    for atoms, v in terms:
        a = v.numerator * (den // v.denominator)
        for j in covers[atoms]:
            nums[j] += a
    return tuple(nums), rhs.numerator * (den // rhs.denominator), den, rel


def build_skeleton(syl: Syllogism) -> Skeleton:
    """Everything of syl's LP but its numeric premises' bounds.

    Count and proportion quantifiers may share a syllogism only when the
    universe size is declared (the caller is expected to surface a warning
    in that case); otherwise the mix is refused here.
    """
    statements = (*syl.premises, syl.conclusion)
    has_ratio = any(st.family in RATIO_FAMILIES for st in statements)
    has_count = any(st.family in COUNT_FAMILIES for st in statements)
    if has_ratio and has_count and syl.universe_size is None:
        raise UnitMixingError(
            "syllogism mixes count quantifiers (absolute/exception/"
            "comparative-absolute) with proportion quantifiers; declare "
            "'universe:' to make the units commensurable"
        )
    k = 1 << syl.s

    # rows with no bound in them: logical premises, then the structural rows;
    # a numeric premise's measure stands in its place
    rows: List[SetRow] = []
    measures = []
    for stmt, (a, b) in zip(syl.premises, syl.term_sets):
        if stmt.family in _LOGICAL_ROWS:
            family, rel = _LOGICAL_ROWS[stmt.family]
            rows.append((_measure(family, a, b)[0], rel, _ZERO))
            measures.append(None)
        else:
            measures.append(_measure(stmt.family, a, b))
    n_logical = len(rows)
    for stmt, (a, b) in zip(statements, syl.term_sets):
        if stmt.family in RATIO_FAMILIES:
            rows.append((_sum(_measure(stmt.family, a, b)[1]), GT, _ZERO))
    if syl.universe_size is not None:
        rows.append((_sum(frozenset(range(k))), EQ, syl.universe_size))
    rows = optimizer.rewrite_strict(
        rows, k=k, proportional_context=has_ratio, universe_size=syl.universe_size
    )
    numerator, denominator = _measure(syl.conclusion.family, *syl.term_sets[-1])
    referenced = [atoms for atoms, _ in numerator]
    if denominator is not None:
        # linear-fractional: substitute y = t*x with t = 1/denominator.
        # Row a.x rel b becomes a.y - b*t rel 0, plus the normalization
        # den.y == 1; t >= 0 admits limits along recession directions, so
        # suprema that are only approached are still found.  t is atom
        # index k, so it forms the last class.
        t = frozenset((k,))
        rows = [(terms + ((t, -rhs),), rel, _ZERO) for terms, rel, rhs in rows]
        rows.append((_sum(denominator), EQ, _ONE))
        referenced.append(t)
    for num, den in filter(None, measures):
        referenced += [atoms for atoms, _ in num]
        if den:
            referenced.append(den)
    referenced += [atoms for terms, _, _ in rows for atoms, _ in terms]

    # atoms in the same referenced sets have equal columns: one class each
    bits: Dict[frozenset, int] = {}
    for atoms in referenced:
        bits.setdefault(atoms, 1 << len(bits))
    member: Dict[int, int] = {}
    for atoms, bit in bits.items():
        for x in atoms:
            member[x] = member.get(x, 0) | bit
    classes: Dict[int, List[int]] = {}
    for x in sorted(member):
        classes.setdefault(member[x], []).append(x)
    covers = {
        atoms: [j for j, sig in enumerate(classes) if sig & bit] for atoms, bit in bits.items()
    }
    n = len(classes)

    def vector(terms: Tuple[Term, ...]) -> Tuple[int, ...]:
        # numerator terms have coefficients +-1, so the row's denominator is 1
        return _class_row((terms, EQ, _ZERO), covers, n)[0]

    class_rows = [_class_row(row, covers, n) for row in rows]
    logical = iter(class_rows[:n_logical])
    premises = []
    for stmt, measure in zip(syl.premises, measures):
        if measure is None:
            premises.append(next(logical))
        else:
            num, den = measure
            w = None if den is None else vector(_sum(den))
            premises.append(_Measure(stmt.family, vector(num), w))
    return Skeleton(
        classes=tuple(map(tuple, classes.values())),
        premises=tuple(premises),
        fixed=tuple(class_rows[n_logical:]),
        costs=vector(numerator),
        charnes_cooper=denominator is not None,
    )


def compile_syllogism(
    syl: Syllogism, premise_bounds: Sequence[Optional[Interval]]
) -> ConstraintSystem:
    """The LP of one crisp reading: the skeleton plus each bound's rows.

    ``premise_bounds`` supplies the crisp interval for each premise in order
    (None for logical premises); fuzzy quantifiers are expected to have been
    cut to intervals by the caller.  An unbounded hi emits no upper row.
    """
    if len(premise_bounds) != len(syl.premises):
        raise ValueError("need exactly one bound per premise")
    skeleton = syl.skeleton
    rows: List[ClassRow] = []
    for premise, bound in zip(skeleton.premises, premise_bounds):
        if not isinstance(premise, _Measure):
            rows.append(premise)
            continue
        family, u, w = premise
        if bound is None:
            raise ValueError("family %s needs a crisp bound to compile" % family)
        check_unit(family, bound.lo, bound.hi)
        for rel, value in ((GE, bound.lo), (LE, bound.hi)):
            if value is None:
                continue
            p, q = value.numerator, value.denominator
            if w is not None:
                rows.append(([q * x - p * y for x, y in zip(u, w)], 0, q, rel))
            elif skeleton.charnes_cooper:
                # t is the last column, where U is zero
                rows.append(([q * x for x in u[:-1]] + [-p], 0, q, rel))
            else:
                rows.append(([q * x for x in u], p, q, rel))
    rows.extend(skeleton.fixed)
    return ConstraintSystem(1 << syl.s, rows, skeleton.costs)
