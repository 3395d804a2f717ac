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
class), and makes each class one LP column, the sum of its atoms; no level
drops a column.  Each class lies wholly inside or outside each referenced
set, so c & atoms reads whether a term covers class c.  Over those columns
it writes the logical and structural rows, with the strict rewrite and the
Charnes-Cooper substitution already applied, the objective costs, and each
numeric premise's measure as int vectors: U for the numerator and, for a
ratio family, W for the denominator.  compile_syllogism then writes each bound p/q of a reading as
one int row: q*U - p*W rel 0 for a ratio family, q*U rel p for a count
family (q*U - p*t rel 0 under Charnes-Cooper).  Every row is a simplex.Row,
which the simplex reads as it is: the class numerators with the rhs
numerator last, their positive denominator, and the relation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from . import optimizer
from ._value import value
from .optimizer import EQ, GE, GT, LE, SetRow, Term
from .quantifiers import COUNT_FAMILIES, FAMILY_TABLE, RATIO_FAMILIES, IntBound, check_unit
from .simplex import Row

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


class _Measure(NamedTuple):
    """A numeric premise's measure: a bound p/q is the row q*U - p*W rel 0
    when homogeneous (W is a ratio family's denominator, or t for a count
    family under Charnes-Cooper), else q*U rel p.  U and W, read per class
    as c & atoms, are kept as their few distinct column pairs (U_j, W_j),
    equal pairs once, and each column's pair."""

    family: str
    pairs: Tuple[Tuple[int, int], ...]
    index: Tuple[int, ...]
    homogeneous: bool


@value
class Skeleton:
    """The part of a syllogism's LP that no premise bound changes.

    classes   the atom mask of each column, ordered by smallest atom; t,
              written as atom K, is the last column when a row carries it
    premises  per premise, a logical premise's row or a numeric one's measure
    fixed     the structural rows, then the Charnes-Cooper normalization
    costs     the objective numerator per column
    """

    classes: Tuple[int, ...]
    premises: Tuple[object, ...]
    fixed: Tuple[Row, ...]
    costs: Tuple[int, ...]

    def __init__(self, classes, premises, fixed, costs) -> None:
        self.__dict__.update(classes=classes, premises=premises, fixed=fixed, costs=costs)

    @cached_property
    def solver_fixed(self) -> Optional[List[Row]]:
        """The fixed rows optimizer.solve keeps (optimizer.keep_rows), read
        once per syllogism since no level changes them."""
        return optimizer.keep_rows(self.fixed)


@value
class ConstraintSystem:
    """One crisp reading's LP over its syllogism's atom classes.

    rows holds the premise rows in premise order; the skeleton adds its
    fixed rows after them (constraints) and the costs; k is the atom count.
    """

    k: int
    rows: List[Row]
    skeleton: Skeleton

    def __init__(self, k: int, rows: List[Row], skeleton: Skeleton) -> None:
        self.__dict__.update(k=k, rows=rows, skeleton=skeleton)

    @property
    def constraints(self) -> List[Row]:
        """Every row of the LP: the premise rows, then the fixed rows."""
        return [*self.rows, *self.skeleton.fixed]

    @property
    def costs(self) -> Tuple[int, ...]:
        return self.skeleton.costs


def _sum(atoms: int, coefficient: Fraction = _ONE) -> Tuple[Term, ...]:
    """coefficient * S_atoms as terms; none for the empty set."""
    return ((atoms, coefficient),) if atoms else ()


def _measure(family: str, a: int, b: int) -> Tuple[Tuple[Term, ...], Optional[int]]:
    """A family's measure over the atom masks a and b (FAMILY_TABLE).

    Returns (numerator terms, denominator atoms): the counted atoms, then
    the subtracted ones at -1; the denominator is None but for a ratio family.
    """
    counted, subtracted, denominator = FAMILY_TABLE[family].measure(a, b)
    return _sum(counted) + _sum(subtracted, -_ONE), denominator


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
            "syllogism mixes count quantifiers (%s) with proportion quantifiers; declare "
            "'universe:' to make the units commensurable"
            % "/".join(f for f in FAMILY_TABLE if f in COUNT_FAMILIES)
        )
    k = 1 << syl.s

    # rows with no bound in them: logical premises, then the structural rows;
    # a numeric premise's measure stands in its place
    rows: List[SetRow] = []
    measures = []
    for stmt, (a, b) in zip(syl.premises, syl.term_sets):
        # a logical family is a fixed relation of its measure to 0
        measure, rel = _measure(stmt.family, a, b), FAMILY_TABLE[stmt.family].relation
        if rel:
            rows.append((measure[0], rel, _ZERO))
        measures.append(None if rel else measure)
    n_logical = len(rows)
    # a positivity row per ratio statement's denominator; equal ones are
    # written once here and repeated in the fixed rows
    stated = zip(statements, syl.term_sets)
    dens = [_measure(st.family, a, b)[1] for st, (a, b) in stated if st.family in RATIO_FAMILIES]
    distinct = list(dict.fromkeys(dens))
    rows.extend((_sum(den), GT, _ZERO) for den in distinct)
    if syl.universe_size is not None:
        rows.append((_sum((1 << k) - 1), EQ, syl.universe_size))
    rows = optimizer.rewrite_strict(
        rows, k=k, proportional_context=has_ratio, universe_size=syl.universe_size
    )
    numerator, denominator = _measure(syl.conclusion.family, *syl.term_sets[-1])
    if denominator is not None:
        # linear-fractional: substitute y = t*x with t = 1/denominator.
        # Row a.x rel b becomes a.y - b*t rel 0, plus the normalization
        # den.y == 1; t >= 0 admits limits along recession directions, so
        # suprema that are only approached are still found.  t is atom
        # index k, so it forms the last class, when a row carries it: with
        # no universe declared every rhs is 0.
        rows = [(terms + ((1 << k, -b),) if b else terms, rel, _ZERO) for terms, rel, b in rows]
        rows.append((_sum(denominator), EQ, _ONE))

    # atoms in the same referenced sets have equal columns: one class each,
    # found by splitting the referenced atoms on every distinct set (rows
    # reference each ratio denominator, and t if any row carries it).  Each
    # class then lies wholly inside or outside each set, so c & atoms reads
    # membership.
    sums = [numerator, *(num for num, _ in filter(None, measures)), *(r[0] for r in rows)]
    masks = list(dict.fromkeys(atoms for terms in sums for atoms, _ in terms))
    classes = [reduce(int.__or__, masks)] if masks else []
    for mask in masks:
        classes = [p for c in classes for p in (c & mask, c & ~mask) if p]
    classes.sort(key=lambda c: c & -c)

    def class_row(terms: Tuple[Term, ...], rel: str = EQ, rhs: Fraction = _ZERO) -> Row:
        """terms rel rhs as int numerators over the lcm of its denominators:
        each term adds its coefficient to the classes inside its atoms."""
        den = lcm(rhs.denominator, *(v.denominator for _, v in terms))
        nums = [0] * len(classes)
        for atoms, v in terms:
            a = v.numerator * (den // v.denominator)
            nums = [n + a if c & atoms else n for n, c in zip(nums, classes)]
        return (*nums, rhs.numerator * (den // rhs.denominator)), den, rel

    class_rows = [class_row(*row) for row in rows]
    logical = iter(class_rows[:n_logical])
    # a count family's W: t under Charnes-Cooper (a count premise there
    # needs a universe, whose row carries t), else zero
    t = _sum(1 << k) if denominator is not None else ()
    premises = []
    for stmt, measure in zip(syl.premises, measures):
        if measure is None:
            premises.append(next(logical))
            continue
        # numerator terms have coefficients +-1, so class_row's denominator is 1
        num, den = measure
        u, w = class_row(num)[0][:-1], class_row(t if den is None else _sum(den))[0][:-1]
        pairs = list(zip(u, w))
        slots = {pair: j for j, pair in enumerate(dict.fromkeys(pairs))}
        index = tuple(map(slots.__getitem__, pairs))
        homogeneous = den is not None or denominator is not None
        premises.append(_Measure(stmt.family, tuple(slots), index, homogeneous))
    den_rows = dict(zip(distinct, class_rows[n_logical:]))
    return Skeleton(
        classes=tuple(classes),
        premises=tuple(premises),
        fixed=(*[den_rows[den] for den in dens], *class_rows[n_logical + len(distinct):]),
        costs=class_row(numerator)[0][:-1],
    )


def compile_syllogism(
    syl: Syllogism, premise_bounds: Sequence[Optional[IntBound]]
) -> ConstraintSystem:
    """The LP of one crisp reading: the skeleton plus each bound's rows.

    ``premise_bounds`` supplies each premise's crisp bound in order as the
    ints of quantifiers.bound_ints (None for logical premises); fuzzy
    quantifiers are cut by the caller (quantifiers.cut_ints).  Each bound is
    checked against its family's unit.  An unbounded hi emits no upper row.
    """
    if len(premise_bounds) != len(syl.premises):
        raise ValueError("need exactly one bound per premise")
    skeleton = syl.skeleton
    rows: List[Row] = []
    for premise, bound in zip(skeleton.premises, premise_bounds):
        if not isinstance(premise, _Measure):
            rows.append(premise)
            continue
        family, pairs, index, homogeneous = premise
        if bound is None:
            raise ValueError("family %s needs a crisp bound to compile" % family)
        lo_p, lo_q, hi_p, hi_q = bound
        check_unit(family, lo_p, hi_p, hi_q)
        for rel, p, q in ((GE, lo_p, lo_q), (LE, hi_p, hi_q)):
            if p is not None:
                values = [q * x - p * y for x, y in pairs]
                rows.append(([*map(values.__getitem__, index), 0 if homogeneous else p], q, rel))
    return ConstraintSystem(1 << syl.s, rows, skeleton)
