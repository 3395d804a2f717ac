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

A row is held as set terms: each term is one of the atom sets above with a
rational coefficient, so building or combining rows costs one step per term,
not per atom, and the K = 2**S atoms are only expanded when a caller reads
per-atom coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

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
    as_fraction,
    check_unit,
)
from .statements import Conclusion, Statement, Syllogism
from .terms import atoms_of

__all__ = [
    "UnitMixingError",
    "LinearExpr",
    "Constraint",
    "Objective",
    "ConstraintSystem",
    "compile_statement",
    "structural_constraints",
    "build_objective",
    "compile_syllogism",
]

LE, GE, EQ, LT, GT = "<=", ">=", "==", "<", ">"


class UnitMixingError(ValueError):
    """Count and proportion quantifiers mixed without a declared universe."""


# (atom indices, coefficient): the coefficient times the sum of x_k over the atoms
Term = Tuple[FrozenSet[int], Fraction]


@dataclass(frozen=True, eq=False)
class LinearExpr:
    """Linear expression over atom cardinalities.

    Each term (atoms, c) adds c times the sum of x_k over a set of atoms, so
    a row built from a few term sets holds a few terms however many atoms
    the sets cover.  coeffs, as_dict() and equality read the per-atom
    values the terms add up to.
    """

    terms: Tuple[Term, ...] = ()

    @staticmethod
    def of(coeffs: Dict[int, Fraction]) -> "LinearExpr":
        return LinearExpr(
            tuple((frozenset((k,)), as_fraction(v)) for k, v in coeffs.items() if v != 0)
        )

    @staticmethod
    def sum_over(atoms) -> "LinearExpr":
        """The sum of x_k over a set of atom indices."""
        members = frozenset(atoms)
        return LinearExpr(((members, Fraction(1)),) if members else ())

    @property
    def coeffs(self) -> Tuple[Tuple[int, Fraction], ...]:
        """Nonzero per-atom coefficients, by atom index."""
        out: Dict[int, Fraction] = {}
        for atoms, v in self.terms:
            for k in atoms:
                out[k] = out.get(k, 0) + v
        return tuple(sorted((k, v) for k, v in out.items() if v != 0))

    def as_dict(self) -> Dict[int, Fraction]:
        return dict(self.coeffs)

    def plus(self, other: "LinearExpr", factor=1) -> "LinearExpr":
        """self + factor * other."""
        f = as_fraction(factor)
        if f == 0:
            return self
        return LinearExpr(self.terms + tuple((atoms, f * v) for atoms, v in other.terms))

    def max_index(self) -> int:
        """Highest atom index any term names."""
        return max((max(atoms) for atoms, _ in self.terms if atoms), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearExpr):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)


@dataclass(frozen=True)
class Constraint:
    """expr REL rhs, with REL one of <=, >=, ==, <, >.

    Strict relations come only from logical-some/not-all translations and
    denominator positivity; the optimizer rewrites them before solving.
    """

    expr: LinearExpr
    rel: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.rel not in (LE, GE, EQ, LT, GT):
            raise ValueError("unknown relation %r" % self.rel)
        object.__setattr__(self, "rhs", as_fraction(self.rhs))

    @property
    def is_strict(self) -> bool:
        return self.rel in (LT, GT)


@dataclass(frozen=True)
class Objective:
    """Linear sum to be minimized and maximized, or a ratio of two when
    ``denominator`` is set."""

    numerator: LinearExpr
    denominator: Optional[LinearExpr] = None

    def __post_init__(self) -> None:
        # per-atom coefficients can only be negative if some term's is
        den = self.denominator
        if den is not None and any(v < 0 for _, v in den.terms):
            if any(v < 0 for _, v in den.coeffs):
                raise ValueError("ratio denominators are nonnegative atom sums")


@dataclass
class ConstraintSystem:
    """Everything one crisp solve needs.

    ``proportional_context`` records whether any statement in the syllogism
    is a ratio one; the strict-inequality rewrite keys off it.
    """

    k: int
    constraints: List[Constraint]
    objective: Objective
    universe_size: Optional[Fraction] = None
    proportional_context: bool = False

    def __post_init__(self) -> None:
        for con in self.constraints:
            if con.expr.max_index() >= self.k:
                raise ValueError("constraint references atom index >= K")
        if self.objective.numerator.max_index() >= self.k:
            raise ValueError("objective references atom index >= K")
        if self.objective.denominator is not None:
            if self.objective.denominator.max_index() >= self.k:
                raise ValueError("objective references atom index >= K")


def _term_sets(stmt, properties: Sequence[str]) -> Tuple[frozenset, frozenset]:
    return atoms_of(stmt.restriction, properties), atoms_of(stmt.scope, properties)


def _measure(family: str, a: frozenset, b: frozenset) -> Tuple[LinearExpr, Optional[frozenset]]:
    """A numeric family's measure over term sets a and b.

    Returns (numerator, denominator atoms), with None as the denominator of
    a count family.
    """
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
    raise ValueError("family %r has no numeric measure" % family)


# a logical family is a fixed relation on a count measure: (family, rel) of 0
_LOGICAL_ROWS = {
    LOGICAL_ALL: (EXCEPTION, EQ),
    LOGICAL_NONE: (ABSOLUTE, EQ),
    LOGICAL_SOME: (ABSOLUTE, GT),
    LOGICAL_NOT_ALL: (EXCEPTION, GT),
}


def compile_statement(
    stmt: Statement, bound: Optional[Interval], properties: Sequence[str]
) -> List[Constraint]:
    """Constraints equivalent to ``stmt`` holding with the given crisp bound.

    ``bound`` is supplied separately from the statement because fuzzy
    statements are compiled once per alpha-cut level.  Logical families ignore
    it (pass None).  An unbounded hi emits no upper row.
    """
    return _statement_rows(stmt, bound, *_term_sets(stmt, properties))


def _statement_rows(
    stmt: Statement, bound: Optional[Interval], a: frozenset, b: frozenset
) -> List[Constraint]:
    """compile_statement over the statement's term sets a and b."""
    if stmt.family in _LOGICAL_ROWS:
        family, rel = _LOGICAL_ROWS[stmt.family]
        return [Constraint(_measure(family, a, b)[0], rel, 0)]
    if bound is None:
        raise ValueError("family %s needs a crisp bound to compile" % stmt.family)
    check_unit(stmt.family, bound.lo, bound.hi)
    num, den = _measure(stmt.family, a, b)
    rows = []
    for rel, value in ((GE, bound.lo), (LE, bound.hi)):
        if value is None:
            continue
        if den is None:
            rows.append(Constraint(num, rel, value))
        else:
            rows.append(Constraint(num.plus(LinearExpr.sum_over(den), -value), rel, 0))
    return rows


def structural_constraints(
    premises: Sequence[Statement],
    conclusion: Conclusion,
    properties: Sequence[str],
    universe_size=None,
) -> Tuple[List[Constraint], bool]:
    """Denominator positivity and the universe equation.

    Returns (constraints, proportional_context).  Count and proportion
    quantifiers may share a syllogism only when the universe size is declared
    (the caller is expected to surface a warning in that case); otherwise the
    mix is refused here.
    """
    statements = list(premises) + [conclusion]
    sets = [_term_sets(stmt, properties) for stmt in statements]
    return _structural_rows(statements, sets, len(properties), universe_size)


def _structural_rows(
    statements: Sequence, sets: Sequence[Tuple[frozenset, frozenset]], s: int, universe_size
) -> Tuple[List[Constraint], bool]:
    """structural_constraints over each statement's term sets and S = s."""
    families = [stmt.family for stmt in statements]
    has_ratio = any(f in RATIO_FAMILIES for f in families)
    has_count = any(f in COUNT_FAMILIES for f in families)
    if has_ratio and has_count and universe_size is None:
        raise UnitMixingError(
            "syllogism mixes count quantifiers (absolute/exception/"
            "comparative-absolute) with proportion quantifiers; declare "
            "'universe:' to make the units commensurable"
        )

    rows: List[Constraint] = []
    for family, (a, b) in zip(families, sets):
        if family in RATIO_FAMILIES:
            _, den = _measure(family, a, b)
            rows.append(Constraint(LinearExpr.sum_over(den), GT, 0))
    if universe_size is not None:
        full = LinearExpr.sum_over(range(1 << s))
        rows.append(Constraint(full, EQ, universe_size))
    return rows, has_ratio


def build_objective(conclusion: Conclusion, properties: Sequence[str]) -> Objective:
    """Objective whose min/max over the feasible region is the conclusion bound."""
    return _objective(conclusion.family, *_term_sets(conclusion, properties))


def _objective(family: str, a: frozenset, b: frozenset) -> Objective:
    num, den = _measure(family, a, b)
    return Objective(num, None if den is None else LinearExpr.sum_over(den))


def compile_syllogism(
    syl: Syllogism, premise_bounds: Sequence[Optional[Interval]]
) -> ConstraintSystem:
    """Assemble the full constraint system for one crisp reading.

    ``premise_bounds`` supplies the crisp interval for each premise in order
    (None for logical premises); fuzzy quantifiers are expected to have been
    cut to intervals by the caller.  The term sets come from
    ``syl.term_sets``, so every level of one inference shares them.
    """
    if len(premise_bounds) != len(syl.premises):
        raise ValueError("need exactly one bound per premise")
    *premise_sets, conclusion_sets = syl.term_sets
    rows: List[Constraint] = []
    for stmt, bound, (a, b) in zip(syl.premises, premise_bounds, premise_sets):
        rows.extend(_statement_rows(stmt, bound, a, b))
    structural, has_ratio = _structural_rows(
        (*syl.premises, syl.conclusion), syl.term_sets, syl.s, syl.universe_size
    )
    rows.extend(structural)
    objective = _objective(syl.conclusion.family, *conclusion_sets)
    return ConstraintSystem(
        k=1 << syl.s,
        constraints=rows,
        objective=objective,
        universe_size=syl.universe_size,
        proportional_context=has_ratio,
    )
