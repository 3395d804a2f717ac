"""Quantified statements and syllogisms.

A statement applies a quantifier to a pair of terms.  For most families the
pair is read as restriction -> scope ("Q restriction are scope"); comparative
and similarity families compare the two terms as wholes.  A syllogism is a
list of premise statements plus one conclusion template whose quantifier
family is declared but whose bound is the unknown to be inferred.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple

from . import compiler
from ._value import value
from .quantifiers import (
    COMPARATIVE_ABSOLUTE,
    COMPARATIVE_PROPORTIONAL,
    LOGICAL_FAMILIES,
    NUMERIC_FAMILIES,
    SIMILARITY,
    QuantifierSpec,
    as_fraction,
)
from .terms import TermExpr, atom_mask, term_names

__all__ = ["COMPARED_FAMILIES", "Statement", "Conclusion", "Syllogism"]

# families whose two terms are compared as wholes rather than restricted
COMPARED_FAMILIES = frozenset({COMPARATIVE_ABSOLUTE, COMPARATIVE_PROPORTIONAL, SIMILARITY})


@value
class Statement:
    """One quantified premise: quantifier plus two terms.

    ``restriction`` and ``scope`` are the first and second term; comparative
    and similarity quantifiers treat them as the two compared sets.
    """

    quantifier: QuantifierSpec
    restriction: TermExpr
    scope: TermExpr

    def __init__(self, quantifier: QuantifierSpec, restriction: TermExpr, scope: TermExpr) -> None:
        object.__setattr__(self, "quantifier", quantifier)
        object.__setattr__(self, "restriction", restriction)
        object.__setattr__(self, "scope", scope)

    @property
    def family(self) -> str:
        return self.quantifier.family


@value
class Conclusion:
    """Conclusion template: a declared numeric family with unknown bound."""

    family: str
    restriction: TermExpr
    scope: TermExpr

    def __post_init__(self) -> None:
        if self.family in LOGICAL_FAMILIES:
            raise ValueError(
                "logical quantifiers cannot be synthesized in conclusion "
                "position; declare a numeric family (a [0,0] absolute result "
                "can be read back as 'none', and so on)"
            )
        if self.family not in NUMERIC_FAMILIES:
            raise ValueError("unknown conclusion family %r" % self.family)


@value
class Syllogism:
    """N premises, one conclusion template, over an ordered property list."""

    properties: Tuple[str, ...]
    premises: Tuple[Statement, ...]
    conclusion: Conclusion
    universe_size: Optional[Fraction] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "properties", tuple(self.properties))
        object.__setattr__(self, "premises", tuple(self.premises))
        if not self.properties:
            raise ValueError("a syllogism needs at least one declared property")
        if len(set(self.properties)) != len(self.properties):
            raise ValueError("property names must be unique")
        # zero premises is allowed: the conclusion is then bounded only by
        # the structural constraints (useful as a baseline and for slicing)
        if self.universe_size is not None:
            size = as_fraction(self.universe_size)
            if size <= 0:
                raise ValueError("universe size must be positive")
            object.__setattr__(self, "universe_size", size)
        declared = set(self.properties)
        for where, expr in self._term_sites():
            for name in term_names(expr):
                if name not in declared:
                    raise ValueError(
                        "%s references undeclared property %r" % (where, name)
                    )

    def _term_sites(self):
        for i, premise in enumerate(self.premises, start=1):
            yield "premise %d restriction" % i, premise.restriction
            yield "premise %d scope" % i, premise.scope
        yield "conclusion restriction", self.conclusion.restriction
        yield "conclusion scope", self.conclusion.scope

    @property
    def s(self) -> int:
        return len(self.properties)

    @cached_property
    def term_sets(self) -> Tuple[Tuple[int, int], ...]:
        """(restriction atoms, scope atoms) of each premise, then of the
        conclusion, as atom masks (terms.atom_mask).

        Computed on first use and kept on this object only, so every level
        of one inference reads the same sets.
        """
        return tuple(
            (atom_mask(st.restriction, self.properties), atom_mask(st.scope, self.properties))
            for st in (*self.premises, self.conclusion)
        )

    @cached_property
    def skeleton(self) -> "compiler.Skeleton":
        """The part of this syllogism's LP that no premise bound changes.

        Built by compiler.build_skeleton on first use and kept on this
        object only, so every level of one inference shares it.
        """
        return compiler.build_skeleton(self)
