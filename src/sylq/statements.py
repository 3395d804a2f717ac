"""Quantified statements and syllogisms.

A statement applies a quantifier to a pair of terms.  For most families the
pair is read as restriction -> scope ("Q restriction are scope"); comparative
and similarity families compare the two terms as wholes.  A syllogism is a
list of premise statements plus one conclusion template whose quantifier
family is declared but whose bound is the unknown to be inferred.  Building
a syllogism reduces each of its terms to an atom mask once (term_sets); the
compiler and the oracle read those masks and walk no term again.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple

from . import compiler
from ._value import value
from .quantifiers import (
    FAMILY_TABLE,
    LOGICAL_FAMILIES,
    LOGICAL_NONE,
    NUMERIC_FAMILIES,
    QuantifierSpec,
    as_fraction,
)
from .terms import TermExpr, property_masks, term_mask

__all__ = ["Statement", "Conclusion", "Syllogism"]


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
        self.__dict__.update(quantifier=quantifier, restriction=restriction, scope=scope)

    @property
    def family(self) -> str:
        return self.quantifier.family


@value
class Conclusion:
    """Conclusion template: a declared numeric family with unknown bound."""

    family: str
    restriction: TermExpr
    scope: TermExpr

    def __init__(self, family: str, restriction: TermExpr, scope: TermExpr) -> None:
        self.__dict__.update(family=family, restriction=restriction, scope=scope)
        if family in LOGICAL_FAMILIES:
            raise ValueError(
                "logical quantifiers cannot be synthesized in conclusion "
                "position; declare a numeric family (a [0,0] absolute result "
                "can be read back as '%s', and so on)" % FAMILY_TABLE[LOGICAL_NONE].keyword
            )
        if family not in NUMERIC_FAMILIES:
            raise ValueError("unknown conclusion family %r" % family)


@value
class Syllogism:
    """N premises, one conclusion template, over an ordered property list."""

    properties: Tuple[str, ...]
    premises: Tuple[Statement, ...]
    conclusion: Conclusion
    universe_size: Optional[Fraction] = None

    def __init__(self, properties, premises, conclusion, universe_size=None) -> None:
        properties, premises = tuple(properties), tuple(premises)
        if not properties:
            raise ValueError("a syllogism needs at least one declared property")
        if len(set(properties)) != len(properties):
            raise ValueError("property names must be unique")
        # zero premises is allowed: the conclusion is then bounded only by
        # the structural constraints (useful as a baseline and for slicing)
        size = None if universe_size is None else as_fraction(universe_size)
        if size is not None and size <= 0:
            raise ValueError("universe size must be positive")
        self.__dict__.update(
            properties=properties, premises=premises, conclusion=conclusion, universe_size=size
        )
        # one walk per term: its atom mask, which also finds undeclared
        # names; past S_MAX building the property masks raises SizeGuardError
        self.term_sets

    @property
    def s(self) -> int:
        return len(self.properties)

    @cached_property
    def term_sets(self) -> Tuple[Tuple[int, int], ...]:
        """(restriction atoms, scope atoms) of each premise, then of the
        conclusion, as atom masks: bit k is atom k (see terms).

        __init__ computes them, from the property masks built once,
        and keeps them on this object only, so every level of one
        inference, and the oracle, reads the same sets.
        """
        masks, full = property_masks(self.properties), (1 << (1 << self.s)) - 1
        statements = (*self.premises, self.conclusion)
        sets = []
        for i, st in enumerate(statements, start=1):
            for side, expr in (("restriction", st.restriction), ("scope", st.scope)):
                try:
                    sets.append(term_mask(expr, masks, full))
                except KeyError as exc:
                    where = "premise %d" % i if i < len(statements) else "conclusion"
                    raise ValueError(
                        "%s %s references undeclared property %r" % (where, side, exc.args[0])
                    ) from None
        return tuple(zip(sets[::2], sets[1::2]))

    @cached_property
    def skeleton(self) -> "compiler.Skeleton":
        """The part of this syllogism's LP that no premise bound changes.

        Built by compiler.build_skeleton on first use and kept on this
        object only, so every level of one inference shares it.
        """
        return compiler.build_skeleton(self)
