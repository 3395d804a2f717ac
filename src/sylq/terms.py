"""Boolean term algebra over named properties and its reduction to atom sets.

S declared properties split the referential universe into K = 2**S disjoint
atoms.  Atom index k encodes membership bitwise: bit s of k is 1 exactly when
the atom lies inside property s, with bit 0 the first declared property.  A
term expression (any and/or/not combination of property names, plus the
universe constant) denotes a subset of the universe, which reduces exactly to
a set of atoms: an int with bit k set for atom k.  The property masks are
built once per property list (property_masks) and each term is walked over
them (term_mask); statements.Syllogism.term_sets is the one caller.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ._value import value

__all__ = [
    "S_MAX",
    "SizeGuardError",
    "TermExpr",
    "Prop",
    "Not",
    "And",
    "Or",
    "Universe",
    "UNIVERSE",
    "property_masks",
    "term_mask",
]

# ceiling on declared properties; 2**16 atoms is already a 65536-column system
S_MAX = 16


class SizeGuardError(RuntimeError):
    """A requested computation would exceed a configured size cap."""


@value
class Prop:
    """Leaf naming one declared property."""

    name: str

    def __init__(self, name: str) -> None:
        self.__dict__["name"] = name


@value
class Not:
    """Complement of a term."""

    arg: "TermExpr"

    def __init__(self, arg: "TermExpr") -> None:
        self.__dict__["arg"] = arg


@value
class And:
    """Intersection of two terms."""

    left: "TermExpr"
    right: "TermExpr"

    def __init__(self, left: "TermExpr", right: "TermExpr") -> None:
        self.__dict__.update(left=left, right=right)


@value
class Or:
    """Union of two terms."""

    left: "TermExpr"
    right: "TermExpr"

    def __init__(self, left: "TermExpr", right: "TermExpr") -> None:
        self.__dict__.update(left=left, right=right)


@value
class Universe:
    """The whole referential; written ``*`` in the surface syntax."""


TermExpr = object  # union of the five node classes above
UNIVERSE = Universe()


def property_masks(properties: Sequence[str]) -> Dict[str, int]:
    """Each declared property's atom mask, by name, for at least one
    property and distinct names; more than S_MAX raises SizeGuardError."""
    s = len(properties)
    if s > S_MAX:
        raise SizeGuardError(
            "S=%d properties would create 2^%d atoms (cap 2^%d); "
            "the constraint system would be too large" % (s, s, S_MAX)
        )
    k = 1 << s
    masks = {}
    for bit, name in enumerate(properties):
        # property bit's atoms, by doubling: 2**bit out, 2**bit in, repeated
        half = 1 << bit
        mask, period = ((1 << half) - 1) << half, 2 * half
        while period < k:
            mask, period = mask | mask << period, 2 * period
        masks[name] = mask
    return masks


def term_mask(expr: TermExpr, masks: Dict[str, int], full: int) -> int:
    """The atom set of a term from its properties' masks and the universe's.

    Raises KeyError with the name of a leaf that masks lacks.
    """
    if isinstance(expr, Prop):
        return masks[expr.name]
    if isinstance(expr, Not):
        return full & ~term_mask(expr.arg, masks, full)
    if isinstance(expr, And):
        return term_mask(expr.left, masks, full) & term_mask(expr.right, masks, full)
    if isinstance(expr, Or):
        return term_mask(expr.left, masks, full) | term_mask(expr.right, masks, full)
    if isinstance(expr, Universe):
        return full
    raise TypeError("not a term expression: %r" % (expr,))
