"""Boolean term algebra over named properties and its reduction to atom sets.

S declared properties split the referential universe into K = 2**S disjoint
atoms.  Atom index k encodes membership bitwise: bit s of k is 1 exactly when
the atom lies inside property s, with bit 0 the first declared property.  A
term expression (any and/or/not combination of property names, plus the
universe constant) denotes a subset of the universe, which reduces exactly to
a set of atoms: an int with bit k set for atom k (atom_mask).  A caller
that reduces many terms over one property list builds the property masks
once (property_masks) and walks each term over them (term_mask).
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
    "atom_mask",
    "atoms_of",
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
        object.__setattr__(self, "name", name)


@value
class Not:
    """Complement of a term."""

    arg: "TermExpr"

    def __init__(self, arg: "TermExpr") -> None:
        object.__setattr__(self, "arg", arg)


@value
class And:
    """Intersection of two terms."""

    left: "TermExpr"
    right: "TermExpr"

    def __init__(self, left: "TermExpr", right: "TermExpr") -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


@value
class Or:
    """Union of two terms."""

    left: "TermExpr"
    right: "TermExpr"

    def __init__(self, left: "TermExpr", right: "TermExpr") -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


@value
class Universe:
    """The whole referential; written ``*`` in the surface syntax."""


TermExpr = object  # union of the five node classes above
UNIVERSE = Universe()


def property_masks(properties: Sequence[str]) -> Dict[str, int]:
    """Each declared property's atom mask (see atom_mask), by name."""
    s = len(properties)
    if s < 1:
        raise ValueError("need at least one declared property")
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
    if len(masks) != s:
        raise ValueError("property names must be unique")
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


def atom_mask(expr: TermExpr, properties: Sequence[str]) -> int:
    """Exact atom set denoted by a term expression, as an int: bit k is atom k.

    Respects De Morgan laws by construction (complement/intersection/union on
    bitmasks).  Raises ValueError for leaves naming undeclared properties.
    """
    masks = property_masks(properties)
    try:
        return term_mask(expr, masks, (1 << (1 << len(properties))) - 1)
    except KeyError as exc:
        raise ValueError(
            "undeclared property %r; declared: %s" % (exc.args[0], ", ".join(properties))
        ) from None


def atoms_of(expr: TermExpr, properties: Sequence[str]) -> frozenset:
    """atom_mask as a set of atom indices."""
    bits = bin(atom_mask(expr, properties))[:1:-1]
    return frozenset(k for k, bit in enumerate(bits) if bit == "1")
