"""Boolean term algebra over named properties and its reduction to atom sets.

S declared properties split the referential universe into K = 2**S disjoint
atoms.  Atom index k encodes membership bitwise: bit s of k is 1 exactly when
the atom lies inside property s, with bit 0 the first declared property.  A
term expression (any and/or/not combination of property names, plus the
universe constant) denotes a subset of the universe, which reduces exactly to
a set of atom indices.
"""

from __future__ import annotations

from typing import Iterator, Sequence

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
    "atoms_of",
    "term_names",
]

# ceiling on declared properties; 2**16 atoms is already a 65536-column system
S_MAX = 16


class SizeGuardError(RuntimeError):
    """A requested computation would exceed a configured size cap."""


class _Term:
    """Mixin giving term expressions composable operator syntax."""

    __slots__ = ()

    def __and__(self, other: "TermExpr") -> "And":
        return And(self, other)

    def __or__(self, other: "TermExpr") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


@value
class Prop(_Term):
    """Leaf naming one declared property."""

    name: str

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)


@value
class Not(_Term):
    """Complement of a term."""

    arg: "TermExpr"

    def __init__(self, arg: "TermExpr") -> None:
        object.__setattr__(self, "arg", arg)


@value
class And(_Term):
    """Intersection of two terms."""

    left: "TermExpr"
    right: "TermExpr"

    def __init__(self, left: "TermExpr", right: "TermExpr") -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


@value
class Or(_Term):
    """Union of two terms."""

    left: "TermExpr"
    right: "TermExpr"

    def __init__(self, left: "TermExpr", right: "TermExpr") -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


@value
class Universe(_Term):
    """The whole referential; written ``*`` in the surface syntax."""


TermExpr = object  # union of the five node classes above
UNIVERSE = Universe()


def term_names(expr: TermExpr) -> Iterator[str]:
    """Yield every property name appearing in ``expr`` (with repeats)."""
    if isinstance(expr, Prop):
        yield expr.name
    elif isinstance(expr, Not):
        yield from term_names(expr.arg)
    elif isinstance(expr, (And, Or)):
        yield from term_names(expr.left)
        yield from term_names(expr.right)
    elif isinstance(expr, Universe):
        return
    else:
        raise TypeError("not a term expression: %r" % (expr,))


def atoms_of(expr: TermExpr, properties: Sequence[str]) -> frozenset:
    """Exact atom set denoted by a term expression.

    Respects De Morgan laws by construction (complement/intersection/union on
    index sets).  Raises ValueError for leaves naming undeclared properties.
    """
    s = len(properties)
    if s < 1:
        raise ValueError("need at least one declared property")
    if s > S_MAX:
        raise SizeGuardError(
            "S=%d properties would create %d atoms (cap %d); "
            "the constraint system would be too large" % (s, 2**s, 2**S_MAX)
        )
    bit_of = {name: bit for bit, name in enumerate(properties)}
    if len(bit_of) != s:
        raise ValueError("property names must be unique")
    full = frozenset(range(1 << s))

    def walk(node: TermExpr) -> frozenset:
        if isinstance(node, Prop):
            try:
                bit = bit_of[node.name]
            except KeyError:
                raise ValueError(
                    "undeclared property %r; declared: %s"
                    % (node.name, ", ".join(properties))
                ) from None
            return frozenset(i for i in full if i >> bit & 1)
        if isinstance(node, Universe):
            return full
        if isinstance(node, Not):
            return full - walk(node.arg)
        if isinstance(node, And):
            return walk(node.left) & walk(node.right)
        if isinstance(node, Or):
            return walk(node.left) | walk(node.right)
        raise TypeError("not a term expression: %r" % (node,))

    return walk(expr)
