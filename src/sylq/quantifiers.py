"""Quantifier shapes and alpha-cut geometry.

A generalized quantifier is a family tag (how a statement is translated into
constraints on cardinalities) plus a bound shape (which numeric range the
quantifier allows at a given membership level).  FAMILY_TABLE is the one
definition of a family: its document keyword, unit, connector, measure and
bound range; every family set below is read from it.  Four shapes are
supported:

* ``Interval``           crisp bounds, possibly unbounded above;
* ``Trapezoid``          the usual [a, b, c, d] fuzzy membership function;
* ``KernelSupportPair``  a coarse two-interval approximation of a fuzzy set;
* ``RimQuantifier``      regular increasing monotone quantifier p ** alpha.

Everything here is exact: numeric inputs are normalized to ``Fraction`` (floats
are snapped to the nearest rational with denominator <= 10**9, so 0.7 means
7/10), and alpha cuts of trapezoids are computed without rounding.  Only RIM
cuts whose inverse exponent is not an integer up to _RIM_EXACT_POWER go
through floats, and those are snapped back immediately.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

from ._value import value
from .optimizer import EQ, GT

__all__ = [
    "LOGICAL_ALL",
    "LOGICAL_NONE",
    "LOGICAL_SOME",
    "LOGICAL_NOT_ALL",
    "ABSOLUTE",
    "PROPORTIONAL",
    "EXCEPTION",
    "COMPARATIVE_ABSOLUTE",
    "COMPARATIVE_PROPORTIONAL",
    "SIMILARITY",
    "FAMILY_TABLE",
    "FAMILIES",
    "LOGICAL_FAMILIES",
    "COUNT_FAMILIES",
    "RATIO_FAMILIES",
    "NUMERIC_FAMILIES",
    "COMPARED_FAMILIES",
    "as_fraction",
    "check_unit",
    "Interval",
    "Trapezoid",
    "KernelSupportPair",
    "RimQuantifier",
    "QuantifierSpec",
    "bound_ints",
    "cut_ints",
    "fit_trapezoid",
]

LOGICAL_ALL = "logical-all"
LOGICAL_NONE = "logical-none"
LOGICAL_SOME = "logical-some"
LOGICAL_NOT_ALL = "logical-not-all"
ABSOLUTE = "absolute"
PROPORTIONAL = "proportional"
EXCEPTION = "exception"
COMPARATIVE_ABSOLUTE = "comparative-absolute"
COMPARATIVE_PROPORTIONAL = "comparative-proportional"
SIMILARITY = "similarity"

# units: a logical family carries no bound; a count family's bound talks
# about cardinalities, a ratio family's about a ratio of cardinalities
LOGICAL, COUNT, RATIO = "logical", "count", "ratio"


class Family(NamedTuple):
    """Everything that defines one quantifier family.

    measure maps the atom masks (a, b) of a statement's two terms to
    (counted, subtracted, denominator) masks: the family measures
    S_counted - S_subtracted, over S_denominator for a ratio family (0 is
    the empty set; the denominator is None for the other units).  A logical
    family holds when its measure stands in relation to 0.  bounds is the
    (least lo, greatest hi) a numeric family's bound may have, None where
    it is open; a range starts at 0 or is open below.
    """

    keyword: str
    unit: str
    compared: bool  # the terms are two sets compared with "vs", not "->"
    measure: Callable[[int, int], Tuple[int, int, Optional[int]]]
    bounds: Optional[Tuple[Optional[int], Optional[int]]] = None
    relation: Optional[str] = None


# error messages list keywords and families in this order
FAMILY_TABLE = {
    LOGICAL_ALL: Family("all", LOGICAL, False, lambda a, b: (a & ~b, 0, None), relation=EQ),
    LOGICAL_NONE: Family("none", LOGICAL, False, lambda a, b: (a & b, 0, None), relation=EQ),
    LOGICAL_SOME: Family("some", LOGICAL, False, lambda a, b: (a & b, 0, None), relation=GT),
    LOGICAL_NOT_ALL: Family("not-all", LOGICAL, False, lambda a, b: (a & ~b, 0, None), relation=GT),
    ABSOLUTE: Family("abs", COUNT, False, lambda a, b: (a & b, 0, None), (0, None)),
    PROPORTIONAL: Family("prop", RATIO, False, lambda a, b: (a & b, 0, a), (0, 1)),
    EXCEPTION: Family("exc", COUNT, False, lambda a, b: (a & ~b, 0, None), (0, None)),
    # differences of counts may be negative; ratios of them may exceed 1
    COMPARATIVE_ABSOLUTE: Family("cmpabs", COUNT, True, lambda a, b: (a, b, None), (None, None)),
    COMPARATIVE_PROPORTIONAL: Family("cmpprop", RATIO, True, lambda a, b: (a, 0, b), (0, None)),
    SIMILARITY: Family("sim", RATIO, True, lambda a, b: (a & b, 0, a | b), (0, 1)),
}
FAMILIES = frozenset(FAMILY_TABLE)
LOGICAL_FAMILIES, COUNT_FAMILIES, RATIO_FAMILIES = (
    frozenset(f for f, row in FAMILY_TABLE.items() if row.unit == unit)
    for unit in (LOGICAL, COUNT, RATIO)
)
NUMERIC_FAMILIES = COUNT_FAMILIES | RATIO_FAMILIES
# families whose two terms are compared as wholes rather than restricted
COMPARED_FAMILIES = frozenset(f for f, row in FAMILY_TABLE.items() if row.compared)

_SNAP_DENOMINATOR = 10**9
# a RIM cut level ** n is exact for an integer n up to this; past it the
# exact power has n times the level's digits, which every solve then pays
# for (rim(0.00001) took a minute), so it is snapped like a non-integer n
_RIM_EXACT_POWER = 64

Real = Union[int, float, str, Fraction]


def as_fraction(value: Real) -> Fraction:
    """Normalize a numeric input to an exact Fraction.

    Ints, Fractions and decimal strings convert exactly; floats are snapped to
    the nearest rational with denominator <= 10**9 so that values written as
    short decimals keep their intended meaning.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a numeric bound")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("bound must be finite, got %r" % value)
        return Fraction(value).limit_denominator(_SNAP_DENOMINATOR)
    raise TypeError("cannot interpret %r as a number" % (value,))


def _below(a: Fraction, b: Fraction) -> bool:
    """a < b in ints, past the Fraction comparison's abstract type check."""
    return a.numerator * b.denominator < b.numerator * a.denominator


def _sig_digits(value: Fraction) -> str:
    """value to 12 significant digits as "%.12g" prints them, also past the
    float range, where a float reads inf or 0."""
    from decimal import MAX_EMAX, MIN_EMIN, Context

    # normalized, so trailing zeros go as they do from "%.12g"
    context = Context(prec=12, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return format(context.divide(value.numerator, value.denominator).normalize(context), ".12g")


def _fmt(value: Fraction) -> str:
    """Exact text for a rational: integer, short decimal, or p/q."""
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:  # decimal-exact
        digits = max(twos, fives)
        scaled = value.numerator * 10**digits // value.denominator
        sign = "-" if scaled < 0 else ""
        text = str(abs(scaled)).rjust(digits + 1, "0")
        return "%s%s.%s" % (sign, text[:-digits], text[-digits:])
    return "%d/%d" % (value.numerator, value.denominator)


@value
class Interval:
    """Closed numeric interval, possibly unbounded above.

    ``hi is None`` means unbounded above.  Strict rows never come from an
    interval: the compiler emits them only for logical-some/not-all and for
    denominator positivity.
    """

    lo: Fraction
    hi: Optional[Fraction] = None

    def __init__(self, lo: Real, hi: Optional[Real] = None) -> None:
        lo = as_fraction(lo)
        if hi is not None:
            hi = as_fraction(hi)
            if _below(hi, lo):
                raise ValueError(
                    "interval lower bound %s exceeds upper bound %s" % (_fmt(lo), _fmt(hi))
                )
        self.__dict__.update(lo=lo, hi=hi)

    def subset_of(self, other: "Interval") -> bool:
        """True when every point of this interval lies in ``other``."""
        if _below(self.lo, other.lo):
            return False
        if other.hi is None:
            return True
        if self.hi is None:
            return False
        return not _below(other.hi, self.hi)

    def __str__(self) -> str:
        if self.hi is None:
            return "[%s, inf)" % _fmt(self.lo)
        return "[%s, %s]" % (_fmt(self.lo), _fmt(self.hi))


@value
class Trapezoid:
    """Trapezoidal membership function with support [a, d] and kernel [b, c]."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __init__(self, a: Real, b: Real, c: Real, d: Real) -> None:
        a, b, c, d = as_fraction(a), as_fraction(b), as_fraction(c), as_fraction(d)
        self.__dict__.update(a=a, b=b, c=c, d=d)
        if _below(b, a) or _below(c, b) or _below(d, c):
            raise ValueError(
                "trapezoid parameters must be ordered a <= b <= c <= d, got "
                "[%s, %s, %s, %s]"
                % (_fmt(self.a), _fmt(self.b), _fmt(self.c), _fmt(self.d))
            )

    @property
    def kernel(self) -> Interval:
        return Interval(self.b, self.c)

    @property
    def support(self) -> Interval:
        return Interval(self.a, self.d)

    def as_tuple(self) -> tuple:
        return (self.a, self.b, self.c, self.d)


@value
class KernelSupportPair:
    """Kernel and support intervals of a fuzzy quantifier; kernel ⊆ support."""

    kernel: Interval
    support: Interval

    def __init__(self, kernel: Interval, support: Interval) -> None:
        self.__dict__.update(kernel=kernel, support=support)
        if not kernel.subset_of(support):
            raise ValueError(
                "kernel %s is not contained in support %s"
                % (kernel, support)
            )


@value
class RimQuantifier:
    """Regular increasing monotone quantifier: membership p ** exponent on [0, 1]."""

    exponent: Fraction

    def __init__(self, exponent: Real) -> None:
        exponent = self.__dict__["exponent"] = as_fraction(exponent)
        if exponent <= 0:
            raise ValueError("RIM exponent must be positive")


Shape = Union[Interval, Trapezoid, KernelSupportPair, RimQuantifier, None]

# a crisp bound as exact ints: (lo_num, lo_den, hi_num, hi_den), see bound_ints
IntBound = Tuple[int, int, Optional[int], Optional[int]]


def check_unit(family: str, lo_num: int, hi_num: Optional[int], hi_den: Optional[int]) -> None:
    """Validate that a bound lies in the range its family's unit admits
    (FAMILY_TABLE's bounds).

    The bound is read as bound_ints gives it (hi_num and hi_den None when
    unbounded above); denominators are positive, so each test is in ints.
    """
    least, most = FAMILY_TABLE[family].bounds
    if least is not None and lo_num < least or (
        most is not None and hi_num is not None and hi_num > most * hi_den
    ):
        where = "be nonnegative" if most is None else "lie inside [%d, %d]" % (least, most)
        raise ValueError("%s bounds must %s" % (family, where))


@value
class QuantifierSpec:
    """A quantifier family together with its bound shape.

    Logical families carry no shape.  Count families (absolute, exception,
    comparative-absolute) use count units; ratio families use proportions
    (comparative-proportional ratios may exceed 1).  RIM shapes are accepted
    for any ratio family and routed through alpha cuts like trapezoids.
    """

    family: str
    shape: Shape = None

    def __init__(self, family: str, shape: Shape = None) -> None:
        self.__dict__.update(family=family, shape=shape)
        if self.family not in FAMILIES:
            raise ValueError(
                "unknown quantifier family %r; expected one of %s"
                % (self.family, ", ".join(sorted(FAMILIES)))
            )
        if self.family in LOGICAL_FAMILIES:
            if self.shape is not None:
                raise ValueError("logical quantifier %s carries no bound shape" % self.family)
            return
        if self.shape is None:
            raise ValueError("quantifier %s needs a bound shape" % self.family)
        if isinstance(self.shape, RimQuantifier) and self.family not in RATIO_FAMILIES:
            raise ValueError("RIM shapes define proportions; family %s uses counts" % self.family)
        lo_num, _, hi_num, hi_den = cut_ints(self.shape, 0, 1)
        check_unit(self.family, lo_num, hi_num, hi_den)


def _rim_cut_lo(exponent: Fraction, level: Fraction) -> Fraction:
    """Smallest p with p ** exponent >= level, i.e. level ** (1/exponent)."""
    if level == 0:
        return Fraction(0)
    if level == 1:
        return Fraction(1)
    inv = 1 / exponent
    if inv.denominator == 1 and inv.numerator <= _RIM_EXACT_POWER:
        return level ** inv.numerator
    try:
        power = float(inv)
    except OverflowError:
        # past the float range; a level below one then cuts at 0
        power = math.inf
    value = float(level) ** power
    return Fraction(value).limit_denominator(_SNAP_DENOMINATOR)


def bound_ints(bound: Interval) -> IntBound:
    """A crisp bound as exact ints (lo_num, lo_den, hi_num, hi_den), each
    end in lowest terms with a positive denominator; hi_num and hi_den are
    None when the bound is unbounded above."""
    lo, hi = bound.lo, bound.hi
    if hi is None:
        return lo.numerator, lo.denominator, None, None
    return lo.numerator, lo.denominator, hi.numerator, hi.denominator


def _between(start: Fraction, end: Fraction, p: int, q: int) -> Tuple[int, int]:
    """start + (p/q) * (end - start) as ints in lowest terms."""
    s, e = start.denominator, end.denominator
    num = start.numerator * e * (q - p) + end.numerator * s * p
    den = s * e * q
    g = gcd(num, den)
    return num // g, den // g


def cut_ints(shape: Shape, p: int, q: int) -> IntBound:
    """The cut of ``shape`` at level p/q (0 <= p <= q, q > 0) as bound_ints.

    A crisp interval is its own cut at every level.  Trapezoid ends are
    linear in the level, so each is one int numerator over the level's
    denominator, reduced by one gcd; a kernel/support pair is read as the
    trapezoid it determines, and an unbounded one only at level 0 (its
    support) and level 1 (its kernel).  A RIM cut is [_rim_cut_lo, 1].
    """
    if isinstance(shape, Interval):
        return bound_ints(shape)
    if isinstance(shape, Trapezoid):
        a, b, c, d = shape.as_tuple()
    elif isinstance(shape, KernelSupportPair):
        support, kernel = shape.support, shape.kernel
        if support.hi is None or kernel.hi is None:
            if 0 < p < q:
                raise ValueError("cannot interpolate an unbounded kernel/support pair")
            return bound_ints(kernel if p else support)
        a, b, c, d = support.lo, kernel.lo, kernel.hi, support.hi
    elif isinstance(shape, RimQuantifier):
        lo = _rim_cut_lo(shape.exponent, Fraction(p, q))
        return lo.numerator, lo.denominator, 1, 1
    else:
        raise TypeError("no cut for shape %r" % (shape,))
    return _between(a, b, p, q) + _between(d, c, p, q)


def fit_trapezoid(cuts: Sequence[tuple]) -> Trapezoid:
    """Fit a trapezoid through a nested collection of (level, Interval) cuts.

    The fitted support is the level-0 cut and the fitted kernel is the highest
    given cut, so a collection that tops out below level 1 keeps its actual
    ceiling as the kernel rather than an extrapolation.

    Cut levels must be strictly increasing, start at 0, and the intervals must
    be nested and bounded; a nesting violation signals an optimizer bug
    upstream and raises ValueError.
    """
    if not cuts:
        raise ValueError("need at least one cut to fit")
    levels = [as_fraction(level) for level, _ in cuts]
    intervals = [interval for _, interval in cuts]
    if levels[0] != 0:
        raise ValueError("cut collection must start at level 0")
    for i in range(1, len(levels)):
        if not _below(levels[i - 1], levels[i]):
            raise ValueError("cut levels must be strictly increasing")
        if levels[i].numerator > levels[i].denominator:
            raise ValueError("cut levels must not exceed 1")
    for iv in intervals:
        if iv.hi is None:
            raise ValueError("cannot fit a trapezoid through unbounded cuts")
    for i in range(1, len(intervals)):
        if not intervals[i].subset_of(intervals[i - 1]):
            raise ValueError(
                "cuts are not nested: level %s cut %s is not inside level %s cut %s"
                % (_fmt(levels[i]), intervals[i], _fmt(levels[i - 1]), intervals[i - 1])
            )

    support, kernel = intervals[0], intervals[-1]
    return Trapezoid(support.lo, kernel.lo, kernel.hi, support.hi)
