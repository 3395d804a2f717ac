"""Quantifier shapes and alpha-cut geometry.

A generalized quantifier is a family tag (how a statement is translated into
constraints on cardinalities) plus a bound shape (which numeric range the
quantifier allows at a given membership level).  Four shapes are supported:

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
from itertools import repeat
from math import gcd, lcm
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ._value import value

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
    "FAMILIES",
    "LOGICAL_FAMILIES",
    "COUNT_FAMILIES",
    "RATIO_FAMILIES",
    "NUMERIC_FAMILIES",
    "as_fraction",
    "check_unit",
    "Interval",
    "Trapezoid",
    "KernelSupportPair",
    "RimQuantifier",
    "QuantifierSpec",
    "bound_ints",
    "cut",
    "fit_trapezoid",
    "grid_cuts",
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

LOGICAL_FAMILIES = frozenset({LOGICAL_ALL, LOGICAL_NONE, LOGICAL_SOME, LOGICAL_NOT_ALL})
# count units: the bound talks about cardinalities
COUNT_FAMILIES = frozenset({ABSOLUTE, EXCEPTION, COMPARATIVE_ABSOLUTE})
# proportion units: the bound talks about a ratio of cardinalities
RATIO_FAMILIES = frozenset({PROPORTIONAL, COMPARATIVE_PROPORTIONAL, SIMILARITY})
NUMERIC_FAMILIES = COUNT_FAMILIES | RATIO_FAMILIES
FAMILIES = LOGICAL_FAMILIES | NUMERIC_FAMILIES

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


def _fmt(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return str(float(value))


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

    def __post_init__(self) -> None:
        if not self.kernel.subset_of(self.support):
            raise ValueError(
                "kernel %s is not contained in support %s"
                % (self.kernel, self.support)
            )


@value
class RimQuantifier:
    """Regular increasing monotone quantifier: membership p ** exponent on [0, 1]."""

    exponent: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponent", as_fraction(self.exponent))
        if self.exponent <= 0:
            raise ValueError("RIM exponent must be positive")


Shape = Union[Interval, Trapezoid, KernelSupportPair, RimQuantifier, None]

# a crisp bound as exact ints: (lo_num, lo_den, hi_num, hi_den), see bound_ints
IntBound = Tuple[int, int, Optional[int], Optional[int]]


def check_unit(family: str, lo, hi, hi_den=1) -> None:
    """Validate that a bound is expressed in the family's unit.

    lo and hi are the bound's ends (hi None when unbounded), or lo's
    numerator and hi's numerator over hi_den: denominators are positive,
    so each test reads the sign of a numerator or compares hi's numerator
    with its denominator times hi_den, in ints either way.
    """
    if family in (ABSOLUTE, EXCEPTION):
        if lo.numerator < 0:
            raise ValueError("%s bounds must be nonnegative" % family)
    elif family in (PROPORTIONAL, SIMILARITY):
        if lo.numerator < 0 or (hi is not None and hi.numerator > hi.denominator * hi_den):
            raise ValueError("%s bounds must lie inside [0, 1]" % family)
    elif family == COMPARATIVE_PROPORTIONAL:
        # may exceed 1 ("double"), but a negative ratio of cardinalities is
        # meaningless
        if lo.numerator < 0:
            raise ValueError("%s bounds must be nonnegative" % family)
    # comparative-absolute differences may be negative; nothing to check


def _shape_bounds(shape: Shape) -> tuple:
    if isinstance(shape, Interval):
        return shape.lo, shape.hi
    if isinstance(shape, Trapezoid):
        return shape.a, shape.d
    if isinstance(shape, KernelSupportPair):
        return shape.support.lo, shape.support.hi
    if isinstance(shape, RimQuantifier):
        return Fraction(0), Fraction(1)
    raise TypeError("unsupported shape %r" % (shape,))


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
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "shape", shape)
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
        lo, hi = _shape_bounds(self.shape)
        check_unit(self.family, lo, hi)


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


def cut(shape: Shape, level: Real) -> Interval:
    """Crisp interval of values whose membership in ``shape`` is at least ``level``.

    Level 0 returns the closed support, level 1 the kernel, and levels in
    between the alpha cut.  A crisp interval is its own cut at every level;
    a kernel/support pair is read as the trapezoid it determines (linear
    interpolation between support and kernel).
    """
    lam = as_fraction(level)
    if lam < 0 or lam > 1:
        raise ValueError("cut level must lie in [0, 1], got %s" % _fmt(lam))
    if isinstance(shape, Interval):
        return shape
    if isinstance(shape, KernelSupportPair):
        if lam == 0:
            return shape.support
        if lam == 1:
            return shape.kernel
        if shape.support.hi is None or shape.kernel.hi is None:
            raise ValueError("cannot interpolate an unbounded kernel/support pair")
        shape = Trapezoid(shape.support.lo, shape.kernel.lo, shape.kernel.hi, shape.support.hi)
    if isinstance(shape, Trapezoid):
        lo = shape.a + lam * (shape.b - shape.a)
        hi = shape.d - lam * (shape.d - shape.c)
        return Interval(lo, hi)
    if isinstance(shape, RimQuantifier):
        return Interval(_rim_cut_lo(shape.exponent, lam), Fraction(1))
    raise TypeError("no cut for shape %r" % (shape,))


def bound_ints(bound: Interval) -> IntBound:
    """A crisp bound as exact ints (lo_num, lo_den, hi_num, hi_den), each
    end in lowest terms with a positive denominator; hi_num and hi_den are
    None when the bound is unbounded above."""
    lo, hi = bound.lo, bound.hi
    if hi is None:
        return lo.numerator, lo.denominator, None, None
    return lo.numerator, lo.denominator, hi.numerator, hi.denominator


def _linear_ends(start: Fraction, end: Fraction, m: int) -> List[Tuple[int, int]]:
    """start + (i/m) * (end - start) for i = 0..m, each in lowest terms."""
    if start == end:
        return [(start.numerator, start.denominator)] * (m + 1)
    den = lcm(start.denominator, end.denominator)
    s = start.numerator * (den // start.denominator)
    e = end.numerator * (den // end.denominator)
    den *= m
    out = []
    for i in range(m + 1):
        num = s * (m - i) + e * i
        g = gcd(num, den)
        out.append((num // g, den // g))
    return out


def grid_cuts(shape: Shape, n: int) -> Iterator[Optional[IntBound]]:
    """cut(shape, i/(n-1)) for i = 0..n-1 as bound_ints, level by level.

    Trapezoid and bounded kernel/support ends are linear in the level, so
    each is one int numerator over the level's denominator, reduced by one
    gcd; RIM cuts read _rim_cut_lo.  An unbounded kernel/support pair goes
    through cut, which raises between its ends at the level it is read.  A
    logical premise's None shape cuts to None.
    """
    if shape is None or isinstance(shape, Interval):
        return repeat(None if shape is None else bound_ints(shape), n)
    if isinstance(shape, RimQuantifier):
        los = (_rim_cut_lo(shape.exponent, Fraction(i, n - 1)) for i in range(n))
        return ((lo.numerator, lo.denominator, 1, 1) for lo in los)
    if isinstance(shape, KernelSupportPair):
        support, kernel = shape.support, shape.kernel
        if support.hi is None or kernel.hi is None:
            return (bound_ints(cut(shape, Fraction(i, n - 1))) for i in range(n))
        shape = Trapezoid(support.lo, kernel.lo, kernel.hi, support.hi)
    a, b, c, d = shape.as_tuple()
    ends = zip(_linear_ends(a, b, n - 1), _linear_ends(d, c, n - 1))
    return (lo + hi for lo, hi in ends)


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
