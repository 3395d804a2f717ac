"""Brute-force ground truth for small universes.

Enumerates every integer population (one nonnegative count per atom) up to a
total-size cap, keeps the populations on which all premises hold, and reports
the exact attainable range of the conclusion measure.  This is the semantic
reference the optimizer is validated against: the LP interval must contain
every value the oracle can attain.

Premise satisfaction is decided by the quantifier definitions evaluated on
exact integers (a bound is read as the numerators it admits per denominator,
so no rationals are formed row-wise), and populations on which any ratio
statement's denominator is empty are excluded, mirroring the engine's
structural nonemptiness constraints; both sides then quantify over the same
populations.  No float is formed either: a ratio conclusion's extrema come
from two int64 tables indexed by the denominator, holding the least and the
greatest numerator seen over each, compared once after the last block by
cross-multiplication.

Enumeration is vectorized with numpy and chunked so peak memory stays
bounded; a combinatorial guard refuses instance sizes whose composition count
exceeds ten million.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .quantifiers import (
    ABSOLUTE,
    COMPARATIVE_ABSOLUTE,
    COMPARATIVE_PROPORTIONAL,
    EXCEPTION,
    LOGICAL_ALL,
    LOGICAL_NONE,
    LOGICAL_NOT_ALL,
    LOGICAL_SOME,
    PROPORTIONAL,
    RATIO_FAMILIES,
    SIMILARITY,
    IntBound,
    Interval,
    bound_ints,
)
from .statements import Syllogism
from .terms import SizeGuardError, atoms_of

__all__ = ["COMPOSITION_GUARD", "enumerate_range", "population_totals"]

# refuse to enumerate more compositions than this
COMPOSITION_GUARD = 10**7
# a refusal names a count up to this exactly, and a larger one as "more than 10^20"
_SHORT = 10**20
# split any single block beyond this many rows
_CHUNK_ROWS = 1 << 22


def _sum_over(counts: np.ndarray, atoms) -> np.ndarray:
    idx = sorted(atoms)
    if not idx:
        return np.zeros(len(counts), dtype=np.int64)
    return counts[:, idx].sum(axis=1)


def _band_mask(num, den, bound: IntBound, total: int) -> np.ndarray:
    """lo <= num/den <= hi, for the bound (lo_num, lo_den, hi_num, hi_den) of
    quantifiers.bound_ints, on int64 rows with |num| and den at most total;
    den None reads num/1.

    Over each denominator d the bound admits the numerators ceil(lo*d) to
    floor(hi*d), computed on Python ints and clamped to [-total-1, total+1],
    so the comparisons are exact however large the bound's terms are.
    """
    dens, at = ((1,), 0) if den is None else (range(total + 1), den)
    lo_num, lo_den, hi_num, hi_den = bound

    def ends(p: int, q: int, sign: int) -> np.ndarray:
        # sign * floor(sign*p*d/q): the floor (sign 1) or ceiling (-1) of p*d/q
        p, cap = sign * p, total + 1
        return np.array([sign * min(max(p * d // q, -cap), cap) for d in dens], dtype=np.int64)

    mask = num >= ends(lo_num, lo_den, -1)[at]
    if hi_num is not None:
        mask &= num <= ends(hi_num, hi_den, 1)[at]
    return mask


def _term_sets(stmt, properties: Sequence[str]) -> Tuple[frozenset, frozenset]:
    return atoms_of(stmt.restriction, properties), atoms_of(stmt.scope, properties)


def _measure(family: str, a: frozenset, b: frozenset) -> tuple:
    """A numeric family's measure over term sets a and b.

    Returns (counted atoms, subtracted atoms, denominator atoms); the last
    two are None where the measure has no such part.
    """
    if family == ABSOLUTE:
        return a & b, None, None
    if family == EXCEPTION:
        return a - b, None, None
    if family == COMPARATIVE_ABSOLUTE:
        return a, b, None
    if family == PROPORTIONAL:
        return a & b, None, a
    if family == COMPARATIVE_PROPORTIONAL:
        return a, None, b
    if family == SIMILARITY:
        return a & b, None, a | b
    raise ValueError("unknown family %r" % family)


def statement_predicate(
    stmt,
    bound: Optional[IntBound],
    properties: Sequence[str],
    counts: np.ndarray,
    term_sets: Optional[Tuple[frozenset, frozenset]] = None,
    total: Optional[int] = None,
) -> np.ndarray:
    """Truth of one quantified statement on each row of a population matrix.

    Implements the quantifier definitions directly (not the compiled rows):
    an empty-restriction proportional statement and an empty-union similarity
    statement are vacuously true, and a comparative-proportional statement
    with an empty second term holds only if the first term is empty too
    (cross-multiplied reading).  ``counts`` is an (n, K) integer matrix;
    ``term_sets`` are the statement's (restriction, scope) atoms when the
    caller has them already, and ``total`` bounds every row's sum (default:
    the largest row sum).
    """
    a, b = term_sets or _term_sets(stmt, properties)
    family = stmt.family

    if family == LOGICAL_ALL:
        return _sum_over(counts, a - b) == 0
    if family == LOGICAL_NONE:
        return _sum_over(counts, a & b) == 0
    if family == LOGICAL_SOME:
        return _sum_over(counts, a & b) > 0
    if family == LOGICAL_NOT_ALL:
        return _sum_over(counts, a - b) > 0

    if bound is None:
        raise ValueError("family %s needs a crisp bound" % family)
    counted, subtracted, den = _measure(family, a, b)
    num = _sum_over(counts, counted)
    if subtracted is not None:
        num = num - _sum_over(counts, subtracted)
    if total is None:
        total = int(counts.sum(axis=1).max(initial=0))
    return _band_mask(num, None if den is None else _sum_over(counts, den), bound, total)


def _compositions(
    total: int, k: int, cache: Dict[Tuple[int, int], np.ndarray], store: bool = True
) -> np.ndarray:
    """All ways to write ``total`` as an ordered sum of k nonnegative ints.

    Sub-blocks are memoized (they recur across totals and leading counts);
    top-level blocks are used once each and are not retained.
    """
    key = (total, k)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if k == 1:
        block = np.array([[total]], dtype=np.int64)
    elif k == 2:
        first = np.arange(total + 1, dtype=np.int64)
        block = np.stack((first, total - first), axis=1)
    else:
        parts = []
        for first in range(total + 1):
            sub = _compositions(total - first, k - 1, cache)
            col = np.full((len(sub), 1), first, dtype=np.int64)
            parts.append(np.hstack((col, sub)))
        block = np.vstack(parts)
    if store:
        cache[key] = block
    return block


def _blocks(total: int, k: int, cache: Dict[Tuple[int, int], np.ndarray]):
    """Yield composition blocks of bounded size (split on the first count)."""
    if k == 1 or math.comb(total + k - 1, k - 1) <= _CHUNK_ROWS:
        yield _compositions(total, k, cache, store=False)
        return
    for first in range(total + 1):
        for sub in _blocks(total - first, k - 1, cache):
            col = np.full((len(sub), 1), first, dtype=np.int64)
            yield np.hstack((col, sub))


def _least(num: np.ndarray, den: np.ndarray) -> Fraction:
    """The least num/den over nonempty int64 arrays with den > 0 and
    |num * den| < 2^63, in about log2(len) rounds: each keeps the lesser of
    the first and the last half's pairs by cross-multiplying (at an odd
    length the two halves share the middle pair)."""
    while len(num) > 1:
        half = (len(num) + 1) // 2
        num_a, num_b, den_a, den_b = num[:half], num[-half:], den[:half], den[-half:]
        first = num_a * den_b <= num_b * den_a
        num, den = np.where(first, num_a, num_b), np.where(first, den_a, den_b)
    return Fraction(int(num[0]), int(den[0]))


class _Extrema:
    """Exact min and max of num/den over the rows of every block, for
    0 <= num <= size and 1 <= den <= size.

    Two int64 tables indexed by the denominator d in 0..size hold the least
    and the greatest numerator seen over d (size + 1 and -1 where none was);
    a block updates them in place.  The extrema are read once, from the
    denominators seen, by cross-multiplying ints below size^2 < 2^63.
    """

    def __init__(self, size: int) -> None:
        self.least = np.full(size + 1, size + 1, dtype=np.int64)
        self.most = np.full(size + 1, -1, dtype=np.int64)

    def update(self, num: np.ndarray, den: np.ndarray) -> None:
        np.minimum.at(self.least, den, num)
        np.maximum.at(self.most, den, num)

    def interval(self) -> Optional[Interval]:
        """[min, max] of num/den over every row, None when there was none."""
        dens = np.flatnonzero(self.most >= 0)
        if len(dens) == 0:
            return None
        return Interval(_least(self.least[dens], dens), -_least(-self.most[dens], dens))


def population_totals(syl: Syllogism, universe_cap: int) -> Optional[range]:
    """The population sizes enumerate_range tries, within the size guard.

    None when the declared universe size is fractional, since no integer
    population has that total.  Raises SizeGuardError when the populations
    of those sizes number more than COMPOSITION_GUARD.  The answer depends
    only on (syl.s, syl.universe_size, universe_cap), so a caller can check
    it before any other work.
    """
    size, k = syl.universe_size, 1 << syl.s
    if size is not None and size.denominator != 1:
        return None  # no integer population has a fractional total
    first, last = (0, universe_cap) if size is None else (int(size),) * 2
    # a total t has C(t + k - 1, k - 1) compositions into k parts, so the last
    # one alone has at least C(last + k - 1, j) for each j <= min(last, k - 1).
    # At j = 64 that is past _SHORT, so below it min(last, k - 1) < 64 and the
    # exact count is quick to build; a vast cap or S never builds it
    count = None
    if math.comb(last + k - 1, min(last, k - 1, 64)) <= _SHORT:
        # over t = first..last the sum telescopes to this
        count = math.comb(last + k, k) - math.comb(first + k - 1, k)
    if count is None or count > COMPOSITION_GUARD:
        raise SizeGuardError(
            "enumerating %s populations exceeds the %d guard; lower the cap"
            % ("%d" % count if count and count <= _SHORT else "more than 10^20", COMPOSITION_GUARD)
        )
    return range(first, last + 1)


def enumerate_range(
    syl: Syllogism,
    universe_cap: int,
    premise_bounds: Optional[Sequence[Optional[IntBound]]] = None,
) -> Optional[Interval]:
    """Exact range of the conclusion measure over small integer populations.

    Every population with total size up to ``universe_cap`` (exactly the
    declared universe size when the syllogism fixes one) is tested against
    all premises; the conclusion measure is evaluated on the survivors.
    Returns None when no population qualifies.  Premises must carry crisp
    interval bounds, or ``premise_bounds`` must supply them as the ints of
    quantifiers.bound_ints (one entry per premise, None for logical
    premises).  A negative cap raises ValueError.
    """
    if universe_cap < 0:
        raise ValueError("cap must be a nonnegative integer, got %r" % (universe_cap,))
    k = 1 << syl.s
    if premise_bounds is None:
        shapes = [premise.quantifier.shape for premise in syl.premises]
        for i, shape in enumerate(shapes):
            if not isinstance(shape, (Interval, type(None))):
                raise ValueError(
                    "premise %d carries a fuzzy quantifier; cut it to an "
                    "interval first" % (i + 1)
                )
        premise_bounds = [None if shape is None else bound_ints(shape) for shape in shapes]
    elif len(premise_bounds) != len(syl.premises):
        raise ValueError("need exactly one bound per premise")

    totals = population_totals(syl, universe_cap)
    if totals is None:
        return None

    # term sets once per call, not per block; denominators that must be
    # nonempty, conclusion included
    statements = [*syl.premises, syl.conclusion]
    term_sets = [_term_sets(stmt, syl.properties) for stmt in statements]
    positivity = [
        _measure(stmt.family, *sets)[2]
        for stmt, sets in zip(statements, term_sets)
        if stmt.family in RATIO_FAMILIES
    ]
    num_atoms, signed, den_atoms = _measure(syl.conclusion.family, *term_sets[-1])

    int_lo: Optional[int] = None
    int_hi: Optional[int] = None
    extrema = None if den_atoms is None else _Extrema(totals[-1])
    cache: Dict[Tuple[int, int], np.ndarray] = {}

    for total in totals:
        for counts in _blocks(total, k, cache):
            mask = np.ones(len(counts), dtype=bool)
            for stmt, bound, sets in zip(syl.premises, premise_bounds, term_sets):
                mask &= statement_predicate(stmt, bound, syl.properties, counts, sets, total)
                if not mask.any():
                    break
            if not mask.any():
                continue
            for atoms in positivity:
                mask &= _sum_over(counts, atoms) > 0
            if not mask.any():
                continue
            kept = counts[mask]
            num = _sum_over(kept, num_atoms)
            if signed is not None:
                num = num - _sum_over(kept, signed)
            if den_atoms is None:
                lo_block, hi_block = int(num.min()), int(num.max())
                int_lo = lo_block if int_lo is None else min(int_lo, lo_block)
                int_hi = hi_block if int_hi is None else max(int_hi, hi_block)
            else:
                extrema.update(num, _sum_over(kept, den_atoms))

    if den_atoms is None:
        if int_lo is None:
            return None
        return Interval(Fraction(int_lo), Fraction(int_hi))
    return extrema.interval()
