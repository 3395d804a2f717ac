"""Syllogistic inference at crisp, kernel/support, and alpha-cut precision.

The engine answers one question: given quantified premises, how large and how
small can the conclusion's measure be over populations satisfying all of
them?  Every mode runs the same levelwise path: each membership level cuts
every premise quantifier to a crisp interval, the crisp engine runs, and the
stack of resulting intervals is the fuzzy answer, reported as a trapezoid
only when one cuts every level exactly (else a warning names the largest
gap).  The mode only picks the level grid: crisp and kersup read levels 0
and 1 (support and kernel), alpha an evenly spaced grid.  A level whose
premise bounds equal an earlier level's reuses that level's outcome, so
crisp premises cost one solve.  The rest of the LP is the same at every
level: it is built once per syllogism (compiler.build_skeleton), and a
level only writes its premise bounds' rows.

Premise cuts shrink as the level rises, so the feasible region shrinks too;
consequently conclusion cuts are nested and feasibility is monotone.  A
premise set can be satisfiable at low levels yet contradictory near the top;
max_feasible_level reads where it gives out, and no trapezoid is fitted for
such non-normalized outcomes.  A result is one (level, reading, outcome) row
per grid level, which every view of it reads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from . import optimizer
from ._value import value
from .compiler import compile_syllogism
from .quantifiers import (
    COUNT_FAMILIES,
    RATIO_FAMILIES,
    IntBound,
    Interval,
    KernelSupportPair,
    RimQuantifier,
    Trapezoid,
    _fmt,
    cut_ints,
    fit_trapezoid,
)
from .statements import Syllogism

__all__ = [
    "MAX_LEVELS",
    "MODES",
    "InferenceConfig",
    "InferenceResult",
    "InfeasiblePremisesError",
    "infer",
    "readings",
]

MODES = ("auto", "crisp", "kersup", "alpha")
# largest alpha grid, which bounds what one infer call can solve
MAX_LEVELS = 1001

# each premise's cut at one level (None for a logical premise)
Reading = Tuple[Optional[IntBound], ...]


class InfeasiblePremisesError(RuntimeError):
    """No population satisfies the premises (even at membership level 0)."""


@value
class InferenceConfig:
    """levels is the size of the alpha grid (11 means 0, 0.1, ..., 1)."""

    levels: int = 11

    def __init__(self, levels: int = 11) -> None:
        self.__dict__["levels"] = levels
        if not isinstance(levels, int) or not 2 <= levels <= MAX_LEVELS:
            raise ValueError("levels must be an integer >= 2 and <= %d" % MAX_LEVELS)


Row = Tuple[Fraction, Reading, optimizer.SolveOutcome]


@value
class InferenceResult:
    """Conclusion bounds at the precision the premises support.

    rows    one (level, reading, outcome) row per grid level, in order, as
            readings yields them; a reading reused at later levels carries
            the same outcome object in each of its rows, so summing
            ``pivots`` over the rows counts it again (66 for the 33 pivots
            of course_passrates_crisp's two levels);
    fitted  the trapezoid cutting every row's bounds exactly, or None (crisp
            mode, a row unbounded or infeasible, or no such trapezoid);
    epsilon_kind, epsilon  the strictness margin the solves used (see
            optimizer.EPS_COUNT and optimizer.EPS_PROP).
    """

    mode: str
    rows: Tuple[Row, ...]
    epsilon_kind: str
    epsilon: Fraction
    fitted: Optional[Trapezoid] = None
    warnings: Tuple[str, ...] = ()

    def __init__(self, mode, rows, epsilon_kind, epsilon, fitted=None, warnings=()) -> None:
        self.__dict__.update(
            mode=mode, rows=rows, epsilon_kind=epsilon_kind, epsilon=epsilon,
            fitted=fitted, warnings=warnings,
        )

    @property
    def cuts(self) -> Tuple[Tuple[Fraction, Optional[Interval]], ...]:
        """(level, interval) per row, with None where no closed interval
        exists (premises infeasible there, or the measure is unbounded
        below)."""
        return tuple(
            (level, None if outcome.lo is None else Interval(outcome.lo, outcome.hi))
            for level, _, outcome in self.rows
        )

    @property
    def max_feasible_level(self) -> Fraction:
        """Highest grid level at which the premises are jointly satisfiable."""
        return max(
            level for level, _, outcome in self.rows if outcome.status != optimizer.INFEASIBLE
        )


def readings(syl: Syllogism, n: int) -> Iterator[Row]:
    """(level, bounds, outcome) at each level i/(n-1) of an n-level grid.

    bounds cuts every premise at the level as quantifiers.cut_ints does and
    keys the reuse of a solve: a level whose bounds equal an earlier level's
    yields that level's outcome object and solves nothing.  Each level is
    solved only when asked for, so a caller can stop before the next one.
    """
    shapes = [p.quantifier.shape for p in syl.premises]
    solved: Dict[Reading, optimizer.SolveOutcome] = {}
    for i in range(n):
        bounds = tuple([None if s is None else cut_ints(s, i, n - 1) for s in shapes])
        outcome = solved.get(bounds)
        if outcome is None:
            outcome = solved[bounds] = optimizer.solve(compile_syllogism(syl, bounds))
        yield Fraction(i, n - 1), bounds, outcome


def _auto_mode(syl: Syllogism) -> str:
    shapes = [p.quantifier.shape for p in syl.premises]
    if any(isinstance(s, (Trapezoid, RimQuantifier)) for s in shapes):
        return "alpha"
    if any(isinstance(s, KernelSupportPair) for s in shapes):
        return "kersup"
    return "crisp"


def infer(
    syl: Syllogism,
    mode: str = "auto",
    config: Optional[InferenceConfig] = None,
) -> InferenceResult:
    """Run inference, picking the mode from the premise shapes by default."""
    if mode not in MODES:
        raise ValueError("mode must be one of %s" % ", ".join(MODES))
    if mode == "auto":
        mode = _auto_mode(syl)
    config = config or InferenceConfig()
    if mode == "crisp":
        for i, premise in enumerate(syl.premises):
            if not isinstance(premise.quantifier.shape, (Interval, type(None))):
                raise ValueError(
                    "premise %d carries a fuzzy quantifier; crisp inference needs "
                    "interval bounds (use alpha or kersup mode)" % (i + 1)
                )
    # crisp and kersup read levels 0 and 1 only
    n = config.levels if mode == "alpha" else 2

    rows: List[Row] = []
    # readings is lazy: premises infeasible at level 0 solve nothing more
    for level, reading, outcome in readings(syl, n):
        if outcome.status != optimizer.INFEASIBLE:
            top = level
        elif level == 0:
            raise InfeasiblePremisesError(
                "no population satisfies the premises"
                + ("" if mode == "crisp" else " even at support level")
            )
        rows.append((level, reading, outcome))

    families = {p.family for p in syl.premises} | {syl.conclusion.family}
    if families & RATIO_FAMILIES:
        kind, epsilon = "proportion", optimizer.EPS_PROP
    else:
        kind, epsilon = "count", optimizer.EPS_COUNT
    warnings = []
    if families & COUNT_FAMILIES and families & RATIO_FAMILIES:
        warnings.append(
            "count and proportion quantifiers are mixed; all bounds are read "
            "at the declared universe size"
        )
    if n > 2:  # levels 0 and 1 cut every shape exactly
        warnings += [
            "premise %d's rim(%s) cuts between levels 0 and 1 are rounded down "
            "to a multiple of 1e-09, which loosens the premise" % (i, _fmt(shape.exponent))
            for i, shape in enumerate((p.quantifier.shape for p in syl.premises), 1)
            if isinstance(shape, RimQuantifier) and shape.rounds
        ]

    fitted = None
    if top < 1:
        warnings.append(
            "premises become contradictory above level %s; no trapezoid "
            "is fitted" % _fmt(top)
        )
    elif mode != "crisp" and all(o.lo is not None and o.hi is not None for _, _, o in rows):
        fitted, gap, at = fit_trapezoid(rows)
        if gap:
            warnings.append(
                "no trapezoid matches every cut: tz(%s) is off by %s at level %s"
                % (", ".join(map(_fmt, fitted.as_tuple())), _fmt(gap), _fmt(at))
            )
            fitted = None
    return InferenceResult(mode, tuple(rows), kind, epsilon, fitted, tuple(warnings))
