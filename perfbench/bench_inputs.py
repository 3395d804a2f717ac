"""Workload inputs for the sylq benchmark and their exact reference answers.

Every reference here is derived from the documents' meaning, not by running
the engine: the bundled documents have closed forms (worked out in the
comments next to each), the scale-sweep chains have Frechet bounds, and the
verify workload expects every enumeration to agree or the population guard to
refuse.  Answers are compared Fraction for Fraction, and the rendered JSON is
compared against the same values rendered to 12 significant digits.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "syllogisms"

# Seed that no figure was tuned on while the benchmark was built; a claimed
# gain must also hold when the benchmark runs with it.
HELD_OUT_SEED = 4242

# (lo, hi) with hi None for an unbounded side; a None cut is an infeasible level
Cut = Optional[Tuple[Fraction, Optional[Fraction]]]
# marks a fitted trapezoid the reference does not pin
UNCHECKED = "unchecked"


@dataclass(frozen=True)
class Answer:
    """Exact expected result of one `sylq FILE` run."""

    mode: str
    cuts: Tuple[Tuple[Fraction, Cut], ...]
    max_feasible_level: Fraction
    fitted: object = None  # tuple of 4 Fractions, None, or UNCHECKED


@dataclass(frozen=True)
class Verdict:
    """Expected outcome of one `sylq verify` run.

    exit_code 0 means every reading printed OK (one line per reading);
    exit_code 3 means the population guard refused the document.
    """

    exit_code: int
    readings: int = 0


@dataclass(frozen=True)
class Case:
    """One distinct input of a workload: the argv for sylq.cli.main."""

    name: str
    s: int  # number of properties; the LP has 2**s atom columns
    argv: Tuple[str, ...]
    expect: object  # Answer or Verdict
    stdin: Optional[str] = None  # document text when argv names "-"
    text: Optional[str] = None  # document text for the exact check
    clock: str = "fraction"  # reference kernel its timings are scaled by


def _grid(n: int) -> List[Fraction]:
    return [Fraction(i, n - 1) for i in range(n)]


def _crisp(lo, hi) -> Answer:
    cut = (Fraction(lo), Fraction(hi))
    return Answer("crisp", ((Fraction(0), cut), (Fraction(1), cut)), Fraction(1))


def _alpha(n: int, cut_at, fitted) -> Answer:
    cuts = tuple((lam, cut_at(lam)) for lam in _grid(n))
    top = max(lam for lam, cut in cuts if cut is not None)
    return Answer("alpha", cuts, top, fitted)


def _kersup(support, kernel) -> Answer:
    sup = tuple(Fraction(v) for v in support)
    ker = tuple(Fraction(v) for v in kernel)
    return Answer(
        "kersup",
        ((Fraction(0), sup), (Fraction(1), ker)),
        Fraction(1),
        (sup[0], ker[0], ker[1], sup[1]),
    )


F = Fraction


def _nonnormalized(lam: Fraction) -> Cut:
    # the fifth premise caps the all-pass share at 1 - (0.4 + 0.2 lam); the
    # other four floor it at 0.2 + 0.22 lam; they cross above lam = 20/21
    if lam > F(19, 20):
        return None
    return (F(1, 5) + F(11, 50) * lam, F(3, 5) - lam / 5)


# name -> (S, reference).  Course pass rates: the Frechet lower bound of four
# "at least" shares summing to 3.2 (support) is 0.2, and each level raises the
# sum by 0.22.  Wine boxes: 15 +- 2 exceptions minus 4 +- 1 Watson boxes.
# Wine exports: the product of two rim(1) cuts [lam, 1] is [lam**2, 1].
BUNDLED: Dict[str, Tuple[int, Answer]] = {
    "pets_at_home": (3, _crisp(3, 3)),
    "course_passrates_crisp": (5, _crisp(F(1, 5), 1)),
    "course_passrates_fuzzy": (
        5,
        _alpha(
            11,
            lambda lam: (F(1, 5) + F(11, 50) * lam, F(1)),
            (F(1, 5), F(21, 50), F(1), F(1)),
        ),
    ),
    "course_passrates_nonnormalized": (5, _alpha(21, _nonnormalized, None)),
    "hats_and_ties": (3, _kersup((F(1, 2), 1), (F(7, 11), 1))),
    "warehouse_sales_mix": (3, _kersup((F(1, 20), F(1, 2)), (F(3, 20), F(9, 20)))),
    "wine_boxes_exception": (
        3,
        _alpha(11, lambda lam: (8 + 2 * lam, 14 - 2 * lam), (F(8), F(10), F(12), F(14))),
    ),
    "wine_exports_rim": (3, _alpha(11, lambda lam: (lam * lam, F(1)), UNCHECKED)),
}

# Pivots per document at the commit that defined this benchmark (the sum of
# LpSolution.pivots over every simplex.minimize call one `sylq FILE` makes).
# The traced run fails when a count differs: a change that alters pivoting
# must say so by updating this table.
BUNDLED_PIVOTS = {
    "pets_at_home": 26,
    "course_passrates_crisp": 33,
    "course_passrates_fuzzy": 363,
    "course_passrates_nonnormalized": 637,
    "wine_exports_rim": 168,
}

VERIFY_CAP = 20
# readings one `sylq verify` audits: crisp documents have one, fuzzy ones
# are audited at support and kernel
_VERIFY_READINGS = {
    "pets_at_home": 1,
    "hats_and_ties": 2,
    "warehouse_sales_mix": 2,
    "wine_boxes_exception": 2,
    "wine_exports_rim": 2,
}
_VERIFY_REFUSED = (
    "course_passrates_crisp",
    "course_passrates_fuzzy",
    "course_passrates_nonnormalized",
)

SCALE_S = range(3, 9)
CHAINS_PER_S = 3
CHAIN_SEED = 1


def _doc(name: str) -> Path:
    return DOCS / (name + ".syl")


def bundled_cases(seed: int) -> List[Case]:
    """The 8 bundled documents, each run in the mode its options name."""
    del seed  # the documents are fixed; the seed only orders the passes
    return [
        Case(
            name,
            s,
            (str(_doc(name)), "--format", "json"),
            answer,
            text=_doc(name).read_text(encoding="utf-8"),
        )
        for name, (s, answer) in BUNDLED.items()
    ]


def verify_cases(seed: int) -> List[Case]:
    """`sylq verify --cap 20` on the S=3 documents and the refused S=5 ones.

    Enumeration dominates the first; the refusals spend their time in the
    simplex solve that comes before the population guard.
    """
    del seed
    cases = [
        Case(
            name,
            3,
            ("verify", str(_doc(name)), "--cap", str(VERIFY_CAP)),
            Verdict(0, n),
            clock="numpy",
        )
        for name, n in _VERIFY_READINGS.items()
    ]
    cases += [
        Case(name, 5, ("verify", str(_doc(name)), "--cap", str(VERIFY_CAP)), Verdict(3))
        for name in _VERIFY_REFUSED
    ]
    return cases


def chain_text(bounds: Sequence[Tuple[Fraction, Fraction]]) -> str:
    """Document `prop[a_i, b_i] p0 -> p_i` for i = 1..S-1, asking p0 -> all."""
    s = len(bounds) + 1
    names = ["p%d" % i for i in range(s)]
    lines = ["terms: " + ", ".join(names)]
    for i, (a, b) in enumerate(bounds, start=1):
        lines.append("premise: prop[%s, %s] p0 -> p%d" % (a, b, i))
    lines.append("conclude: prop? p0 -> " + " & ".join(names[1:]))
    lines.append("options: mode=crisp")
    return "\n".join(lines) + "\n"


def frechet(bounds: Sequence[Tuple[Fraction, Fraction]]) -> Tuple[Fraction, Fraction]:
    """Tightest share of p0 in every p_i: [max(0, sum a_i - (S-2)), min b_i]."""
    s = len(bounds) + 1
    lo = max(Fraction(0), sum(a for a, _ in bounds) - (s - 2))
    return lo, min(b for _, b in bounds)


def chain_bounds(s: int, positive: bool, rng: random.Random) -> List[Tuple[Fraction, Fraction]]:
    """Bounds on a 1/100 grid whose Frechet lower end is > 0 iff positive.

    The lower shares straddle (S-2)/(S-1), the mean at which the lower end
    turns positive, and each upper share lies 0.02 to 0.30 above its lower
    one (at most 1); draws are repeated until the sign matches.
    """
    centre = round(100 * Fraction(s - 2, s - 1))
    while True:
        lows = [min(99, max(1, centre + rng.randint(-6, 6))) for _ in range(s - 1)]
        bounds = [
            (Fraction(a, 100), Fraction(min(100, a + rng.randint(2, 30)), 100))
            for a in lows
        ]
        if (frechet(bounds)[0] > 0) == positive:
            return bounds


def scale_cases(seed: int) -> List[Case]:
    """CHAINS_PER_S chains for each S in 3..8, half of them with lo > 0.

    The chains come from CHAIN_SEED, not from the workload seed, which only
    orders the passes: the cost of one S=8 chain ranges over a factor of two
    or more between draws (1.4 to 3.9 s over 22 draws), so chains drawn per
    seed made the figures follow the seed more than the code.
    """
    del seed
    rng = random.Random(CHAIN_SEED)
    cases = []
    for s in SCALE_S:
        for j in range(CHAINS_PER_S):
            bounds = chain_bounds(s, positive=(s + j) % 2 == 0, rng=rng)
            text = chain_text(bounds)
            cases.append(
                Case(
                    "chain_s%d_%d" % (s, j),
                    s,
                    ("-", "--format", "json"),
                    _crisp(*frechet(bounds)),
                    stdin=text,
                    text=text,
                )
            )
    return cases


WORKLOADS = {
    "bundled": bundled_cases,
    "scale_sweep": scale_cases,
    "verify_oracle": verify_cases,
}


# ---------------------------------------------------------------- checking


def _rendered(value) -> object:
    """A Fraction as the CLI's JSON shows it: int if integral, else 12 digits."""
    if value is None:
        return None
    if value.denominator == 1:
        return int(value)
    return float("%.12g" % float(value))


def check_exact(result, answer: Answer) -> List[str]:
    """Differences between an InferenceResult and its reference, exactly."""
    problems = []
    if result.mode != answer.mode:
        problems.append("mode %s, expected %s" % (result.mode, answer.mode))
    got = [
        (lam, None if iv is None else (iv.lo, iv.hi)) for lam, iv in (result.cuts or [])
    ]
    if got != list(answer.cuts):
        problems.append("cuts %s, expected %s" % (got, list(answer.cuts)))
    if result.max_feasible_level != answer.max_feasible_level:
        problems.append(
            "max feasible level %s, expected %s"
            % (result.max_feasible_level, answer.max_feasible_level)
        )
    if answer.fitted is not UNCHECKED:
        fitted = None if result.fitted is None else tuple(result.fitted.as_tuple())
        if fitted != answer.fitted:
            problems.append("fitted %s, expected %s" % (fitted, answer.fitted))
    return problems


def _rendered_pair(cut: Cut) -> Optional[dict]:
    return None if cut is None else {"lo": _rendered(cut[0]), "hi": _rendered(cut[1])}


def check_json(payload: dict, answer: Answer) -> List[str]:
    """Differences between `sylq --format json` output and the reference."""
    want_levels = [
        {
            "level": _rendered(lam),
            "lo": None if cut is None else _rendered(cut[0]),
            "hi": None if cut is None else _rendered(cut[1]),
            "feasible": cut is not None,
        }
        for lam, cut in answer.cuts
    ]
    want = {
        "mode": answer.mode,
        "levels": want_levels,
        "max_feasible_level": _rendered(answer.max_feasible_level),
    }
    if answer.mode == "crisp":
        want["lo"], want["hi"] = want_levels[0]["lo"], want_levels[0]["hi"]
    if answer.mode == "kersup":
        want["support"] = _rendered_pair(answer.cuts[0][1])
        want["kernel"] = _rendered_pair(answer.cuts[1][1])
    if answer.fitted is not UNCHECKED:
        want["fitted"] = (
            None if answer.fitted is None else [_rendered(v) for v in answer.fitted]
        )
    return [
        "%s %r, expected %r" % (key, payload.get(key), value)
        for key, value in want.items()
        if payload.get(key) != value
    ]


def check_output(case: Case, code: int, stdout: str, stderr: str) -> List[str]:
    """Differences between one CLI run's exit code and output and the reference."""
    expect = case.expect
    if isinstance(expect, Verdict):
        problems = []
        if code != expect.exit_code:
            problems.append("exit %s, expected %s" % (code, expect.exit_code))
        lines = stderr.splitlines()
        if expect.exit_code == 0:
            if len(lines) != expect.readings or not all(l.endswith(": OK") for l in lines):
                problems.append("verify lines %r" % lines)
        elif not (len(lines) == 1 and "guard" in lines[0]):
            problems.append("refusal lines %r" % lines)
        return problems
    if code != 0:
        return ["exit %s: %s" % (code, stderr.strip())]
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return ["unreadable JSON: %s" % exc]
    return check_json(payload, expect)
