"""Shared fixtures: bundled syllogism documents, random generators, and the
acceptance summary printed after a full run."""

import random
import re
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from sylq import Interval, Syllogism, Trapezoid, parse
from sylq.quantifiers import (
    ABSOLUTE,
    COMPARATIVE_ABSOLUTE,
    COMPARATIVE_PROPORTIONAL,
    EXCEPTION,
    LOGICAL_ALL,
    LOGICAL_NONE,
    LOGICAL_NOT_ALL,
    LOGICAL_SOME,
    PROPORTIONAL,
    SIMILARITY,
    QuantifierSpec,
    RimQuantifier,
)
from sylq.statements import Conclusion, Statement
from sylq.terms import UNIVERSE, And, Not, Or, Prop

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "syllogisms"

LOGICAL = (LOGICAL_ALL, LOGICAL_NONE, LOGICAL_SOME, LOGICAL_NOT_ALL)
COUNT = (ABSOLUTE, EXCEPTION, COMPARATIVE_ABSOLUTE)
RATIO = (PROPORTIONAL, COMPARATIVE_PROPORTIONAL, SIMILARITY)


def load_fixture(name):
    return parse((FIXTURE_DIR / name).read_text())


def int_rows(rows):
    """Rational rows (a, rel, b) as the solver's (numerators, denominator, rel)."""
    out = []
    for coeffs, rel, rhs in rows:
        values = [Fraction(v) for v in (*coeffs, rhs)]
        den = lcm(*(v.denominator for v in values))
        out.append(([v.numerator * (den // v.denominator) for v in values], den, rel))
    return out


@pytest.fixture(scope="session")
def fixture_doc():
    return load_fixture


# ---------------------------------------------------------------------------
# random syllogisms for the property suites


def random_term(rng, names, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.55:
        if roll < 0.05:
            return UNIVERSE
        return Prop(rng.choice(names))
    if roll < 0.70:
        return Not(random_term(rng, names, depth - 1))
    left = random_term(rng, names, depth - 1)
    right = random_term(rng, names, depth - 1)
    return And(left, right) if roll < 0.85 else Or(left, right)


def random_count_interval(rng, family):
    lo = rng.randint(-3, 3) if family == COMPARATIVE_ABSOLUTE else rng.randint(0, 4)
    if rng.random() < 0.15:
        return Interval(lo, None)
    return Interval(lo, lo + rng.randint(0, 4))


def random_ratio_interval(rng, family):
    if family == COMPARATIVE_PROPORTIONAL:
        lo = Fraction(rng.randint(0, 6), 4)
        if rng.random() < 0.15:
            return Interval(lo, None)
        return Interval(lo, lo + Fraction(rng.randint(0, 4), 4))
    lo = Fraction(rng.randint(0, 3), 4)
    hi = min(Fraction(1), lo + Fraction(rng.randint(1, 4), 4))
    return Interval(lo, hi)


def random_statement(rng, names, families):
    family = rng.choice(families)
    if family in LOGICAL:
        spec = QuantifierSpec(family)
    elif family in COUNT:
        spec = QuantifierSpec(family, random_count_interval(rng, family))
    else:
        spec = QuantifierSpec(family, random_ratio_interval(rng, family))
    return Statement(spec, random_term(rng, names), random_term(rng, names))


def random_crisp_syllogism(rng, ratio_only=False):
    """A random syllogism with crisp premises, safe against unit mixing.

    Count-flavored and ratio-flavored systems never mix units; mixed ones
    declare a universe size so the mix is well defined.
    """
    names = ("p", "q", "r")[: rng.randint(2, 3)]
    if ratio_only:
        premise_families = LOGICAL + RATIO
        conclusion_families = RATIO
        universe = Fraction(rng.choice((4, 6, 9)))
    else:
        flavor = rng.random()
        if flavor < 0.4:
            premise_families = LOGICAL + COUNT
            conclusion_families = COUNT
            universe = Fraction(rng.randint(3, 8)) if rng.random() < 0.4 else None
        elif flavor < 0.8:
            premise_families = LOGICAL + RATIO
            conclusion_families = RATIO
            universe = Fraction(rng.randint(3, 8)) if rng.random() < 0.4 else None
        else:
            premise_families = LOGICAL + COUNT + RATIO
            conclusion_families = COUNT + RATIO
            universe = Fraction(rng.randint(3, 8))
    premises = [
        random_statement(rng, names, premise_families)
        for _ in range(rng.randint(1, 3))
    ]
    conclusion = Conclusion(
        rng.choice(conclusion_families),
        random_term(rng, names),
        random_term(rng, names),
    )
    return Syllogism(names, tuple(premises), conclusion, universe_size=universe)


def random_fuzzy_shape(rng, family):
    if family in RATIO:
        if rng.random() < 0.25 and family == PROPORTIONAL:
            return RimQuantifier(Fraction(rng.choice((1, 2, 1, 3)), rng.choice((1, 2))))
        knots = sorted(Fraction(rng.randint(0, 8), 8) for _ in range(4))
        return Trapezoid(*knots)
    knots = sorted(rng.randint(0, 8) for _ in range(4))
    return Trapezoid(*knots)


def random_fuzzy_syllogism(rng):
    """Fuzzy premises of one unit flavor plus a matching conclusion family."""
    names = ("p", "q", "r")[: rng.randint(2, 3)]
    if rng.random() < 0.5:
        families, conclusion_families = COUNT, COUNT
        universe = Fraction(rng.randint(4, 8)) if rng.random() < 0.3 else None
    else:
        families, conclusion_families = RATIO, RATIO
        universe = Fraction(rng.randint(4, 8)) if rng.random() < 0.3 else None
    premises = []
    for _ in range(rng.randint(1, 3)):
        family = rng.choice(families)
        spec = QuantifierSpec(family, random_fuzzy_shape(rng, family))
        premises.append(
            Statement(spec, random_term(rng, names), random_term(rng, names))
        )
    conclusion = Conclusion(
        rng.choice(conclusion_families),
        random_term(rng, names),
        random_term(rng, names),
    )
    return Syllogism(names, tuple(premises), conclusion, universe_size=universe)


@pytest.fixture
def rng(request):
    # stable per-test stream so failures replay
    return random.Random("sylq:" + request.node.name)


# ---------------------------------------------------------------------------
# acceptance summary

_CRITERION = re.compile(r"test_criterion_(\d+)")
_outcomes = {}
ACCEPTANCE_NOTES = []


@pytest.fixture(scope="session")
def acceptance_notes():
    return ACCEPTANCE_NOTES


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    match = _CRITERION.search(report.nodeid)
    if not match:
        return
    if report.when == "call" or (report.when == "setup" and report.failed):
        _outcomes.setdefault(int(match.group(1)), []).append(report.passed)


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_outcomes):
        verdict = "PASS" if all(_outcomes[number]) else "FAIL"
        terminalreporter.write_line("ACCEPTANCE criterion %d: %s" % (number, verdict))
    for note in ACCEPTANCE_NOTES:
        terminalreporter.write_line(note)
