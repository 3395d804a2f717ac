import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylq import (
    InfeasiblePremisesError,
    InferenceConfig,
    Interval,
    KernelSupportPair,
    Syllogism,
    Trapezoid,
    infer,
    parse,
)
from sylq.compiler import compile_syllogism
from sylq.inference import MAX_LEVELS
from sylq.optimizer import INFEASIBLE, solve
from sylq.quantifiers import (
    ABSOLUTE,
    PROPORTIONAL,
    QuantifierSpec,
    RimQuantifier,
    _fmt,
    bound_ints,
    cut_ints,
)
from sylq.statements import Conclusion, Statement
from sylq.terms import Prop
from conftest import (
    FIXTURE_DIR,
    bound_ends,
    int_bounds,
    load_fixture,
    random_crisp_syllogism,
    random_fuzzy_syllogism,
)

F = Fraction
P, Q = Prop("p"), Prop("q")
NAMES = ("p", "q")


def one_premise(shape, family=ABSOLUTE, conclusion_family=ABSOLUTE, universe=None):
    return Syllogism(
        NAMES,
        (Statement(QuantifierSpec(family, shape), P, Q),),
        Conclusion(conclusion_family, P, Q),
        universe_size=universe,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        InferenceConfig(levels=1)


def test_config_bounds_the_grid():
    assert InferenceConfig(levels=MAX_LEVELS).levels == MAX_LEVELS
    for levels in (MAX_LEVELS + 1, 10**10):
        with pytest.raises(ValueError, match="<= %d" % MAX_LEVELS):
            InferenceConfig(levels=levels)


def test_auto_mode_follows_the_premise_shapes():
    assert infer(one_premise(Interval(1, 2))).mode == "crisp"
    assert infer(one_premise(Trapezoid(0, 1, 2, 3))).mode == "alpha"
    assert (
        infer(
            one_premise(RimQuantifier(1), family=PROPORTIONAL,
                        conclusion_family=PROPORTIONAL)
        ).mode
        == "alpha"
    )
    pair = KernelSupportPair(Interval(1, 2), Interval(0, 3))
    assert infer(one_premise(pair)).mode == "kersup"


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError):
        infer(one_premise(Interval(1, 2)), mode="fuzzy")


def test_crisp_mode_requires_crisp_premises():
    with pytest.raises(ValueError):
        infer(one_premise(Trapezoid(0, 1, 2, 3)), mode="crisp")


def test_crisp_infeasible_raises():
    syl = one_premise(Interval(2, 3), universe=F(1))
    with pytest.raises(InfeasiblePremisesError):
        infer(syl, mode="crisp")


def test_crisp_result_structure():
    result = infer(one_premise(Interval(1, 2)), mode="crisp")
    cut = Interval(F(1), F(2))
    assert result.cuts == ((F(0), cut), (F(1), cut))
    assert result.max_feasible_level == 1
    assert result.rows[0][2].status == "bounded"
    assert result.epsilon_kind == "count"
    assert result.epsilon == 1


# some a -> b leaves |a & b| / |a| free in (0, 1]: the lower end is the
# infimum 0, open, but the strict row's proportion margin moves it
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="lo: 1e-06, the proportion margin, not 0"
)
def test_an_open_proportion_end_is_its_infimum():
    doc = parse("terms: a, b\npremise: some a -> b\nconclude: prop? a -> b\n")
    assert infer(doc.to_syllogism()).cuts[0][1].lo == 0


# some a -> b leaves |a| free to grow while |b| = 1, so |a| / |b| has no
# maximum, but the denominator's positivity row |b| >= 1e-06 * |*| caps it
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="hi: 1000000, the proportion margin's cap"
)
def test_an_unbounded_ratio_is_not_capped_by_the_margin():
    doc = parse("terms: a, b\npremise: some a -> b\nconclude: cmpprop? a vs b\n")
    outcome = infer(doc.to_syllogism()).rows[0][2]
    assert outcome.status == "unbounded-above"
    assert outcome.hi is None


def test_alpha_on_fuzzy_count_premise():
    result = infer(
        one_premise(Trapezoid(1, 2, 4, 5)), mode="alpha", config=InferenceConfig(levels=3)
    )
    assert [lam for lam, _ in result.cuts] == [0, F(1, 2), 1]
    assert result.cuts[0][1] == Interval(F(1), F(5))
    assert result.cuts[1][1] == Interval(F(3, 2), F(9, 2))
    assert result.cuts[2][1] == Interval(F(2), F(4))
    assert result.fitted == Trapezoid(1, 2, 4, 5)


def test_kersup_pair_nests_and_fits():
    syl = one_premise(Trapezoid(1, 2, 4, 5))
    result = infer(syl, mode="kersup")
    assert result.cuts == ((0, Interval(F(1), F(5))), (1, Interval(F(2), F(4))))
    assert result.fitted == Trapezoid(1, 2, 4, 5)
    assert result.max_feasible_level == 1


def test_kersup_degrades_when_the_kernel_contradicts():
    # kernel readings [3,3] and [4,4] clash; supports [2,4] and [3,5] overlap
    syl = Syllogism(
        NAMES,
        (
            Statement(QuantifierSpec(ABSOLUTE, Trapezoid(2, 3, 3, 4)), P, Q),
            Statement(QuantifierSpec(ABSOLUTE, Trapezoid(3, 4, 4, 5)), P, Q),
        ),
        Conclusion(ABSOLUTE, P, Q),
    )
    result = infer(syl, mode="kersup")
    assert result.rows[1][2].status == "infeasible"
    assert result.max_feasible_level == 0
    assert result.fitted is None
    assert result.warnings == (
        "premises become contradictory above level 0; no trapezoid is fitted",
    )
    level0, level1 = result.cuts
    assert level0[1] == Interval(F(3), F(4))
    assert level1[1] is None


def test_kersup_support_contradiction_raises():
    syl = Syllogism(
        NAMES,
        (
            Statement(QuantifierSpec(ABSOLUTE, Trapezoid(0, 1, 1, 2)), P, Q),
            Statement(QuantifierSpec(ABSOLUTE, Trapezoid(5, 6, 6, 7)), P, Q),
        ),
        Conclusion(ABSOLUTE, P, Q),
    )
    with pytest.raises(InfeasiblePremisesError):
        infer(syl, mode="kersup")


def test_two_sided_passrate_shapes_cap_the_upper_bound():
    # with genuinely two-sided premise trapezoids the conclusion's upper
    # bound follows the tightest premise ceiling instead of staying at 1
    doc = parse(
        """
        terms: student, phys, math, phil, lang
        premise: prop tz(0.7, 0.8, 0.9, 1) student -> phys
        premise: prop tz(0.75, 0.8, 0.85, 0.9) student -> math
        premise: prop tz(0.9, 0.92, 1, 1) student -> phil
        premise: prop tz(0.85, 0.9, 0.95, 1) student -> lang
        conclude: prop? student -> phys & math & phil & lang
        """
    )
    (_, support), (_, kernel) = infer(doc.to_syllogism(), mode="kersup").cuts
    assert kernel == Interval(F(42, 100), F(85, 100))
    assert support == Interval(F(20, 100), F(90, 100))


def test_alpha_matches_kersup_at_the_grid_ends():
    syl = load_fixture("course_passrates_fuzzy.syl").to_syllogism()
    alpha = infer(syl, mode="alpha", config=InferenceConfig(levels=5))
    (_, support), (_, kernel) = infer(syl, mode="kersup").cuts
    assert alpha.cuts[0][1] == support
    assert alpha.cuts[-1][1] == kernel


def test_only_rounded_rim_cuts_warn():
    def rim(exponent):
        return one_premise(RimQuantifier(exponent), PROPORTIONAL, PROPORTIONAL)

    # the curved cuts match no trapezoid either
    assert infer(rim(F(3, 2))).warnings == (
        "premise 1's rim(1.5) cuts between levels 0 and 1 are rounded down to a "
        "multiple of 1e-09, which loosens the premise",
        "no trapezoid matches every cut: tz(0, 1, 1, 1) is off by 0.148140474 at level 0.3",
    )
    # levels 0 and 1 cut exactly, and so does an integer 1/e up to 64
    assert infer(rim(F(3, 2)), mode="kersup").warnings == ()
    assert infer(rim(F(3, 2)), config=InferenceConfig(levels=2)).warnings == ()
    assert infer(rim(F(1, 3))).warnings == (
        "no trapezoid matches every cut: tz(0, 1, 1, 1) is off by 0.384 at level 0.6",
    )


def digest_documents():
    """The stdin documents of scripts/output_digest.py, by run name."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return dict((*digest.STDIN_DOCS, digest.RIM_DOC))


# every bundled document in alpha mode on two grids and in kersup mode, and
# the two alpha documents on stdin that the output digest pins
FIT_CASES = [
    (doc, mode, levels)
    for doc in sorted(path.stem for path in FIXTURE_DIR.glob("*.syl"))
    for mode, levels in (("alpha", 11), ("alpha", 101), ("kersup", 2))
] + [("stdin universe alpha cmpprop", "alpha", 11), ("stdin alpha rim rounded", "alpha", 11)]
# the largest gap between the support/kernel trapezoid's cut and a row's, and
# its level, where they differ
MISFITS = {
    ("hats_and_ties", "alpha", 11): (F(1, 308), F(1, 2)),
    ("hats_and_ties", "alpha", 101): (F(7497, 2307800), F(49, 100)),
    ("wine_exports_rim", "alpha", 11): (F(1, 4), F(1, 2)),
    ("wine_exports_rim", "alpha", 101): (F(1, 4), F(1, 2)),
    ("stdin universe alpha cmpprop", "alpha", 11): (F(6, 7), F(2, 5)),
    ("stdin alpha rim rounded", "alpha", 11): (F(148140474, 10**9), F(3, 10)),
}


@pytest.mark.parametrize(
    "doc, mode, levels", FIT_CASES, ids=["%s-%s-%d" % case for case in FIT_CASES]
)
def test_every_fit_is_the_answer(doc, mode, levels):
    if doc.startswith("stdin"):
        text = digest_documents()[doc]
    else:
        text = (FIXTURE_DIR / (doc + ".syl")).read_text()
    result = infer(parse(text).to_syllogism(), mode=mode, config=InferenceConfig(levels))
    misfits = [w for w in result.warnings if w.startswith("no trapezoid matches every cut")]
    if result.fitted is not None:
        for level, _, outcome in result.rows:
            cut = cut_ints(result.fitted, level.numerator, level.denominator)
            assert cut == bound_ints(Interval(outcome.lo, outcome.hi)), level
        assert misfits == []
    elif (doc, mode, levels) not in MISFITS:
        assert misfits == []
    else:
        (_, _, support), (_, _, kernel) = result.rows[0], result.rows[-1]
        tz = Trapezoid(support.lo, kernel.lo, kernel.hi, support.hi)
        gaps = {}
        for level, _, outcome in result.rows:
            lo, hi = bound_ends(cut_ints(tz, level.numerator, level.denominator))
            gaps[level] = max(abs(lo - outcome.lo), abs(hi - outcome.hi))
        gap, at = MISFITS[doc, mode, levels]
        assert max(gaps.values()) == gaps[at] == gap
        assert misfits == [
            "no trapezoid matches every cut: tz(%s) is off by %s at level %s"
            % (", ".join(map(_fmt, tz.as_tuple())), _fmt(gap), _fmt(at))
        ]


def test_unit_mix_warning_with_declared_universe():
    doc = parse(
        """
        terms: p, q
        universe: 10
        premise: abs[2, 4] p -> q
        premise: prop[0.1, 0.9] q -> p
        conclude: abs? p -> q
        """
    )
    result = infer(doc.to_syllogism(), mode="crisp")
    assert any("mix" in w for w in result.warnings)
    assert result.epsilon_kind == "proportion"
    assert result.epsilon == F(1, 10**6)


def test_levels_with_equal_premise_bounds_share_one_solve(monkeypatch):
    import sylq.optimizer

    calls = []
    real = sylq.optimizer.solve

    def counting(system):
        calls.append(system)
        return real(system)

    monkeypatch.setattr(sylq.optimizer, "solve", counting)
    syl = one_premise(Interval(1, 2))
    for mode, config in (("crisp", None), ("kersup", None), ("alpha", InferenceConfig(levels=5))):
        calls.clear()
        result = infer(syl, mode=mode, config=config)
        assert len(calls) == 1
        assert all(outcome is result.rows[0][2] for _, _, outcome in result.rows)
    calls.clear()
    infer(one_premise(Trapezoid(1, 2, 4, 5)), mode="alpha", config=InferenceConfig(levels=5))
    assert len(calls) == 5


def test_premises_infeasible_at_support_solve_one_level(monkeypatch):
    import sylq.optimizer

    calls = []
    real = sylq.optimizer.solve

    def counting(system):
        calls.append(system)
        return real(system)

    monkeypatch.setattr(sylq.optimizer, "solve", counting)
    # disjoint supports: no level of the 11-level grid is feasible, and
    # infer stops after level 0 instead of solving the other ten
    syl = Syllogism(
        NAMES,
        (
            Statement(QuantifierSpec(ABSOLUTE, Trapezoid(0, 1, 1, 2)), P, Q),
            Statement(QuantifierSpec(ABSOLUTE, Trapezoid(5, 6, 6, 7)), P, Q),
        ),
        Conclusion(ABSOLUTE, P, Q),
    )
    with pytest.raises(InfeasiblePremisesError, match="even at support level"):
        infer(syl, mode="alpha", config=InferenceConfig(levels=11))
    assert len(calls) == 1


def test_atom_sets_are_computed_once_per_document(monkeypatch):
    import importlib
    import pkgutil

    import sylq
    from sylq import terms

    calls = {"property_masks": [], "term_mask": []}

    def counting(name):
        real = getattr(terms, name)

        def wrapper(*args):
            calls[name].append(args[0])
            return real(*args)

        return real, wrapper

    # every caller outside terms, whose term_mask recurses through its own name
    for name in calls:
        real, wrapper = counting(name)
        for info in pkgutil.iter_modules(sylq.__path__):
            module = importlib.import_module("sylq." + info.name)
            if module is not terms and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    counts = []
    for levels in (2, 21):
        for seen in calls.values():
            seen.clear()
        doc = load_fixture("course_passrates_fuzzy.syl")
        infer(doc.to_syllogism(), mode="alpha", config=InferenceConfig(levels=levels))
        counts.append((len(calls["property_masks"]), len(calls["term_mask"])))
    # the property masks once, and one walk of the restriction and of the
    # scope of each premise and the conclusion
    assert counts == [(1, 2 * (len(doc.premises) + 1))] * 2


# ------------------------------------------- infer against the plain level loop


def reference_rows(syl, n):
    """The level loop spelled out: each premise cut at the level i/(n-1) in
    lowest terms, then compile_syllogism and solve, one solve per distinct
    tuple of premise bounds; (level, bounds, outcome) per level."""
    solved, rows = {}, []
    for i in range(n):
        level = F(i, n - 1)
        bounds = int_bounds(syl, level.numerator, level.denominator)
        if bounds not in solved:
            solved[bounds] = solve(compile_syllogism(syl, bounds))
        rows.append((level, bounds, solved[bounds]))
        if i == 0 and solved[bounds].status == INFEASIBLE:
            raise InfeasiblePremisesError("level 0")
    return tuple(rows)


def as_kernel_support(statement, bounded):
    """A trapezoid premise read as its kernel/support pair, either as it
    is or with both upper ends dropped (legal at levels 0 and 1 only)."""
    a, b, c, d = statement.quantifier.shape.as_tuple()
    pair = KernelSupportPair(Interval(b, c if bounded else None), Interval(a, d if bounded else None))
    spec = QuantifierSpec(statement.family, pair)
    return Statement(spec, statement.restriction, statement.scope)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("alpha", "kersup")), st.integers(2, 21))
def test_infer_equals_the_reference_loop(seed, mode, levels):
    rng = random.Random(seed)
    syl = random_fuzzy_syllogism(rng) if rng.random() < 0.7 else random_crisp_syllogism(rng)
    premises = [
        as_kernel_support(p, rng.random() < 0.5)
        if isinstance(p.quantifier.shape, Trapezoid) and rng.random() < 0.3
        else p
        for p in syl.premises
    ]
    syl = Syllogism(syl.properties, tuple(premises), syl.conclusion, syl.universe_size)
    n = levels if mode == "alpha" else 2
    config = InferenceConfig(levels=levels)
    try:
        want = reference_rows(syl, n)
    except (ValueError, InfeasiblePremisesError) as exc:
        with pytest.raises(type(exc)) as err:
            infer(syl, mode=mode, config=config)
        if isinstance(exc, ValueError):
            assert str(err.value) == str(exc)
        return
    result = infer(syl, mode=mode, config=config)
    assert result.rows == want
    assert solve_slots(result.rows) == solve_slots(want)


def solve_slots(rows):
    """Which solve each row's outcome came from, numbered in order."""
    slots = {}
    return [slots.setdefault(id(outcome), len(slots)) for _, _, outcome in rows]


@pytest.mark.parametrize("mode, levels", [("crisp", 2), ("kersup", 2), ("alpha", 5)])
def test_zero_premises_bound_the_conclusion_at_every_level(mode, levels):
    syl = Syllogism(NAMES, (), Conclusion(PROPORTIONAL, P, Q))
    result = infer(syl, mode=mode, config=InferenceConfig(levels=levels))
    n = levels if mode == "alpha" else 2
    assert [lam for lam, _ in result.cuts] == [F(i, n - 1) for i in range(n)]
    assert result.rows == reference_rows(syl, n)
    assert all(iv == Interval(0, 1) for _, iv in result.cuts)
    assert result.max_feasible_level == 1
    assert not any("contradictory" in w for w in result.warnings)
