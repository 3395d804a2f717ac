import random
from fractions import Fraction

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
from sylq.quantifiers import ABSOLUTE, PROPORTIONAL, QuantifierSpec, RimQuantifier
from sylq.statements import Conclusion, Statement
from sylq.terms import Prop
from conftest import int_bounds, load_fixture, random_crisp_syllogism, random_fuzzy_syllogism

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
    assert result.crisp == Interval(F(1), F(2))
    assert result.cuts == [(F(0), result.crisp), (F(1), result.crisp)]
    assert result.max_feasible_level == 1
    assert result.outcomes[0].status == "bounded"
    assert result.epsilon_kind == "count"
    assert result.epsilon == 1


# some a -> b leaves |a & b| / |a| free in (0, 1]: the lower end is the
# infimum 0, open, but the strict row's proportion margin moves it
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="lo: 1e-06, the proportion margin, not 0"
)
def test_an_open_proportion_end_is_its_infimum():
    doc = parse("terms: a, b\npremise: some a -> b\nconclude: prop? a -> b\n")
    assert infer(doc.to_syllogism()).crisp.lo == 0


# some a -> b leaves |a| free to grow while |b| = 1, so |a| / |b| has no
# maximum, but the denominator's positivity row |b| >= 1e-06 * |*| caps it
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="hi: 1000000, the proportion margin's cap"
)
def test_an_unbounded_ratio_is_not_capped_by_the_margin():
    doc = parse("terms: a, b\npremise: some a -> b\nconclude: cmpprop? a vs b\n")
    outcome = infer(doc.to_syllogism()).outcomes[0]
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
    assert result.pair == KernelSupportPair(
        Interval(F(2), F(4)), Interval(F(1), F(5))
    )
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
    assert result.pair is None
    assert result.max_feasible_level == 0
    assert result.fitted is None
    assert result.warnings == [
        "premises become contradictory above level 0; no trapezoid is fitted"
    ]
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
    result = infer(doc.to_syllogism(), mode="kersup")
    assert result.pair.kernel == Interval(F(42, 100), F(85, 100))
    assert result.pair.support == Interval(F(20, 100), F(90, 100))


def test_alpha_matches_kersup_at_the_grid_ends():
    syl = load_fixture("course_passrates_fuzzy.syl").to_syllogism()
    alpha = infer(syl, mode="alpha", config=InferenceConfig(levels=5))
    pair = infer(syl, mode="kersup").pair
    assert alpha.cuts[0][1] == pair.support
    assert alpha.cuts[-1][1] == pair.kernel


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
        assert all(outcome is result.outcomes[0] for outcome in result.outcomes)
    calls.clear()
    infer(one_premise(Trapezoid(1, 2, 4, 5)), mode="alpha", config=InferenceConfig(levels=5))
    assert len(calls) == 5


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


def reference_outcomes(syl, n):
    """The level loop spelled out: each premise cut at the level i/(n-1) in
    lowest terms, then compile_syllogism and solve, one solve per distinct
    tuple of premise bounds."""
    solved, outcomes = {}, []
    for i in range(n):
        level = F(i, n - 1)
        bounds = int_bounds(syl, level.numerator, level.denominator)
        if bounds not in solved:
            solved[bounds] = solve(compile_syllogism(syl, bounds))
        outcomes.append(solved[bounds])
        if i == 0 and outcomes[0].status == INFEASIBLE:
            raise InfeasiblePremisesError("level 0")
    return outcomes


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
        want = reference_outcomes(syl, n)
    except (ValueError, InfeasiblePremisesError) as exc:
        with pytest.raises(type(exc)) as err:
            infer(syl, mode=mode, config=config)
        if isinstance(exc, ValueError):
            assert str(err.value) == str(exc)
        return
    result = infer(syl, mode=mode, config=config)
    assert result.outcomes == want
    assert solve_slots(result.outcomes) == solve_slots(want)


def solve_slots(outcomes):
    """Which solve each level's outcome came from, numbered in order."""
    slots = {}
    return [slots.setdefault(id(outcome), len(slots)) for outcome in outcomes]


@pytest.mark.parametrize("mode, levels", [("crisp", 2), ("kersup", 2), ("alpha", 5)])
def test_zero_premises_bound_the_conclusion_at_every_level(mode, levels):
    syl = Syllogism(NAMES, (), Conclusion(PROPORTIONAL, P, Q))
    result = infer(syl, mode=mode, config=InferenceConfig(levels=levels))
    n = levels if mode == "alpha" else 2
    assert [lam for lam, _ in result.cuts] == [F(i, n - 1) for i in range(n)]
    assert result.outcomes == reference_outcomes(syl, n)
    assert all(iv == Interval(0, 1) for _, iv in result.cuts)
    assert result.max_feasible_level == 1
    assert not any("contradictory" in w for w in result.warnings)
