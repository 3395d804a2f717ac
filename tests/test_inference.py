from fractions import Fraction

import pytest

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
from sylq.inference import MAX_LEVELS
from sylq.quantifiers import ABSOLUTE, PROPORTIONAL, QuantifierSpec, RimQuantifier
from sylq.statements import Conclusion, Statement
from sylq.terms import Prop
from conftest import load_fixture

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

    calls = []
    real = terms.atom_mask

    def counting(expr, properties):
        calls.append(expr)
        return real(expr, properties)

    for info in pkgutil.iter_modules(sylq.__path__):
        module = importlib.import_module("sylq." + info.name)
        if getattr(module, "atom_mask", None) is real:
            monkeypatch.setattr(module, "atom_mask", counting)
    counts = []
    for levels in (2, 21):
        calls.clear()
        doc = load_fixture("course_passrates_fuzzy.syl")
        infer(doc.to_syllogism(), mode="alpha", config=InferenceConfig(levels=levels))
        counts.append(len(calls))
    # a restriction and a scope set for each premise and the conclusion
    assert counts == [2 * (len(doc.premises) + 1)] * 2
