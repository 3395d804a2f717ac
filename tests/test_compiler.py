import random
from fractions import Fraction

import pytest

from sylq import InferenceConfig, Interval, Syllogism, UnitMixingError, infer, parse, simplex
from sylq import compiler, optimizer
from sylq.compiler import compile_syllogism
from sylq.quantifiers import (
    ABSOLUTE,
    COMPARATIVE_ABSOLUTE,
    COMPARATIVE_PROPORTIONAL,
    COUNT_FAMILIES,
    EXCEPTION,
    LOGICAL_ALL,
    LOGICAL_NONE,
    LOGICAL_NOT_ALL,
    LOGICAL_SOME,
    PROPORTIONAL,
    RATIO_FAMILIES,
    SIMILARITY,
    QuantifierSpec,
    bound_ints,
)
from sylq.statements import Conclusion, Statement
from sylq.terms import UNIVERSE, And, Not, Or, Prop

from conftest import (
    FIXTURE_DIR,
    int_bounds,
    load_fixture,
    mask_atoms,
    random_crisp_syllogism,
    random_fuzzy_syllogism,
)
from reference_lp import LinearExpr, atoms_of, class_lp, reduced

F = Fraction
P, Q = Prop("p"), Prop("q")
NAMES = ("p", "q")
EPS = optimizer.EPS_PROP


def stmt(family, shape, restriction=P, scope=Q):
    return Statement(QuantifierSpec(family, shape), restriction, scope)


def compiled(premises, conclusion, universe=None):
    syl = Syllogism(NAMES, tuple(premises), conclusion, universe_size=universe)
    return syl, compile_syllogism(syl, int_bounds(syl))


def per_atom(syl, values):
    """Class values spread over the atoms of each class mask (t is atom K)."""
    return {x: v for v, mask in zip(values, syl.skeleton.classes) if v for x in mask_atoms(mask)}


def atom_row(syl, row):
    """A class row as (per-atom coefficients, relation, rhs)."""
    (*coeffs, rhs), den, rel = row
    return per_atom(syl, [F(c, den) for c in coeffs]), rel, F(rhs, den)


def atom_rows(syl, system):
    """A compiled reading's rows as (per-atom coefficients, relation, rhs)."""
    return [atom_row(syl, row) for row in system.constraints]


# over (p, q): p = {1, 3}, q = {2, 3}, and t = 4 under Charnes-Cooper
COUNT_CONCLUSION = Conclusion(ABSOLUTE, P, Q)
RATIO_CONCLUSION = Conclusion(PROPORTIONAL, P, Q)


def test_logical_rows():
    # a count context moves a strict row by one
    for family, want in (
        (LOGICAL_ALL, ({1: F(1)}, "==", F(0))),
        (LOGICAL_SOME, ({3: F(1)}, ">=", F(1))),
        (LOGICAL_NOT_ALL, ({1: F(1)}, ">=", F(1))),
    ):
        syl, system = compiled([stmt(family, None)], COUNT_CONCLUSION)
        assert atom_rows(syl, system) == [want]


def test_absolute_band_is_two_one_sided_rows():
    syl, system = compiled([stmt(ABSOLUTE, Interval(3, 6))], COUNT_CONCLUSION)
    assert atom_rows(syl, system) == [({3: F(1)}, ">=", F(3)), ({3: F(1)}, "<=", F(6))]


def test_count_rows_under_charnes_cooper_carry_the_bound_on_t():
    syl, system = compiled([stmt(ABSOLUTE, Interval(3, 6))], RATIO_CONCLUSION, universe=F(10))
    assert atom_rows(syl, system)[:2] == [
        ({3: F(1), 4: F(-3)}, ">=", F(0)),
        ({3: F(1), 4: F(-6)}, "<=", F(0)),
    ]


def test_unbounded_hi_emits_only_the_lower_row():
    syl, system = compiled([stmt(ABSOLUTE, Interval(3, None))], COUNT_CONCLUSION)
    assert [rel for _, rel, _ in atom_rows(syl, system)] == [">="]


def test_exception_counts_the_left_difference():
    syl, system = compiled([stmt(EXCEPTION, Interval(2, 2))], COUNT_CONCLUSION)
    assert atom_rows(syl, system) == [({1: F(1)}, ">=", F(2)), ({1: F(1)}, "<=", F(2))]


def test_proportional_rows_cross_multiply():
    bound = Interval(F(1, 3), F(2, 3))
    syl, system = compiled([stmt(PROPORTIONAL, bound)], RATIO_CONCLUSION)
    # num - lo*den >= 0 over num = x3, den = x1 + x3; t's coefficient is 0
    lo_row, hi_row = atom_rows(syl, system)[:2]
    assert lo_row == ({1: -F(1, 3), 3: F(2, 3)}, ">=", F(0))
    assert hi_row == ({1: -F(2, 3), 3: F(1, 3)}, "<=", F(0))


def test_comparative_rows():
    syl, system = compiled([stmt(COMPARATIVE_ABSOLUTE, Interval(-1, 2))], COUNT_CONCLUSION)
    assert atom_rows(syl, system)[0][0] == {1: F(1), 2: -F(1)}

    bound = Interval(F(1, 2), 2)
    syl, system = compiled([stmt(COMPARATIVE_PROPORTIONAL, bound)], RATIO_CONCLUSION)
    # |p| - lo*|q| >= 0
    assert atom_rows(syl, system)[0][0] == {1: F(1), 2: -F(1, 2), 3: F(1, 2)}


def test_similarity_rows_use_the_union_denominator():
    syl, system = compiled([stmt(SIMILARITY, Interval(F(1, 2), 1))], RATIO_CONCLUSION)
    lo_row, hi_row = atom_rows(syl, system)[:2]
    assert lo_row[0] == {1: -F(1, 2), 2: -F(1, 2), 3: F(1, 2)}
    assert hi_row[0] == {1: -F(1), 2: -F(1)}


def test_bound_unit_checks():
    for family, shape, bound, message in (
        (PROPORTIONAL, Interval(0, 1), Interval(0, 2), "proportional bounds must lie inside"),
        (PROPORTIONAL, Interval(0, 1), Interval(0, F(6, 5)), "proportional bounds must lie inside"),
        (ABSOLUTE, Interval(0, 1), Interval(-1, 1), "absolute bounds must be nonnegative"),
    ):
        syl = Syllogism(NAMES, (stmt(family, shape),), Conclusion(family, P, Q))
        # a caller's bound is checked, not only a shape's level-0 cut
        with pytest.raises(ValueError, match="^%s" % message):
            compile_syllogism(syl, [bound_ints(bound)])


def count_syllogism(universe=None):
    return Syllogism(
        NAMES,
        (stmt(ABSOLUTE, Interval(1, 2)),),
        Conclusion(ABSOLUTE, P, Q),
        universe_size=universe,
    )


def test_structural_rows_nonnegativity_and_universe():
    syl = count_syllogism(universe=F(7))
    rows = atom_rows(syl, compile_syllogism(syl, [bound_ints(Interval(1, 2))]))
    # x >= 0 is the solver's domain, not a row: only the universe equation
    assert rows[2:] == [({0: F(1), 1: F(1), 2: F(1), 3: F(1)}, "==", F(7))]


def test_structural_rows_force_ratio_denominators_positive():
    syl, system = compiled(
        [stmt(PROPORTIONAL, Interval(0, 1))], Conclusion(SIMILARITY, Q, Not(P))
    )
    # premise denominator |p|, conclusion denominator |q or not p|, each
    # > 0 as >= EPS_PROP of the total when no universe is declared; then
    # the Charnes-Cooper normalization of |q or not p|
    assert atom_rows(syl, system)[2:] == [
        ({0: -EPS, 1: 1 - EPS, 2: -EPS, 3: 1 - EPS}, ">=", F(0)),
        ({0: 1 - EPS, 1: -EPS, 2: 1 - EPS, 3: 1 - EPS}, ">=", F(0)),
        ({0: F(1), 2: F(1), 3: F(1)}, "==", F(1)),
    ]


def test_shared_denominator_rows_repeat_per_ratio_statement():
    # two prop premises and a prop? conclusion, all over p, and no bound in
    # the skeleton: |p| > 0 once per ratio statement, in statement order,
    # then the normalization; the logical premise keeps its premise slot
    syl = Syllogism(
        NAMES,
        (
            stmt(PROPORTIONAL, Interval(F(1, 2), 1)),
            stmt(LOGICAL_ALL, None, Q, P),
            stmt(PROPORTIONAL, Interval(0, F(1, 3)), P, Not(Q)),
        ),
        RATIO_CONCLUSION,
    )
    skeleton = syl.skeleton
    positive = ({0: -EPS, 1: 1 - EPS, 2: -EPS, 3: 1 - EPS}, ">=", F(0))
    normalization = ({1: F(1), 3: F(1)}, "==", F(1))
    assert [atom_row(syl, row) for row in skeleton.fixed] == [positive] * 3 + [normalization]
    first, logical, last = skeleton.premises
    assert isinstance(first, compiler._Measure) and isinstance(last, compiler._Measure)
    assert not isinstance(logical, compiler._Measure)
    assert atom_row(syl, logical) == ({2: F(1)}, "==", F(0))


def test_unit_mixing_needs_a_declared_universe():
    premises = (
        stmt(ABSOLUTE, Interval(1, 2)),
        stmt(PROPORTIONAL, Interval(F(1, 2), 1)),
    )
    conclusion = Conclusion(ABSOLUTE, P, Q)
    with pytest.raises(UnitMixingError):
        compiled(premises, conclusion)
    syl, system = compiled(premises, conclusion, universe=F(5))
    assert any(rel == "==" for _, rel, _ in atom_rows(syl, system))


def test_objectives():
    syl, system = compiled([], Conclusion(ABSOLUTE, P, Q))
    assert per_atom(syl, system.costs) == {3: F(1)}
    assert atom_rows(syl, system) == []  # a count objective: no normalization row

    syl, system = compiled([], Conclusion(PROPORTIONAL, P, Q))
    assert per_atom(syl, system.costs) == {3: F(1)}
    assert atom_rows(syl, system)[-1] == ({1: F(1), 3: F(1)}, "==", F(1))

    syl, system = compiled([], Conclusion(COMPARATIVE_ABSOLUTE, P, Q))
    assert per_atom(syl, system.costs) == {1: F(1), 2: -F(1)}

    with pytest.raises(ValueError):
        Conclusion(LOGICAL_ALL, P, Q)


def test_ratio_denominator_signs_read_per_atom():
    # the normalization row is the denominator's atom sum: one on each of
    # its atoms, however the denominator's sets overlap the numerator's
    for family, restriction, scope, den in (
        (PROPORTIONAL, Or(P, Q), P, {1, 2, 3}),
        (COMPARATIVE_PROPORTIONAL, P, Or(P, Q), {1, 2, 3}),
        (SIMILARITY, P, Not(Q), {0, 1, 3}),
    ):
        syl, system = compiled([], Conclusion(family, restriction, scope))
        assert atom_rows(syl, system)[-1] == ({x: F(1) for x in den}, "==", F(1))


def test_compile_syllogism_checks_bound_count():
    syl = count_syllogism()
    with pytest.raises(ValueError):
        compile_syllogism(syl, [])


def test_compile_syllogism_assembles_everything():
    syl = Syllogism(
        NAMES,
        (
            stmt(PROPORTIONAL, Interval(F(1, 2), 1), UNIVERSE, P),
            Statement(QuantifierSpec(LOGICAL_SOME), Q, And(P, Q)),
        ),
        Conclusion(PROPORTIONAL, UNIVERSE, Or(P, Q)),
    )
    system = compile_syllogism(syl, [bound_ints(Interval(F(1, 2), 1)), None])
    assert system.k == 4
    # Charnes-Cooper with no universe: every rhs is 0, so no row carries t
    assert 1 << system.k not in syl.skeleton.classes
    # premise rows + strict some-row + 2 denominators + normalization
    assert len(system.constraints) == 2 + 1 + 2 + 1
    # another reading rewrites only the bound rows
    other = compile_syllogism(syl, [bound_ints(Interval(0, F(3, 4))), None])
    assert other.constraints[2:] == system.constraints[2:]
    assert other.constraints[:2] != system.constraints[:2]


def test_linear_expr_helpers():
    # the reference build's expressions (tests/reference_lp.py)
    expr = LinearExpr.of({0: F(2), 2: F(1)})
    other = LinearExpr.of({1: F(4), 2: F(1)})
    assert expr.plus(other) == LinearExpr.of({0: 2, 1: 4, 2: 2})
    assert expr.plus(expr) == LinearExpr.of({0: 4, 2: 2})
    # a coefficient that cancels drops out of the sparse row
    assert expr.plus(other, -1) == LinearExpr.of({0: 2, 1: -4})
    assert expr.plus(expr, -1) == LinearExpr.of({})
    assert expr.plus(other, F(1, 2)) == LinearExpr.of({0: 2, 1: 2, 2: F(3, 2)})
    assert expr.plus(other, F(1, 2)).coeffs == ((0, 2), (1, 2), (2, F(3, 2)))


# ---------------------------------- the skeleton against the per-reading build


def lp_reaching_simplex(monkeypatch, syl, bounds):
    """The (costs, rows) solve() hands to simplex.minimize first, or None
    when it hands nothing (a constant contradiction)."""
    seen = []
    real = simplex.minimize

    def recording(costs, rows, **kwargs):
        seen.append((list(costs), [(list(n), d, r) for n, d, r in rows]))
        return real(costs, rows, **kwargs)

    monkeypatch.setattr(simplex, "minimize", recording)
    outcome = optimizer.solve(compile_syllogism(syl, bounds))
    monkeypatch.setattr(simplex, "minimize", real)
    assert (outcome.status == optimizer.INFEASIBLE) or seen
    return seen[0] if seen else None


def assert_equals_reference(monkeypatch, syl, bounds):
    got = lp_reaching_simplex(monkeypatch, syl, bounds)
    want = class_lp(syl, bounds)
    if want is None:
        assert got is None
    else:
        assert reduced(*got) == reduced(*want)
    return want


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.syl")), ids=lambda p: p.stem)
def test_skeleton_lp_equals_the_reference_on_bundled_documents(monkeypatch, path):
    doc = parse(path.read_text())
    syl = doc.to_syllogism()
    n = doc.options.get("levels", InferenceConfig.levels)
    for i in range(n):
        assert_equals_reference(monkeypatch, syl, int_bounds(syl, i, n - 1))


def test_skeleton_lp_equals_the_reference_on_random_readings(monkeypatch):
    rng = random.Random(20)
    readings = []
    for _ in range(220):
        syl = random_crisp_syllogism(rng)
        readings.append((syl, int_bounds(syl)))
    for _ in range(40):
        syl = random_fuzzy_syllogism(rng)
        for p in (0, 1, 3):
            readings.append((syl, int_bounds(syl, p, 3)))
    seen = dict.fromkeys(
        ("logical", "zero bound", "unbounded hi", "universe", "strict count", "strict ratio",
         "count under Charnes-Cooper", "contradiction"), 0
    )
    for syl, bounds in readings:
        seen["contradiction"] += assert_equals_reference(monkeypatch, syl, bounds) is None
        families = {p.family for p in syl.premises} | {syl.conclusion.family}
        strict = any(p.family in (LOGICAL_SOME, LOGICAL_NOT_ALL) for p in syl.premises)
        seen["logical"] += any(b is None for b in bounds)
        seen["zero bound"] += any(b is not None and b[0] == 0 for b in bounds)
        seen["unbounded hi"] += any(b is not None and b[2] is None for b in bounds)
        seen["universe"] += syl.universe_size is not None
        seen["strict count"] += strict and not families & RATIO_FAMILIES
        seen["strict ratio"] += bool(families & RATIO_FAMILIES)
        # a count premise's W is t here; elsewhere it is the constant 1 or,
        # for a ratio premise, its denominator
        seen["count under Charnes-Cooper"] += (
            syl.universe_size is not None
            and syl.conclusion.family in RATIO_FAMILIES
            and any(p.family in COUNT_FAMILIES for p in syl.premises)
        )
    assert len(readings) >= 300
    assert min(seen.values()) > 0, seen


# the atom sets each family's measure reads: (counted or compared parts,
# denominator or None), over restriction a and scope b
MEASURE_SETS = {
    LOGICAL_ALL: lambda a, b: ([a - b], None),
    LOGICAL_NONE: lambda a, b: ([a & b], None),
    LOGICAL_SOME: lambda a, b: ([a & b], None),
    LOGICAL_NOT_ALL: lambda a, b: ([a - b], None),
    ABSOLUTE: lambda a, b: ([a & b], None),
    EXCEPTION: lambda a, b: ([a - b], None),
    COMPARATIVE_ABSOLUTE: lambda a, b: ([a, b], None),
    PROPORTIONAL: lambda a, b: ([a & b], a),
    COMPARATIVE_PROPORTIONAL: lambda a, b: ([a], b),
    SIMILARITY: lambda a, b: ([a & b], a | b),
}


def referenced_sets(syl):
    """The nonempty atom sets a syllogism's LP reads, from its statements.

    Every measure's parts and denominator; all K atoms when the universe is
    declared or a ratio statement's strict denominator row folds the total
    in; and t, atom K, under Charnes-Cooper with a declared universe, whose
    row is then the one with a nonzero rhs that carries t.
    """
    k = 1 << syl.s
    sets = []
    ratio = False
    for st in (*syl.premises, syl.conclusion):
        a, b = atoms_of(st.restriction, syl.properties), atoms_of(st.scope, syl.properties)
        parts, den = MEASURE_SETS[st.family](a, b)
        sets += parts
        if den is not None:
            sets.append(den)
            ratio = True
    if ratio or syl.universe_size is not None:
        sets.append(frozenset(range(k)))
    if syl.conclusion.family in RATIO_FAMILIES and syl.universe_size is not None:
        sets.append(frozenset((k,)))
    return [atoms for atoms in sets if atoms]


def assert_classes_partition(syl):
    classes = [frozenset(mask_atoms(mask)) for mask in syl.skeleton.classes]
    sets = referenced_sets(syl)
    assert all(classes)
    assert sum(map(len, classes)) == len(frozenset().union(*classes))
    assert frozenset().union(*classes) == frozenset().union(*sets)
    for c in classes:
        # every referenced set holds all of a class or none of it
        assert all(c <= atoms or not c & atoms for atoms in sets)
    for c, d in zip(classes, classes[1:]):
        assert min(c) < min(d)
    for i, c in enumerate(classes):
        for d in classes[i + 1 :]:
            # two classes are apart only where some referenced set parts them
            assert any((c <= atoms) != (d <= atoms) for atoms in sets)


def test_skeleton_classes_partition_the_referenced_atoms():
    rng = random.Random(14)
    syllogisms = [random_crisp_syllogism(rng) for _ in range(250)]
    syllogisms += [random_fuzzy_syllogism(rng) for _ in range(50)]
    syllogisms += [parse(path.read_text()).to_syllogism() for path in FIXTURE_DIR.glob("*.syl")]
    for syl in syllogisms:
        assert_classes_partition(syl)


def test_one_skeleton_per_inference(monkeypatch):
    built, rewrites = [], []
    real_build, real_rewrite = compiler.build_skeleton, optimizer.rewrite_strict

    def counting_build(syl):
        built.append(syl)
        return real_build(syl)

    def counting_rewrite(rows, **kwargs):
        rewrites.append(rows)
        return real_rewrite(rows, **kwargs)

    monkeypatch.setattr(compiler, "build_skeleton", counting_build)
    monkeypatch.setattr(optimizer, "rewrite_strict", counting_rewrite)
    doc = load_fixture("course_passrates_nonnormalized.syl")
    for levels in (2, 21):
        built.clear()
        rewrites.clear()
        syl = doc.to_syllogism()
        result = infer(syl, mode="alpha", config=InferenceConfig(levels=levels))
        assert len(result.cuts) == levels
        assert len(built) == len(rewrites) == 1
    # nothing outlives the syllogism: a new one builds its own
    infer(doc.to_syllogism(), mode="alpha")
    assert len(built) == 2
