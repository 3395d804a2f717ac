import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sylq import Interval, SizeGuardError, Syllogism, Trapezoid, enumerate_range, oracle, parse
from sylq.optimizer import EQ, GT
from sylq.oracle import (
    _blocks,
    _compositions,
    _Extrema,
    _measure,
    population_totals,
    statement_predicate,
)
from sylq.quantifiers import (
    ABSOLUTE,
    COMPARATIVE_ABSOLUTE,
    COMPARATIVE_PROPORTIONAL,
    EXCEPTION,
    FAMILY_TABLE,
    PROPORTIONAL,
    SIMILARITY,
    QuantifierSpec,
    bound_ints,
)
from sylq.statements import Conclusion, Statement
from sylq.terms import And, Not, Or, Prop
from conftest import load_fixture
from reference_lp import atoms_of, term_masks

F = Fraction
P, Q = Prop("p"), Prop("q")
NAMES = ("p", "q")


def stmt(family, shape=None, restriction=P, scope=Q):
    return Statement(QuantifierSpec(family, shape), restriction, scope)


def test_pets_enumeration_pins_three():
    syl = load_fixture("pets_at_home.syl").to_syllogism()
    assert enumerate_range(syl, 10) == Interval(F(3), F(3))


def test_no_premises_ranges_over_everything():
    syl = Syllogism(NAMES, (), Conclusion(ABSOLUTE, P, Q))
    assert enumerate_range(syl, 5) == Interval(F(0), F(5))


def test_declared_universe_fixes_the_total():
    from sylq.terms import UNIVERSE

    syl = Syllogism(
        NAMES, (), Conclusion(ABSOLUTE, UNIVERSE, UNIVERSE), universe_size=F(4)
    )
    assert enumerate_range(syl, 99) == Interval(F(4), F(4))
    fractional = Syllogism(
        NAMES, (), Conclusion(ABSOLUTE, UNIVERSE, UNIVERSE), universe_size=F(9, 2)
    )
    assert enumerate_range(fractional, 99) is None


def test_fractional_measure_is_exact():
    syl = Syllogism(
        NAMES,
        (stmt(ABSOLUTE, Interval(1, 1), P, P),),  # |p| == 1
        Conclusion(SIMILARITY, P, Q),
    )
    # |p & q| / |p | q| over totals <= 3 with |p| = 1: 0, 1/2, 1/3, or 1
    assert enumerate_range(syl, 3) == Interval(F(0), F(1))
    narrowed = Syllogism(
        NAMES,
        (stmt(ABSOLUTE, Interval(1, 1), P, P), stmt(ABSOLUTE, Interval(2, 2), Q, Q)),
        Conclusion(SIMILARITY, P, Q),
    )
    assert enumerate_range(narrowed, 3) == Interval(F(0), F(1, 2))


def test_ratio_premises_never_read_vacuously():
    # |q|/|p| = 1 plus an empty p: no population qualifies, matching the
    # solver's infeasibility instead of a vacuous-truth reading
    from sylq.quantifiers import LOGICAL_NONE
    from sylq.terms import UNIVERSE

    syl = Syllogism(
        NAMES,
        (
            stmt(PROPORTIONAL, Interval(1, 1)),
            stmt(LOGICAL_NONE, None, P, UNIVERSE),
        ),
        Conclusion(ABSOLUTE, P, Q),
    )
    assert enumerate_range(syl, 6) is None


def test_conclusion_denominator_counts_too():
    from sylq.quantifiers import LOGICAL_NONE
    from sylq.terms import UNIVERSE

    syl = Syllogism(
        NAMES,
        (stmt(LOGICAL_NONE, None, P, UNIVERSE),),
        Conclusion(PROPORTIONAL, P, Q),
    )
    assert enumerate_range(syl, 6) is None


def test_fuzzy_premises_need_explicit_bounds():
    syl = Syllogism(
        NAMES,
        (stmt(ABSOLUTE, Trapezoid(0, 1, 2, 3)),),
        Conclusion(ABSOLUTE, P, Q),
    )
    with pytest.raises(ValueError):
        enumerate_range(syl, 4)
    got = enumerate_range(syl, 4, premise_bounds=[bound_ints(Interval(0, 3))])
    assert got == Interval(F(0), F(3))


def test_population_guard_trips_before_blowing_up():
    syl = Syllogism(("p", "q", "r"), (), Conclusion(ABSOLUTE, P, Q))
    with pytest.raises(SizeGuardError):
        enumerate_range(syl, 60)


def test_population_guard_reads_only_the_size():
    # S = 5 with no premises: 2^5 atoms, so cap 20 is refused and cap 3 is not
    names = ("p", "q", "r", "s", "t")
    syl = Syllogism(names, (), Conclusion(ABSOLUTE, P, Q))
    with pytest.raises(SizeGuardError, match="enumerating 125994627894135 populations"):
        population_totals(syl, 20)
    assert population_totals(syl, 3) == range(4)
    # a fractional universe has no integer population, whatever the cap
    half = Syllogism(names, (), Conclusion(ABSOLUTE, P, Q), universe_size=F(21, 2))
    assert population_totals(half, 20) is None
    assert enumerate_range(half, 20) is None


@pytest.mark.parametrize("names", [("p", "q"), ("p", "q", "r")])
def test_population_guard_counts_each_total_once(names):
    # the closed form against the sum over totals, on both sides of the guard
    k = 1 << len(names)
    for cap, size in ((6, None), (60, None), (400, None), (9, F(9)), (60, F(60))):
        syl = Syllogism(names, (), Conclusion(ABSOLUTE, P, Q), universe_size=size)
        totals = range(cap + 1) if size is None else range(int(size), int(size) + 1)
        count = sum(math.comb(t + k - 1, k - 1) for t in totals)
        if count <= 10**7:
            assert population_totals(syl, cap) == totals
        else:
            with pytest.raises(SizeGuardError, match="enumerating %d populations" % count):
                population_totals(syl, cap)


def _bare(s, size=None):
    """A syllogism over s properties with no premises."""
    names = ("p", "q", *("p%d" % i for i in range(2, s)))[:s]
    return Syllogism(names, (), Conclusion(ABSOLUTE, P, Prop(names[-1])), universe_size=size)


def _last_within_count_guard(count):
    """The largest t with count(t) <= 10^7, for count increasing in t."""
    lo, hi = 0, 1
    while count(hi) <= 10**7:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if count(mid) <= 10**7 else (lo, mid)
    return lo


# (S, cap, universe): admitted by count, but holding 1.3 to 305 GB of
# int64 cells or past 2^9 atoms (_compositions recurses once per atom; the
# empty population at S=10 takes few cells).  Never enumerate these.
LARGE = [
    (4, 10, None, "size 10 over 16 atoms takes 158534860 int64 cells"),
    (5, 6, None, "size 6 over 32 atoms takes 416717532 int64 cells"),
    (6, 4, None, "size 4 over 64 atoms takes 596321440 int64 cells"),
    (7, 3, None, "size 3 over 128 atoms takes 1236203904 int64 cells"),
    (8, 1, F(3), "size 3 over 256 atoms takes 38093239040 int64 cells"),
    (9, 1, F(2), "size 2 over 512 atoms takes 8690696064 int64 cells"),
    (10, 1, F(1), "size 1 over 1024 atoms takes 358962176 int64 cells"),
    (10, 0, None, "size 0 over 1024 atoms takes 524800 int64 cells"),
    (16, 1, F(1), "size 1 over 65536 atoms takes 93829287182336 int64 cells"),
]


@pytest.mark.parametrize("s, cap, size, message", LARGE)
def test_population_guard_refuses_what_the_oracle_cannot_hold(s, cap, size, message):
    message += "; the guard admits 512 atoms and 150000000 cells"
    with pytest.raises(SizeGuardError, match=message):
        population_totals(_bare(s, size), cap)


def test_population_guard_admits_every_s3_size_it_counts():
    # each S <= 3 admits the largest universe and cap within the count
    # guard (universe 29 at S = 3 holds 1.365 * 10^8 cells), and S = 9 a
    # universe of one, as before the atom and cell guards
    for s in (1, 2, 3):
        k = 1 << s
        size = _last_within_count_guard(lambda t: math.comb(t + k - 1, k - 1))
        cap = _last_within_count_guard(lambda t: math.comb(t + k, k))
        assert population_totals(_bare(s, F(size)), 0) == range(size, size + 1)
        assert population_totals(_bare(s), cap) == range(cap + 1)
    assert population_totals(_bare(9, F(1)), 0) == range(1, 2)


@pytest.mark.parametrize("s, cap", [(1, 5), (2, 4), (3, 3), (3, 6), (4, 2)])
def test_cell_count_is_the_memo_and_the_largest_block(s, cap):
    k = 1 << s
    cache = {}
    largest = max(block.size for t in range(cap + 1) for block in _blocks(t, k, cache))
    memo = sum(block.size for block in cache.values())
    # the count's j = 1 term, last + 1 cells, is a block the memo never keeps
    assert memo + largest + cap + 1 == oracle._cells(cap, k)


def test_negative_cap_is_rejected():
    # a negative cap is a caller error, not "no population"
    syl = load_fixture("pets_at_home.syl").to_syllogism()
    with pytest.raises(ValueError, match="cap must be a nonnegative integer"):
        enumerate_range(syl, -1)


def test_statement_predicate_edge_conventions():
    counts = np.array(
        [
            [2, 0, 0, 0],  # p and q both empty except atom 0
            [0, 1, 0, 0],  # p nonempty, q empty
            [0, 0, 1, 1],  # q = 2, p = 1 (atom 3)
        ],
        dtype=np.int64,
    )
    one = bound_ints(Interval(1, 1))
    prop = stmt(PROPORTIONAL, Interval(1, 1))
    # row 1: empty restriction reads vacuously true in the raw table
    # row 3: the single p element lies in q, so the ratio is exactly 1
    assert statement_predicate(PROPORTIONAL, one, term_masks(prop, NAMES), counts).tolist() == [
        True,
        False,
        True,
    ]
    cmp_eq = stmt(COMPARATIVE_PROPORTIONAL, Interval(1, 1))
    # |p| = 1*|q|: empty q tolerates only empty p
    assert statement_predicate(COMPARATIVE_PROPORTIONAL, one, term_masks(cmp_eq, NAMES), counts).tolist() == [
        True,
        False,
        False,
    ]
    sim = stmt(SIMILARITY, Interval(F(1, 2), 1))
    half_to_one = bound_ints(Interval(F(1, 2), 1))
    assert statement_predicate(SIMILARITY, half_to_one, term_masks(sim, NAMES), counts).tolist() == [
        True,
        False,
        True,
    ]


def test_a_bound_past_int64_is_compared_exactly():
    # 10**18 * |p & q| wraps in int64 once |p & q| >= 10
    doc = parse(
        "terms: p, q\n"
        "premise: prop[999999999999999999/1000000000000000000, 1] p -> q\n"
        "conclude: prop? p -> q\n"
    )
    assert enumerate_range(doc.to_syllogism(), 20) == Interval(1, 1)


# each family's (numerator, denominator or None) on per-atom counts, over
# restriction atoms a and scope atoms b
FRACTION_MEASURES = {
    ABSOLUTE: lambda n, a, b: (n(a & b), None),
    EXCEPTION: lambda n, a, b: (n(a - b), None),
    COMPARATIVE_ABSOLUTE: lambda n, a, b: (n(a) - n(b), None),
    PROPORTIONAL: lambda n, a, b: (n(a & b), n(a)),
    COMPARATIVE_PROPORTIONAL: lambda n, a, b: (n(a), n(b)),
    SIMILARITY: lambda n, a, b: (n(a & b), n(a | b)),
}


def _huge_fraction(rng, negative):
    """A value whose terms reach 10**30: a random ratio, or a small one moved
    by a tiny amount, so some sit just beside a population's value."""
    if rng.random() < 0.5:
        top, bottom = (10 ** rng.randint(0, 30) for _ in range(2))
        value = Fraction(rng.randint(0, top), rng.randint(1, bottom))
    else:
        tiny = Fraction(rng.choice((-1, 0, 1)), rng.randint(1, 10**30))
        value = max(Fraction(0), Fraction(rng.randint(0, 12), rng.randint(1, 6)) + tiny)
    return -value if negative and rng.random() < 0.5 else value


def test_statement_predicate_equals_a_fraction_reading_for_huge_bounds():
    rng = random.Random(20)
    terms = (P, Q, Not(P), And(P, Q), Or(P, Not(Q)))
    seen = set()
    for _ in range(400):
        family = rng.choice(sorted(FRACTION_MEASURES))
        restriction, scope = rng.choice(terms), rng.choice(terms)
        a, b = atoms_of(restriction, NAMES), atoms_of(scope, NAMES)
        ends = sorted(_huge_fraction(rng, family == COMPARATIVE_ABSOLUTE) for _ in range(2))
        bound = Interval(ends[0], None if rng.random() < 0.2 else ends[1])
        rows = [[rng.randint(0, 6) for _ in range(4)] for _ in range(rng.randint(1, 30))]
        spec = Statement(QuantifierSpec(family, Interval(0, 1)), restriction, scope)
        counts = np.array(rows, dtype=np.int64)
        got = statement_predicate(family, bound_ints(bound), term_masks(spec, NAMES), counts)
        want = []
        for row in rows:
            num, den = FRACTION_MEASURES[family](lambda atoms: sum(row[x] for x in atoms), a, b)
            den = 1 if den is None else den
            want.append(bound.lo * den <= num and (bound.hi is None or num <= bound.hi * den))
        assert got.tolist() == want, (family, bound, rows)
        seen.update(want)
    assert seen == {True, False}


def test_enumeration_walks_no_term(monkeypatch):
    from sylq import terms

    syl = load_fixture("pets_at_home.syl").to_syllogism()
    calls = []
    real = terms.term_mask

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    # a walk through the terms module, recursion included, reads this name
    monkeypatch.setattr(terms, "term_mask", counting)
    assert enumerate_range(syl, 6) == Interval(F(3), F(3))
    # the enumeration reads the masks built with the syllogism
    assert calls == []


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_compositions_are_the_stars_and_bars_rows_in_order(k):
    for total in range(9):
        # k - 1 bars among total + k - 1 places; the parts are the gaps
        expected = []
        for bars in itertools.combinations(range(total + k - 1), k - 1):
            ends = (-1, *bars, total + k - 1)
            expected.append([b - a - 1 for a, b in zip(ends, ends[1:])])
        block = _compositions(total, k, {})
        assert block.dtype == np.int64
        assert block.tolist() == expected


@pytest.mark.parametrize("chunk", range(1, 12))
def test_blocks_split_the_compositions_into_chunks_in_order(monkeypatch, chunk):
    # past the chunk, a block of three or more atoms is split on its first count
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk)
    for k in range(1, 6):
        for total in range(8):
            blocks = list(_blocks(total, k, {}))
            assert all(len(block) <= chunk for block in blocks)
            assert np.vstack(blocks).tolist() == _compositions(total, k, {}).tolist()
    syl = load_fixture("pets_at_home.syl").to_syllogism()
    assert enumerate_range(syl, 6) == Interval(F(3), F(3))


@st.composite
def _ratio_blocks(draw):
    """(size, blocks of (num, den) rows) with 0 <= num <= size >= den >= 1:
    random rows, and blocks whose rows all tie at one ratio."""
    size = draw(st.one_of(st.integers(1, 12), st.integers(1, 10**5)))
    row = st.tuples(st.integers(0, size), st.integers(1, size))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            blocks.append(draw(st.lists(row, max_size=40)))
            continue
        p, q = draw(row)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        scales = st.integers(1, size // max(p, q))
        blocks.append([(p * m, q * m) for m in draw(st.lists(scales, min_size=1, max_size=40))])
    return size, blocks


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_ratio_blocks())
@example((5, []))
@example((5, [[], []]))
@example((7, [[(7, 1), (0, 7)], [(3, 6), (1, 2), (2, 4)]]))
def test_extrema_tables_equal_fraction_min_and_max(case):
    size, blocks = case
    extrema = _Extrema(size)
    for block in blocks:
        num, den = np.array(block, dtype=np.int64).reshape(-1, 2).T
        extrema.update(num, den)
    values = [F(p, q) for block in blocks for p, q in block]
    want = Interval(min(values), max(values)) if values else None
    assert extrema.interval() == want


def test_a_large_declared_universe_meets_its_closed_form():
    # |a| runs over ceil(200000/3)..100000, so |*|/|a| spans [2, 200000/66667]
    doc = parse(
        "terms: a\n"
        "universe: 200000\n"
        "premise: prop[1/3, 1/2] * -> a\n"
        "conclude: cmpprop? * vs a\n"
    )
    assert enumerate_range(doc.to_syllogism(), 20) == Interval(F(2), F(200000, 66667))


def test_a_two_atom_universe_past_one_block_is_enumerated_in_chunks():
    # 4194305 compositions of the universe into |a| and |not a|: one more
    # row than a block holds
    doc = parse(
        "terms: a\n"
        "universe: 4194304\n"
        "premise: abs[0, 4194304] * -> a\n"
        "conclude: cmpprop? * vs a\n"
    )
    assert enumerate_range(doc.to_syllogism(), 10) == Interval(F(1), F(4194304))


def test_family_table_agrees_with_the_oracle_reference():
    # the engine reads every family from FAMILY_TABLE, the oracle from its
    # own definitions; on random atom masks over S <= 4 properties the two
    # readings agree, a missing subtracted part being 0 in the table and
    # None in the oracle
    rng = random.Random(5)
    holds = {EQ: np.equal, GT: np.greater}
    for _ in range(300):
        k = 1 << rng.randint(1, 4)
        a, b = rng.getrandbits(k), rng.getrandbits(k)
        counts = np.array([[rng.randint(0, 2) for _ in range(k)] for _ in range(6)])
        for family, row in FAMILY_TABLE.items():
            if row.relation is None:
                counted, subtracted, den = _measure(family, a, b)
                assert row.measure(a, b) == (counted, subtracted or 0, den), family
                continue
            counted, subtracted, den = row.measure(a, b)
            assert subtracted == 0 and den is None, family
            value = counts[:, [i for i in range(k) if counted >> i & 1]].sum(axis=1)
            expected = statement_predicate(family, None, (a, b), counts)
            assert (holds[row.relation](value, 0) == expected).all(), family
