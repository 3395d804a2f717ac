"""Tests of the benchmark's own references and tracer.

    python3 -m pytest perfbench -q
"""

import random
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench_inputs as inputs  # noqa: E402
import run  # noqa: E402
from bench_trace import TARGETS, Tracer  # noqa: E402

import sylq  # noqa: E402
import sylq.cli  # noqa: E402


def _modules():
    return {name: sys.modules[name] for name, _, _ in TARGETS}


def _oracle(bounds, cap):
    syl = sylq.parse(inputs.chain_text(bounds)).to_syllogism()
    return sylq.enumerate_range(syl, cap)


def test_frechet_is_attained_on_small_populations():
    for bounds in (
        [(F(3, 4), F(1)), (F(1, 2), F(3, 4))],
        [(F(1, 2), F(1)), (F(1, 4), F(1, 2))],
    ):
        got = _oracle(bounds, 8)
        assert (got.lo, got.hi) == inputs.frechet(bounds)


def test_frechet_contains_every_enumerated_chain_share():
    rng = random.Random(3)
    for positive in (True, False) * 3:
        bounds = inputs.chain_bounds(3, positive, rng)
        lo, hi = inputs.frechet(bounds)
        assert (lo > 0) == positive
        got = _oracle(bounds, 10)
        if got is not None:
            assert lo <= got.lo and got.hi <= hi


def test_scale_chains_are_fixed_and_half_have_a_positive_lower_end():
    cases = inputs.scale_cases(5)
    assert cases == inputs.scale_cases(6)
    assert sorted({c.s for c in cases}) == list(inputs.SCALE_S)
    positive = [c for c in cases if c.expect.cuts[0][1][0] > 0]
    assert len(positive) * 2 == len(cases)


def test_references_reject_a_wrong_answer():
    case = next(c for c in inputs.bundled_cases(0) if c.name == "hats_and_ties")
    elapsed, problems = run.run_op(sylq.cli, case)
    assert problems == []
    wrong = inputs.Answer("kersup", ((F(0), (F(1, 2), F(1))), (F(1), (F(2, 3), F(1)))), F(1))
    bad = inputs.Case(case.name, case.s, case.argv, wrong)
    assert run.run_op(sylq.cli, bad)[1]
    assert run.exact_problems(sylq, [inputs.Case(case.name, 3, (), wrong, text=case.text)])


def test_tracer_records_spans_and_restores_every_name():
    modules = _modules()
    before = {(m, a): getattr(modules[m], a) for m, a, _ in TARGETS}
    case = next(c for c in inputs.bundled_cases(0) if c.name == "pets_at_home")
    tracer = Tracer(modules)
    assert tracer.missing == []
    with tracer:
        run.run_op(sylq.cli, case)
    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "inference.infer", "simplex.minimize"} <= names
    assert tracer.counts["simplex.pivots"] == inputs.BUNDLED_PIVOTS["pets_at_home"]
    try:
        with tracer:
            raise KeyError("inside")
    except KeyError:
        pass
    after = {(m, a): getattr(modules[m], a) for m, a, _ in TARGETS}
    assert after == before


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3, 1, 2]) == (3, 100.0)
    value, pct = run.tail(list(range(40)))
    assert value == 29 and pct == 75.0
    cases = inputs.bundled_cases(0)[:2]
    latencies = {cases[0].name: [1.0] * 10 + [2.0], cases[1].name: [4.0] * 30}
    median = {cases[0].name: 1.0, cases[1].name: 4.0}
    assert run.tail_factor(cases, latencies, median) == (1.0, 100.0 * 31 / 41, 41)
