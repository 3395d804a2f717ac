"""End-to-end checks of the command-line front end.

Everything drives ``sylq.cli.main`` in process so exit codes and streams are
observable through capsys, except a subprocess test of a closed stdout, one
of what importing the CLI loads, and two subprocess tests of the wiring.
One runs from a checkout: it runs ``python -m sylq.cli`` and the ``sylq``
target named in ``[project.scripts]`` the way the generated console script
does, and both must print the same answer.  The other runs the installed
``sylq`` script and is skipped where no such script is on PATH.
"""

import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sylq
from sylq import Interval, KernelSupportPair, SolveOutcome, Syllogism, cli, parse, simplex
from sylq.cli import main
from sylq.inference import MAX_LEVELS, MODES, infer
from sylq.quantifiers import QuantifierSpec
from sylq.statements import Statement

from conftest import FIXTURE_DIR

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PETS = str(FIXTURE_DIR / "pets_at_home.syl")
COURSE_CRISP = str(FIXTURE_DIR / "course_passrates_crisp.syl")
COURSE_FUZZY = str(FIXTURE_DIR / "course_passrates_fuzzy.syl")
COURSE_PARTIAL = str(FIXTURE_DIR / "course_passrates_nonnormalized.syl")
WAREHOUSE = str(FIXTURE_DIR / "warehouse_sales_mix.syl")

INFEASIBLE_DOC = """\
terms: p, q
universe: 1
premise: abs[2, 3] p -> q
conclude: abs? p -> q
"""

# the strictness margins are constants; asking for one is a usage error
EPSILON_OPTION_DOC = """\
terms: p, q
premise: some p -> q
conclude: abs? p & q -> *
options: epsilon-prop=0.001
"""


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_crisp_text_output(capsys):
    code, out, err = run_cli(capsys, [PETS])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "mode: crisp"
    assert lines[1] == "conclusion: abs? * -> *"
    assert "lo: 3" in lines
    assert "hi: 3" in lines
    assert "status: bounded" in lines
    assert "epsilon: 1 (count)" in lines


def test_json_key_order_and_values(capsys):
    code, out, _ = run_cli(capsys, [COURSE_CRISP, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert list(payload)[:2] == ["lo", "hi"]
    assert list(payload) == [
        "lo",
        "hi",
        "mode",
        "conclusion",
        "status",
        "levels",
        "fitted",
        "max_feasible_level",
        "epsilon",
    ]
    assert payload["lo"] == pytest.approx(0.2)
    assert payload["hi"] == 1
    assert payload["status"] == "bounded"
    assert payload["epsilon"] == {"kind": "proportion", "value": 1e-06}


def test_json_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, [WAREHOUSE, "--format", "json"])
    _, second, _ = run_cli(capsys, [WAREHOUSE, "--format", "json"])
    assert first == second


def test_kersup_json_payload(capsys):
    code, out, _ = run_cli(capsys, [WAREHOUSE, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "kersup"
    assert payload["kernel"] == {"lo": 0.15, "hi": 0.45}
    assert payload["support"] == {"lo": 0.05, "hi": 0.5}
    assert payload["fitted"] == [0.05, 0.15, 0.45, 0.5]


def test_csv_levels(capsys):
    code, out, _ = run_cli(capsys, [COURSE_CRISP, "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level,lo,hi,feasible"
    assert lines[1] == "0,0.2,1,true"
    # an infeasible level and a level unbounded both ways print apart
    assert run_cli(capsys, [COURSE_PARTIAL, "--format", "csv"])[1].splitlines()[-1] == "1,,,false"
    sys.stdin = io.StringIO(UNBOUNDED_DOC)
    rows = run_cli(capsys, ["-", "--format", "csv"])[1].splitlines()[1:]
    assert len(rows) == 11 and all(row.endswith(",,,true") for row in rows)


# |a| = 1 attains |*| / |a| = 2000000, but over a universe past 10^6 the
# proportion margin keeps the denominator |a| at 2 or more
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="engine [1, 1000000]; enumerated [1, 2000000]: DISAGREE",
)
def test_verify_agrees_past_the_proportion_margin(capsys):
    sys.stdin = io.StringIO(
        "terms: a\n"
        "universe: 2000000\n"
        "premise: abs[0, 2000000] * -> a\n"
        "conclude: cmpprop? * vs a\n"
    )
    assert run_cli(capsys, ["verify", "-", "--cap", "1"])[0] == 0


def test_csv_unbounded_hi_is_empty_cell(capsys):
    doc = "terms: p, q\npremise: some p -> q\nconclude: abs? p & q -> *\n"
    sys.stdin = io.StringIO(doc)
    code, out, _ = run_cli(capsys, ["-", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "0,1,,true"


# |a & b| >= 3 bounds the conclusion below by 3 and leaves it free above
ABOVE_3_DOC = "terms: a, b\npremise: abs[3, inf] a -> b\nconclude: abs? a -> b\n"


def printed_los(out, fmt):
    """Every lower end a run printed, as text."""
    if fmt == "json":
        payload = json.loads(out)
        ends = [payload, payload.get("kernel"), payload.get("support"), *payload["levels"]]
        return [str(end["lo"]) for end in ends if end and "lo" in end]
    if fmt == "csv":
        return [row.split(",")[1] for row in out.splitlines()[1:]]
    return re.findall(r"^(?:lo: |level \S+: \[)([^,\s]+)", out, re.M)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("mode", ["crisp", "kersup", "alpha"])
def test_every_mode_and_format_prints_the_minimum_when_unbounded_above(capsys, mode, fmt):
    sys.stdin = io.StringIO(ABOVE_3_DOC)
    code, out, _ = run_cli(capsys, ["-", "--mode", mode, "--format", fmt])
    assert code == 0
    los = printed_los(out, fmt)
    assert los and all(lo == "3" for lo in los)

    sys.stdin = io.StringIO(ABOVE_3_DOC)
    code, _, err = run_cli(capsys, ["verify", "-", "--cap", "6"])
    assert (code, err) == (0, "verify crisp: engine [3, inf]; enumerated [3, 6]: OK\n")

    syl = parse(ABOVE_3_DOC).to_syllogism()
    (premise,) = syl.premises
    pair = KernelSupportPair(Interval(3), Interval(2))
    spec = QuantifierSpec(premise.quantifier.family, pair)
    statement = Statement(spec, premise.restriction, premise.scope)
    result = infer(Syllogism(syl.properties, (statement,), syl.conclusion))
    assert result.pair == pair


def test_verify_prints_a_fractional_universe_size_exactly(capsys):
    sys.stdin = io.StringIO(
        "terms: a\nuniverse: 1/3\npremise: prop[0.2, 0.5] * -> a\nconclude: prop? * -> a\n"
    )
    code, _, err = run_cli(capsys, ["verify", "-"])
    assert code == 0
    assert "no integer witness of universe size 1/3: OK" in err


# the premise pins |p & q| but nothing bounds |p| - |q| either way, so every
# level is feasible with an unbounded conclusion
UNBOUNDED_DOC = """\
terms: p, q
premise: abs tz(1, 2, 3, 4) p -> q
conclude: cmpabs? p vs q
"""

# 10**17 + 1 is not a float, so any float on the way would print 10**17
HUGE = 10**17 + 1
HUGE_DOC = """\
terms: p, q
universe: %d
premise: abs[3, %d] p -> q
conclude: abs? p -> q
""" % (HUGE, HUGE)


def test_feasible_level_with_unbounded_conclusion(capsys):
    sys.stdin = io.StringIO(UNBOUNDED_DOC)
    code, out, _ = run_cli(capsys, ["-", "--levels", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[2:5] == [
        "level 0: [-inf, inf]",
        "level 0.5: [-inf, inf]",
        "level 1: [-inf, inf]",
    ]
    assert "max feasible level: 1" in lines
    sys.stdin = io.StringIO(UNBOUNDED_DOC)
    code, out, _ = run_cli(capsys, ["-", "--levels", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["levels"][0] == {
        "level": 0,
        "lo": None,
        "hi": None,
        "feasible": True,
    }


def test_crisp_bounds_render_exactly_in_every_format(capsys):
    sys.stdin = io.StringIO(HUGE_DOC)
    _, out, _ = run_cli(capsys, ["-"])
    assert "hi: %d" % HUGE in out.splitlines()
    sys.stdin = io.StringIO(HUGE_DOC)
    _, out, _ = run_cli(capsys, ["-", "--format", "json"])
    payload = json.loads(out)
    assert payload["hi"] == HUGE
    assert [row["hi"] for row in payload["levels"]] == [HUGE, HUGE]
    sys.stdin = io.StringIO(HUGE_DOC)
    _, out, _ = run_cli(capsys, ["-", "--format", "csv"])
    assert out.splitlines()[1:] == ["0,3,%d,true" % HUGE, "1,3,%d,true" % HUGE]


# non-integral answers past the float range: 10**400 / 3, (10**400 + 1) / 2
# (no trailing zeros, as "%.12g" prints 5e+300) and 1 / 10**400
PAST_FLOAT_DOCS = [
    ("terms: a, b\npremise: abs[0, %s] a -> b\nconclude: abs? a -> b\n" % bound, digits)
    for bound, digits in (
        ("1%s/3" % ("0" * 400), "3.33333333333e+399"),
        ("1%s1/2" % ("0" * 399), "5e+399"),
        ("1/1" + "0" * 400, "1e-400"),
    )
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("doc, digits", PAST_FLOAT_DOCS, ids=["huge", "half", "tiny"])
def test_answers_past_the_float_range_print_12_digits(capsys, fmt, doc, digits):
    sys.stdin = io.StringIO(doc)
    code, out, err = run_cli(capsys, ["-", "--format", fmt])
    assert (code, err) == (0, "")
    # crisp text prints hi once; CSV once per level; JSON adds the top-level hi
    assert out.count(digits) == {"text": 1, "csv": 2, "json": 3}[fmt]
    if fmt == "json":
        assert json.loads(out)["hi"] == float(digits)


# error messages name a bound past the float range exactly: 10**400 / 3
# above 1, 2 / 10**400 above 1 / 10**400, and a trapezoid's first corner
ZEROS = "0" * 400
PAST_FLOAT_ERRORS = [
    ("abs[1%s/3, 1]" % ZEROS, "interval lower bound 1%s/3 exceeds upper bound 1" % ZEROS),
    (
        "abs[2/1%s, 1/1%s]" % (ZEROS, ZEROS),
        "interval lower bound 0.%s2 exceeds upper bound 0.%s1" % (ZEROS[1:], ZEROS[1:]),
    ),
    (
        "abs tz(1%s/3, 1, 2, 3)" % ZEROS,
        "trapezoid parameters must be ordered a <= b <= c <= d, got [1%s/3, 1, 2, 3]" % ZEROS,
    ),
]


@pytest.mark.parametrize("quantifier, message", PAST_FLOAT_ERRORS, ids=["huge", "tiny", "tz"])
def test_errors_past_the_float_range_name_exact_values(capsys, quantifier, message):
    sys.stdin = io.StringIO("terms: a, b\npremise: %s a -> b\nconclude: abs? a -> b\n" % quantifier)
    code, out, err = run_cli(capsys, ["-"])
    assert (code, out) == (1, "")
    assert err == "error: line 2, column 10: %s\n" % message


def test_messages_name_values_exactly(capsys):
    # the grid's 5/6 is the level the warning names; a bound of 1/3 is refused
    code, out, err = run_cli(capsys, [COURSE_PARTIAL, "--levels", "7"])
    assert (code, err) == (0, "")
    assert "warning: premises become contradictory above level 5/6; " in out
    sys.stdin = io.StringIO("terms: a, b\npremise: prop[0.5, 1/3] a -> b\nconclude: prop? a -> b\n")
    code, out, err = run_cli(capsys, ["-"])
    assert (code, out) == (1, "")
    assert err.endswith("interval lower bound 0.5 exceeds upper bound 1/3\n")


def test_reads_stdin_when_file_is_dash(capsys):
    sys.stdin = io.StringIO((FIXTURE_DIR / "pets_at_home.syl").read_text())
    code, out, _ = run_cli(capsys, ["-"])
    assert code == 0
    assert "lo: 3" in out


BOM_DOC = "\ufeffterms: a, b\npremise: all a -> b\nconclude: prop? a -> b\n"


@pytest.mark.parametrize("command", [[], ["verify"]], ids=["run", "verify"])
def test_a_byte_order_mark_is_dropped_from_a_file(tmp_path, capsys, command):
    bom, plain = tmp_path / "bom.syl", tmp_path / "plain.syl"
    bom.write_bytes(BOM_DOC.encode("utf-8"))
    plain.write_bytes(BOM_DOC[1:].encode("utf-8"))
    want = run_cli(capsys, command + [str(plain)])
    assert want[0] == 0
    assert run_cli(capsys, command + [str(bom)]) == want
    # one mark only: a second one is the document's first character
    bom.write_bytes(("\ufeff" + BOM_DOC).encode("utf-8"))
    code, out, err = run_cli(capsys, command + [str(bom)])
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1, column 1: expected 'terms:'")


@pytest.mark.parametrize("command", [[], ["verify"]], ids=["run", "verify"])
def test_a_byte_order_mark_is_dropped_from_stdin(capsys, command):
    sys.stdin = io.StringIO(BOM_DOC[1:])
    want = run_cli(capsys, command + ["-"])
    assert want[0] == 0
    sys.stdin = io.StringIO(BOM_DOC)
    assert run_cli(capsys, command + ["-"]) == want


def test_crlf_and_cr_line_ends_read_like_lf(tmp_path, capsys):
    text = (FIXTURE_DIR / "hats_and_ties.syl").read_text()
    want = run_cli(capsys, [str(FIXTURE_DIR / "hats_and_ties.syl"), "--format", "json"])
    for end in ("\r\n", "\r"):
        path = tmp_path / "doc.syl"
        path.write_bytes(text.replace("\n", end).encode("utf-8"))
        assert run_cli(capsys, [str(path), "--format", "json"]) == want


def test_missing_file_is_input_error(capsys):
    code, out, err = run_cli(capsys, [str(FIXTURE_DIR / "no_such_doc.syl")])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_parse_error_reports_line(capsys):
    sys.stdin = io.StringIO("terms: p, q\npremise: all p q\nconclude: abs? p -> q\n")
    code, _, err = run_cli(capsys, ["-"])
    assert code == 1
    assert "line 2" in err


def test_unit_mixing_is_input_error(capsys):
    doc = (
        "terms: p, q\n"
        "premise: abs[1, 2] p -> q\n"
        "premise: prop[0.5, 1] q -> p\n"
        "conclude: abs? p -> q\n"
    )
    sys.stdin = io.StringIO(doc)
    code, _, err = run_cli(capsys, ["-"])
    assert code == 1
    assert "universe" in err


@pytest.mark.parametrize(
    "term",
    ["!" * 2000 + "p", "(" * 300 + "p" + ")" * 300, " & ".join(["p"] * 1500)],
    ids=["negations", "parentheses", "chain"],
)
def test_deeply_nested_term_is_an_input_error(capsys, term):
    sys.stdin = io.StringIO("terms: p, q\npremise: all %s -> q\nconclude: abs? p -> q\n" % term)
    code, out, err = run_cli(capsys, ["-"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 2, column ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        [PETS, "--mode", "bogus"],
        [PETS, "--format", "xml"],
        ["verify", PETS, "--cap", "x"],
        ["verify", PETS, "--cap", "-3"],
        [PETS, "--verify", "-3"],
        [PETS, "--levels", "\u0661\u0661"],
        ["verify", PETS, "--cap", "\u0661\u0661"],
        [PETS, "--epsilon-prop", "0.001"],
        ["verify", "-", "--epsilon-count", "5"],
        ["-"],
        [PETS, "--levels"],
        [PETS, "--mode", "--format", "json"],
        [PETS, PETS],
        ["verify", PETS, "-"],
        ["--=x", PETS],
        [PETS, "-x"],
        [PETS, "--help=x"],
        [PETS, "--mode", "bogus", "--help"],
    ],
    ids=[
        "mode",
        "format",
        "cap",
        "negative-cap",
        "negative-verify",
        "non-ascii-levels",
        "non-ascii-cap",
        "epsilon-flag",
        "verify-epsilon-flag",
        "epsilon-option",
        "missing-value",
        "option-for-value",
        "second-file",
        "verify-second-file",
        "ambiguous",
        "single-dash",
        "help-value",
        "error-before-help",
    ],
)
def test_usage_errors_exit_1_with_one_error_line(capsys, argv):
    sys.stdin = io.StringIO(EPSILON_OPTION_DOC)
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_consecutive_calls_share_no_parsed_values(capsys):
    # each call reads its own argv; nothing is left from the one before
    alone = run_cli(capsys, [COURSE_FUZZY])
    flagged = run_cli(
        capsys, [COURSE_FUZZY, "--mode", "kersup", "--levels", "5", "--format", "csv"]
    )
    assert flagged[0] == 0 and flagged[1].startswith("level,lo,hi")
    assert run_cli(capsys, [PETS, "--format", "xml"])[0] == 1
    assert run_cli(capsys, ["verify", PETS, "--cap", "x"])[0] == 1
    assert run_cli(capsys, ["verify", PETS, "--cap", "3"])[0] == 0
    assert run_cli(capsys, [COURSE_FUZZY]) == alone


def test_tiny_rim_exponent_is_cut_fast(capsys):
    # 1/e = 10**10 is past the exact-power bound, so its cuts are snapped
    sys.stdin = io.StringIO(
        "terms: p, q\npremise: prop rim(0.0000000001) p -> q\nconclude: prop? p -> q\n"
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["-", "--format", "csv"])
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert out.splitlines()[1:3] == ["0,0,1,true", "0.1,0,1,true"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["-h"],
        ["--h"],
        ["--hel"],
        [PETS, "--mode", "alpha", "--help", "--bogus"],
        ["verify", "--help"],
        ["verify", PETS, "--cap", "3", "-h"],
    ],
)
def test_help_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out == cli.__doc__.partition("\n\n")[2]
    assert out.startswith("usage: sylq [FILE] [--mode auto|crisp|kersup|alpha] [--levels N]\n")
    assert "       sylq verify [FILE] [--cap N]\n" in out
    assert "the alpha grid size, 2 to %d" % MAX_LEVELS in out


def test_infeasible_premises_exit_code(capsys):
    sys.stdin = io.StringIO(INFEASIBLE_DOC)
    code, _, err = run_cli(capsys, ["-"])
    assert code == 2
    assert "premises" in err


def test_size_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, ["verify", PETS, "--cap", "60"])
    assert code == 3
    assert "guard" in err


def test_too_many_properties_exit_3_with_one_error_line(capsys, monkeypatch):
    # the atom count is named as 2^S: 2**15000 has more digits than int()
    # converts to text by default
    terms = ", ".join("t%d" % i for i in range(15000))
    doc = "terms: %s\npremise: some * -> t0\nconclude: prop? * -> t0\n" % terms
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, err = run_cli(capsys, ["-"])
    assert (code, out) == (3, "")
    assert err == (
        "error: S=15000 properties would create 2^15000 atoms (cap 2^16); "
        "the constraint system would be too large\n"
    )


@pytest.mark.parametrize(
    "body, flags",
    [
        # count premise, ratio conclusion, no universe: a unit-mixing error
        ("premise: abs[1, 5] * -> t0\nconclude: prop? * -> t0\n", []),
        ("premise: some * -> t0\nconclude: prop? * -> t0\n", ["--levels", "5000"]),
    ],
)
def test_past_the_atom_cap_the_size_guard_speaks_before_other_faults(
    capsys, monkeypatch, body, flags
):
    # the atom masks are built with the syllogism, before the unit check or
    # the level grid, so its second fault goes unreported
    doc = "terms: %s\n%s" % (", ".join("t%d" % i for i in range(17)), body)
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, err = run_cli(capsys, ["-", *flags])
    assert (code, out) == (3, "")
    assert err == (
        "error: S=17 properties would create 2^17 atoms (cap 2^16); "
        "the constraint system would be too large\n"
    )


@pytest.mark.parametrize("s, cap", [(17, "10"), (30, "1")])
def test_verify_past_the_atom_cap_names_the_atoms_not_the_cap(capsys, monkeypatch, s, cap):
    # no cap can help here, so the size guard speaks before the population guard
    terms = ", ".join("t%d" % i for i in range(s))
    doc = "terms: %s\npremise: some * -> t0\nconclude: prop? * -> t0\n" % terms
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, err = run_cli(capsys, ["verify", "-", "--cap", cap])
    assert (code, out) == (3, "")
    assert err == (
        "error: S=%d properties would create 2^%d atoms (cap 2^16); "
        "the constraint system would be too large\n" % (s, s)
    )


def test_size_guard_refuses_before_any_solve(capsys, monkeypatch):
    calls = []
    original = simplex.minimize

    def counting_minimize(costs, rows, **kwargs):
        calls.append(rows)
        return original(costs, rows, **kwargs)

    monkeypatch.setattr(simplex, "minimize", counting_minimize)
    code, out, err = run_cli(capsys, ["verify", COURSE_CRISP, "--cap", "20"])
    assert (code, out, len(calls)) == (3, "", 0)
    assert err == (
        "error: enumerating 125994627894135 populations exceeds the 10000000 guard; "
        "lower the cap\n"
    )


TRAPEZOID_DOC = """\
terms: p, q
premise: prop tz(0.1, 0.2, 0.3, 0.4) p -> q
conclude: prop? p -> q
"""


@pytest.mark.parametrize(
    "argv, text",
    [
        (["-", "--levels", str(MAX_LEVELS + 1)], TRAPEZOID_DOC),
        (["-", "--levels", "1" + "0" * 10], TRAPEZOID_DOC),
        (["-"], TRAPEZOID_DOC + "options: levels=%d\n" % (MAX_LEVELS + 1)),
    ],
    ids=["flag", "flag-1e10", "option"],
)
def test_levels_past_the_maximum_are_refused_before_any_solve(capsys, monkeypatch, argv, text):
    calls = []
    monkeypatch.setattr(simplex, "minimize", lambda costs, rows, **kwargs: calls.append(rows))
    sys.stdin = io.StringIO(text)
    code, out, err = run_cli(capsys, argv)
    assert (code, out, len(calls)) == (1, "", 0)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "levels must be an integer >= 2 and <= %d" % MAX_LEVELS in err


def test_the_largest_grid_is_solved(capsys):
    sys.stdin = io.StringIO(TRAPEZOID_DOC)
    code, out, err = run_cli(capsys, ["-", "--levels", str(MAX_LEVELS), "--format", "csv"])
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert len(rows) == 1 + MAX_LEVELS
    assert rows[1] == "0,0.1,0.4,true" and rows[-1] == "1,0.2,0.3,true"


def test_pivot_limit_exits_with_code_3_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(simplex, "_MAX_PIVOTS", 0)
    for argv in ([PETS], ["verify", PETS, "--cap", "10"], [PETS, "--verify", "10"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == "error: simplex did not terminate within the pivot cap\n"


def recorded_run(capsys, monkeypatch, argv):
    """Exit code, stderr and the (costs, rows) of every simplex.minimize call."""
    lps = []
    original = simplex.minimize

    def recording(costs, rows, **kwargs):
        lps.append((list(costs), [(list(nums), den, rel) for nums, den, rel in rows]))
        return original(costs, rows, **kwargs)

    monkeypatch.setattr(simplex, "minimize", recording)
    code, _, err = run_cli(capsys, argv)
    monkeypatch.setattr(simplex, "minimize", original)
    return code, err, lps


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.syl")), ids=lambda p: p.stem)
def test_the_verify_flag_prints_the_verify_command_lines(capsys, monkeypatch, path):
    doc = str(path)
    _, _, run_lps = recorded_run(capsys, monkeypatch, [doc])
    code, err, lps = recorded_run(capsys, monkeypatch, [doc, "--verify", "10"])
    verify_code, verify_err, _ = recorded_run(capsys, monkeypatch, ["verify", doc, "--cap", "10"])
    # the audit's lines, or the guard's, and no solve past the run's own
    assert (code, err) == (verify_code, verify_err)
    assert verify_err.startswith(("verify ", "error: enumerating "))
    assert lps == run_lps


@pytest.mark.parametrize("cap", [str(10**10), "99999999999999999999"])
@pytest.mark.parametrize("command", ["verify", "flag"])
def test_a_cap_past_the_guard_exits_3_with_one_error_line(capsys, command, cap):
    argv = ["verify", PETS, "--cap", cap] if command == "verify" else [PETS, "--verify", cap]
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert (out == "") if command == "verify" else ("lo: 3" in out)
    assert err.startswith("error: enumerating ") and err.count("\n") == 1
    assert err.endswith(" populations exceeds the 10000000 guard; lower the cap\n")


@pytest.mark.parametrize("cap", [10**7, 10**20, 10**4000], ids=["1e7", "1e20", "1e4000"])
@pytest.mark.parametrize("s", [1, 16])
def test_a_vast_cap_is_refused_at_once(capsys, monkeypatch, s, cap):
    # the guard never builds the exact population count of a vast cap
    terms = ", ".join("t%d" % i for i in range(s))
    doc = "terms: %s\npremise: some * -> t0\nconclude: prop? * -> t0\n" % terms
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["verify", "-", "--cap", str(cap)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    count = "50000015000001" if (s, cap) == (1, 10**7) else "more than 10^20"
    want = "enumerating %s populations exceeds the 10000000 guard; lower the cap" % count
    assert err == "error: %s\n" % want


def test_verify_agreement(capsys):
    code, out, err = run_cli(capsys, ["verify", PETS, "--cap", "10"])
    assert code == 0
    assert out == ""
    assert err.strip() == "verify crisp: engine [3, 3]; enumerated [3, 3]: OK"


def test_verify_checks_both_cut_levels(capsys):
    code, _, err = run_cli(capsys, ["verify", WAREHOUSE, "--cap", "20"])
    assert code == 0
    lines = err.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("verify support:")
    assert lines[1].startswith("verify kernel:")
    assert all(line.endswith("OK") for line in lines)


def test_verify_reports_disagreement(capsys, monkeypatch):
    # an engine bracket [4, 4] excludes the enumerated [3, 3]
    def wrong(system):
        return SolveOutcome("bounded", Fraction(4), Fraction(4))

    monkeypatch.setattr(cli.optimizer, "solve", wrong)
    code, out, err = run_cli(capsys, ["verify", PETS, "--cap", "10"])
    assert code == 3
    assert out == ""
    assert err.strip() == "verify crisp: engine [4, 4]; enumerated [3, 3]: DISAGREE"


# a = 5 of the 10 members, so |a & b| would be 1.65 to 1.7
UNIVERSE_DOC = """\
terms: a, b
universe: %s
premise: prop[0.33, 0.34] a -> b
premise: prop[0.5, 0.5] * -> a
conclude: prop? a -> b
"""


@pytest.mark.parametrize("size", ["10", "10.5"])
def test_verify_names_the_declared_universe_size(capsys, monkeypatch, size):
    # only populations of exactly the declared size are enumerated, whatever
    # the cap, and none when the size is fractional
    monkeypatch.setattr(sys, "stdin", io.StringIO(UNIVERSE_DOC % size))
    code, out, err = run_cli(capsys, ["verify", "-", "--cap", "3"])
    assert code == 0
    assert out == ""
    want = "engine [0.33, 0.34]; no integer witness of universe size %s: OK" % size
    assert err == "verify crisp: %s\n" % want


def test_verify_without_a_universe_names_the_cap(capsys, monkeypatch):
    doc = "terms: p, q\npremise: abs[2, 3] p -> q\npremise: abs[0, 1] p & q -> *\n"
    doc += "conclude: abs? p -> q\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, _, err = run_cli(capsys, ["verify", "-", "--cap", "3"])
    assert code == 0
    assert err == "verify crisp: engine: infeasible; no integer witness up to cap 3: OK\n"


# bounds whose terms pass int64; the enumeration compares them exactly
HUGE_BOUND_DOCS = [
    ("prop[999999999999999999/1000000000000000000, 1]", "prop", "[1, 1]"),
    ("abs[0, 100000000000000000000]", "abs", "[0, 20]"),
    ("prop[1/100000000000000000000, 1]", "prop", "[0.05, 1]"),
]


@pytest.mark.parametrize("bound, family, enumerated", HUGE_BOUND_DOCS, ids=["near", "abs", "tiny"])
def test_verify_reads_bounds_past_int64_exactly(capsys, monkeypatch, bound, family, enumerated):
    doc = "terms: p, q\npremise: %s p -> q\nconclude: %s? p -> q\n" % (bound, family)
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, err = run_cli(capsys, ["verify", "-", "--cap", "20"])
    assert (code, out) == (0, "")
    assert err.startswith("verify crisp: engine [")
    assert err.endswith("; enumerated %s: OK\n" % enumerated) and err.count("\n") == 1


def test_run_with_verify_flag(capsys):
    code, out, err = run_cli(capsys, [PETS, "--verify", "10"])
    assert code == 0
    assert "lo: 3" in out
    assert "verify crisp:" in err and "OK" in err


def test_cli_levels_flag_overrides_document_option(capsys):
    # the document pins levels=21, putting the feasibility threshold at 0.95
    _, out, _ = run_cli(capsys, [COURSE_PARTIAL, "--format", "json"])
    assert len(json.loads(out)["levels"]) == 21
    assert json.loads(out)["max_feasible_level"] == pytest.approx(0.95)
    _, out, _ = run_cli(capsys, [COURSE_PARTIAL, "--levels", "11", "--format", "json"])
    assert len(json.loads(out)["levels"]) == 11
    assert json.loads(out)["max_feasible_level"] == pytest.approx(0.90)


def test_mode_flag_overrides_document_option(capsys):
    code, out, _ = run_cli(capsys, [COURSE_FUZZY, "--mode", "kersup", "--format", "json"])
    assert code == 0
    assert json.loads(out)["mode"] == "kersup"


def test_crisp_mode_rejects_fuzzy_document(capsys):
    code, _, err = run_cli(capsys, [COURSE_FUZZY, "--mode", "crisp"])
    assert code == 1
    assert err.startswith("error:")


def checkout_env():
    """The caller's environment with the directory holding the ``sylq``
    package under test first on PYTHONPATH, so a child process runs this
    code rather than a stale install."""
    env = dict(os.environ)
    package_root = str(Path(sylq.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return env


def run_checkout(argv):
    return subprocess.run(argv, capture_output=True, text=True, env=checkout_env())


def assert_matches_module(by_script):
    by_module = run_checkout([sys.executable, "-m", "sylq.cli", PETS])
    assert by_module.returncode == 0, by_module.stderr
    assert by_script.returncode == 0, by_script.stderr
    assert by_module.stdout == by_script.stdout
    assert "lo: 3" in by_module.stdout


def test_module_and_console_script_entry_points():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sylq"]
    module, _, attr = target.partition(":")
    # what the generated console script does: argv[0] is the script name and
    # the target is called with no arguments, so main reads sys.argv itself
    wrapper = (
        "import importlib, operator, sys\n"
        'sys.argv[0] = "sylq"\n'
        f"target = operator.attrgetter({attr!r})(importlib.import_module({module!r}))\n"
        "sys.exit(target())\n"
    )
    assert_matches_module(run_checkout([sys.executable, "-c", wrapper, PETS]))


@pytest.mark.skipif(shutil.which("sylq") is None, reason="no sylq script on PATH")
def test_installed_console_script_matches_module():
    assert_matches_module(run_checkout(["sylq", PETS]))


def test_closed_stdout_exits_with_code_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before sylq writes a byte
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sylq.cli", PETS],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=checkout_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_importing_the_cli_does_not_load_numpy():
    # only `sylq verify` enumerates populations, so only it may pay for numpy;
    # the value classes are built without dataclasses, which loads inspect;
    # only --format json loads json, and no command line loads argparse
    code = (
        "import contextlib, io, sys, sylq.cli\n"
        "assert 'numpy' not in sys.modules, 'import sylq.cli loaded numpy'\n"
        "assert 'dataclasses' not in sys.modules, 'import sylq.cli loaded dataclasses'\n"
        "assert 'inspect' not in sys.modules, 'import sylq.cli loaded inspect'\n"
        "assert 'json' not in sys.modules, 'import sylq.cli loaded json'\n"
        "argvs = [['verify', %r, '--cap', '3'], [%r, '--format', 'xml'], ['--help']]\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "    codes = [sylq.cli.main(argv) for argv in argvs]\n"
        "assert codes == [0, 1, 0], codes\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'argparse' not in sys.modules, 'the CLI loaded argparse'\n"
        "import sylq\n"
        "assert callable(sylq.enumerate_range)\n"
    ) % (PETS, PETS)
    proc = run_checkout([sys.executable, "-c", code])
    assert proc.returncode == 0, proc.stderr


COMMAND_OPTIONS = {"run": cli._RUN, "verify": cli._VERIFY}


@functools.cache
def argparse_reference(command):
    """The argparse parser that read the command's argv before
    cli._read_argv; a usage error raises ValueError."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

    def whole(text):
        if not (text.isascii() and text.isdecimal()):
            raise argparse.ArgumentTypeError("not a whole number: %r" % text)
        return int(text)

    parser = Parser()
    parser.add_argument("file", nargs="?", default="-")
    for option, check in COMMAND_OPTIONS[command].items():
        if check == cli._WHOLE:
            parser.add_argument("--" + option, type=whole)
        else:
            parser.add_argument("--" + option, choices=check)
    return parser


# every kind of token either command's argv can hold, but no "--" or help
# flag: argparse 3.11 reads a "--" after FILE unevenly, and help exits
ARGV_TOKENS = [
    "doc.syl", "-", "", "-x", "verify", "--mode", "--levels", "--format", "--verify",
    "--form", "--format=json", "--cap", "auto", "alpha", "bogus", "json", "csv",
    "text", "11", "2", "0", "-3", "+4", "1_1", "\u0661\u0661", "1" * 5000,
    "--m", "--v=3", "--lev", "-.5", "--=x", "---", "--c", "--cap=5", "--ca",
]


def read_or_error(read, argv):
    try:
        return read(argv)
    except ValueError:
        return "error"


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the reference reads argv as argparse 3.11 does"
)
@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
@settings(derandomize=True, deadline=None, max_examples=2000)
@given(argv=st.lists(st.sampled_from(ARGV_TOKENS), max_size=7))
def test_argv_is_read_as_argparse_read_it(command, argv):
    want = read_or_error(lambda argv: vars(argparse_reference(command).parse_args(argv)), argv)
    got = read_or_error(lambda argv: cli._read_argv(argv, COMMAND_OPTIONS[command]), argv)
    assert got == want


@pytest.mark.parametrize(
    "argv, want",
    [
        (["--", "-x"], {"file": "-x"}),
        (["--", "--"], {"file": "--"}),
        (["--", "--help"], {"file": "--help"}),
        (["doc.syl", "--"], {"file": "doc.syl"}),
        # argparse 3.11 refused this one, though it took the one above
        (["doc.syl", "--mode", "alpha", "--"], {"file": "doc.syl", "mode": "alpha"}),
        (["--mode", "alpha", "--", "-3"], {"file": "-3", "mode": "alpha"}),
        (["--", "doc.syl", "--mode", "alpha"], "error"),
        (["--mode", "--", "doc.syl"], "error"),
        (["--help"], None),
        (["--he", "--bogus"], None),
        (["doc.syl", "--levels", "3", "-h"], None),
        (["-he"], "error"),
        (["--help=1"], "error"),
        (["--levels", "x", "--help"], "error"),
    ],
)
def test_argv_with_a_double_dash_or_help(argv, want):
    if isinstance(want, dict):
        want = dict(dict.fromkeys(cli._RUN), **want)
    assert read_or_error(lambda argv: cli._read_argv(argv, cli._RUN), argv) == want


def test_json_text_matches_the_standard_encoder():
    payload = {
        "empty": [], "none": {}, "nested": {"a": [{"b": [1, -2.5e-07]}], "c": None},
        "flags": [True, False], "text": "tab\t \"quote\" caf\u00e9 \u2028", "big": 10**30,
    }
    assert cli._json_text(payload) == json.dumps(payload, indent=2)
    for path in sorted(FIXTURE_DIR.glob("*.syl")):
        doc = sylq.parse(path.read_text())
        syl = doc.to_syllogism()
        for mode in ("crisp", "kersup", "alpha"):
            try:
                result = infer(syl, mode=mode)
            except ValueError:  # crisp mode refuses fuzzy premises
                continue
            payload = cli._json_payload(result, syl)
            assert cli._json_text(payload) == json.dumps(payload, indent=2)
