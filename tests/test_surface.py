"""The package root exports the entry points and the types they take and
return; everything else is imported from its own module.  The values a
caller can set are pinned too: the config field, the command-line flags and
the document options.  README's Python examples print what their comments
quote."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import sylq
from sylq import (
    DslError,
    InferenceConfig,
    Interval,
    KernelSupportPair,
    Syllogism,
    enumerate_range,
    parse,
)
from sylq._value import fields
from sylq.cli import _RUN, _VERIFY, _WHOLE
from sylq.compiler import compile_syllogism
from sylq.inference import MODES
from sylq.quantifiers import as_fraction
from sylq.statements import Conclusion
from sylq.terms import Prop

README = Path(__file__).resolve().parent.parent / "README.md"
# what README's Python examples print, as the comment on each print quotes it
QUOTED = {"result.cuts[-1][1]": "[7/11, 1]", "cut_ints(most.shape, 1, 2)": "(3, 5, 1, 1)"}

ENTRY_POINTS = {
    "parse",
    "infer",
    "enumerate_range",
    "InferenceConfig",
    "InferenceResult",
    "SolveOutcome",
    "Interval",
    "Trapezoid",
    "KernelSupportPair",
    "Syllogism",
    "SyllogismDoc",
    "DslError",
    "InfeasiblePremisesError",
    "SizeGuardError",
    "UnitMixingError",
    "__version__",
}


def test_package_root_exports_only_the_entry_points():
    assert set(sylq.__all__) == ENTRY_POINTS
    assert len(sylq.__all__) == len(ENTRY_POINTS)


def test_every_exported_name_resolves():
    modules = [sylq] + [
        importlib.import_module("sylq." + info.name)
        for info in pkgutil.iter_modules(sylq.__path__)
    ]
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), "%s.%s" % (module.__name__, name)


def test_settable_surface_is_pinned():
    assert list(fields(InferenceConfig)) == ["levels"]
    # besides -h and --help, which each command reads
    assert _RUN == {
        "mode": MODES, "levels": _WHOLE, "format": ("text", "json", "csv"), "verify": _WHOLE
    }
    assert _VERIFY == {"cap": _WHOLE}


def test_document_options_are_mode_and_levels():
    base = "terms: p, q\npremise: all p -> q\nconclude: abs? p -> q\n"
    doc = parse(base + "options: mode=alpha, levels=5\n")
    assert set(doc.options) == {"mode", "levels"}
    for key in ("epsilon-count", "epsilon-prop"):
        with pytest.raises(DslError, match=r"unknown option .* \(mode, levels\)"):
            parse(base + "options: %s=1\n" % key)


def test_readme_python_examples_print_what_they_quote(capsys, monkeypatch):
    # the examples open bundled documents by relative path
    monkeypatch.chdir(README.parent)
    seen = {}
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```", text, re.M | re.S):
        exec(compile(block, str(README), "exec"), {})
        printed = capsys.readouterr().out.splitlines()
        calls = re.findall(r"^print\((.*)\)\s+# (.*)$", block, re.M)
        assert len(calls) == len(printed)
        for (expr, comment), line in zip(calls, printed):
            if expr in QUOTED:
                assert (line, comment.startswith(line)) == (QUOTED[expr], True)
                seen[expr] = line
    assert seen == QUOTED


P, Q = Prop("p"), Prop("q")
CONCLUSION = Conclusion("absolute", P, Q)
# one numeric premise: each reading must give it a crisp bound
NUMERIC = parse("terms: p, q\npremise: abs[1, 3] p -> q\nconclude: abs? p -> q\n")
# each call's error type and whole message; the last is the only place
# Interval.__str__ prints its unbounded form
API_ERRORS = {
    "as_fraction bool": (lambda: as_fraction(True), TypeError, "boolean is not a numeric bound"),
    "as_fraction inf": (
        lambda: as_fraction(float("inf")), ValueError, "bound must be finite, got inf"
    ),
    "as_fraction nan": (
        lambda: as_fraction(float("nan")), ValueError, "bound must be finite, got nan"
    ),
    "as_fraction list": (lambda: as_fraction([1]), TypeError, "cannot interpret [1] as a number"),
    "no property": (
        lambda: Syllogism((), (), CONCLUSION),
        ValueError,
        "a syllogism needs at least one declared property",
    ),
    "duplicate names": (
        lambda: Syllogism(("p", "p"), (), CONCLUSION), ValueError, "property names must be unique"
    ),
    "universe 0": (
        lambda: Syllogism(("p", "q"), (), CONCLUSION, 0),
        ValueError,
        "universe size must be positive",
    ),
    "conclusion family": (
        lambda: Conclusion("bogus", P, Q), ValueError, "unknown conclusion family 'bogus'"
    ),
    "compile without a bound": (
        lambda: compile_syllogism(NUMERIC.to_syllogism(), [None]),
        ValueError,
        "family absolute needs a crisp bound to compile",
    ),
    "enumerate without a bound": (
        lambda: enumerate_range(NUMERIC.to_syllogism(), 3, premise_bounds=[None]),
        ValueError,
        "family absolute needs a crisp bound",
    ),
    "kernel outside support": (
        lambda: KernelSupportPair(Interval(0), Interval(1)),
        ValueError,
        "kernel [0, inf) is not contained in support [1, inf)",
    ),
}


@pytest.mark.parametrize("call, kind, message", API_ERRORS.values(), ids=list(API_ERRORS))
def test_api_input_errors_name_the_fault(call, kind, message):
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message
