"""The package root exports the entry points and the types they take and
return; everything else is imported from its own module.  The values a
caller can set are pinned too: the config field, the command-line flags and
the document options."""

import importlib
import pkgutil

import pytest

import sylq
from sylq import DslError, InferenceConfig, parse
from sylq._value import fields
from sylq.cli import _RUN, _VERIFY, _WHOLE
from sylq.inference import MODES

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
