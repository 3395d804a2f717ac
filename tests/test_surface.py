"""The package root exports the entry points and the types they take and
return; everything else is imported from its own module."""

import importlib
import pkgutil

import sylq

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
