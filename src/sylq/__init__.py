"""Interval bounds for syllogisms over generalized quantifiers.

Quantified premises ("all but two", "at least 70%", "many") constrain how the
members of a universe can be distributed over the Venn atoms of the involved
properties.  This package compiles such premises into linear constraints over
atom cardinalities, bounds the conclusion's measure by exact rational linear
(and linear-fractional) programming, and lifts the whole construction to
fuzzy quantifiers through alpha cuts.

The package root holds the entry points (:func:`parse`, :func:`infer`,
:func:`enumerate_range`) and the types they take and return; the model
types (statements, quantifier specs, term expressions, constraint rows) are
imported from their own modules.  The ``sylq`` command-line tool runs the
same path.
"""

from .compiler import UnitMixingError
from .dsl import DslError, SyllogismDoc, parse
from .inference import (
    InfeasiblePremisesError,
    InferenceConfig,
    InferenceResult,
    infer,
)
from .optimizer import SolveOutcome
from .quantifiers import Interval, KernelSupportPair, Trapezoid
from .statements import Syllogism
from .terms import SizeGuardError

__version__ = "0.1.0"


def __getattr__(name: str):
    # the oracle needs numpy; load it only when enumerate_range is asked for
    if name == "enumerate_range":
        from .oracle import enumerate_range

        return enumerate_range
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "DslError",
    "InfeasiblePremisesError",
    "InferenceConfig",
    "InferenceResult",
    "Interval",
    "KernelSupportPair",
    "SizeGuardError",
    "SolveOutcome",
    "Syllogism",
    "SyllogismDoc",
    "Trapezoid",
    "UnitMixingError",
    "enumerate_range",
    "infer",
    "parse",
    "__version__",
]
