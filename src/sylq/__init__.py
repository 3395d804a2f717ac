"""Interval bounds for syllogisms over generalized quantifiers.

Quantified premises ("all but two", "at least 70%", "many") constrain how the
members of a universe can be distributed over the Venn atoms of the involved
properties.  This package compiles such premises into linear constraints over
atom cardinalities, bounds the conclusion's measure by exact rational linear
(and linear-fractional) programming, and lifts the whole construction to
fuzzy quantifiers through alpha cuts.

The typical entry points are :func:`sylq.dsl.parse` plus :func:`sylq.infer`,
or the ``sylq`` command-line tool.
"""

from .compiler import (
    Constraint,
    ConstraintSystem,
    LinearExpr,
    Objective,
    UnitMixingError,
    build_objective,
    compile_statement,
    compile_syllogism,
    structural_constraints,
)
from .dsl import DslError, SyllogismDoc, conclusion_text, parse, print_doc
from .inference import (
    InfeasiblePremisesError,
    InferenceConfig,
    InferenceResult,
    infer,
)
from .optimizer import SolveOutcome, rewrite_strict, solve
from .quantifiers import (
    ABSOLUTE,
    COMPARATIVE_ABSOLUTE,
    COMPARATIVE_PROPORTIONAL,
    COUNT_FAMILIES,
    EXCEPTION,
    FAMILIES,
    LOGICAL_ALL,
    LOGICAL_FAMILIES,
    LOGICAL_NONE,
    LOGICAL_NOT_ALL,
    LOGICAL_SOME,
    NUMERIC_FAMILIES,
    PROPORTIONAL,
    RATIO_FAMILIES,
    SIMILARITY,
    Interval,
    KernelSupportPair,
    QuantifierSpec,
    RimQuantifier,
    Trapezoid,
    alpha_cut,
    as_fraction,
    bound_at_level,
    fit_trapezoid,
    interpolate_membership,
    kernel_of,
    support_of,
)
from .statements import COMPARED_FAMILIES, Conclusion, Statement, Syllogism
from .terms import (
    UNIVERSE,
    And,
    AtomSet,
    Not,
    Or,
    Prop,
    SizeGuardError,
    Universe,
    atoms_of,
)

__version__ = "0.1.0"

# the oracle needs numpy; load it only when one of its names is asked for
_ORACLE_NAMES = ("enumerate_range", "statement_predicate")


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__all__ = [
    "ABSOLUTE",
    "COMPARATIVE_ABSOLUTE",
    "COMPARATIVE_PROPORTIONAL",
    "COMPARED_FAMILIES",
    "COUNT_FAMILIES",
    "EXCEPTION",
    "FAMILIES",
    "LOGICAL_ALL",
    "LOGICAL_FAMILIES",
    "LOGICAL_NONE",
    "LOGICAL_NOT_ALL",
    "LOGICAL_SOME",
    "NUMERIC_FAMILIES",
    "PROPORTIONAL",
    "RATIO_FAMILIES",
    "SIMILARITY",
    "UNIVERSE",
    "And",
    "AtomSet",
    "Conclusion",
    "Constraint",
    "ConstraintSystem",
    "DslError",
    "InfeasiblePremisesError",
    "InferenceConfig",
    "InferenceResult",
    "Interval",
    "KernelSupportPair",
    "LinearExpr",
    "Not",
    "Objective",
    "Or",
    "Prop",
    "QuantifierSpec",
    "RimQuantifier",
    "SizeGuardError",
    "SolveOutcome",
    "Statement",
    "Syllogism",
    "SyllogismDoc",
    "Trapezoid",
    "UnitMixingError",
    "Universe",
    "alpha_cut",
    "as_fraction",
    "atoms_of",
    "bound_at_level",
    "build_objective",
    "compile_statement",
    "compile_syllogism",
    "enumerate_range",
    "fit_trapezoid",
    "infer",
    "interpolate_membership",
    "kernel_of",
    "conclusion_text",
    "parse",
    "print_doc",
    "rewrite_strict",
    "solve",
    "statement_predicate",
    "structural_constraints",
    "support_of",
    "__version__",
]
