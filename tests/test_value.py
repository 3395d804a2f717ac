"""The value classes behave as the data classes they replace.

Each of the package's twenty value classes takes its fields positionally or
by keyword, fills its defaults, compares by value within its own class,
hashes its field tuple when frozen, refuses assignment when frozen, and
prints ``Name(field=value, ...)``; error messages embed that text.
"""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import sylq
from sylq._value import fields
from sylq.compiler import ConstraintSystem, Skeleton
from sylq.dsl import SyllogismDoc
from sylq.inference import InferenceConfig, InferenceResult
from sylq.optimizer import SolveOutcome
from sylq.quantifiers import (
    Interval,
    KernelSupportPair,
    QuantifierSpec,
    RimQuantifier,
    Trapezoid,
)
from sylq.simplex import LpSolution
from sylq.statements import Conclusion, Statement, Syllogism
from sylq.terms import UNIVERSE, And, Not, Or, Prop, Universe

F = Fraction
P, Q = Prop("p"), Prop("q")
SPEC = QuantifierSpec("absolute", Interval(F(2)))
STATEMENT = Statement(SPEC, P, Q)
CONCLUSION = Conclusion("absolute", P, Q)
OUTCOME = SolveOutcome("bounded", F(1), F(2))
READING = ((1, 1, None, None),)  # one premise cut at [1, inf), as bound_ints gives it
SKELETON = Skeleton(((0,), (1,)), (), (), (1, 0))

# class -> (field values, values that differ in one field or None)
CASES = {
    Prop: (("p",), ("q",)),
    Not: ((P,), (Q,)),
    And: ((P, Q), (Q, P)),
    Or: ((P, Q), (Q, P)),
    Universe: ((), None),
    Interval: ((F(1), F(2)), (F(1), None)),
    Trapezoid: ((F(0), F(1), F(2), F(3)), (F(0), F(1), F(2), F(4))),
    KernelSupportPair: ((Interval(1, 2), Interval(0, 3)), (Interval(1, 2), Interval(0))),
    RimQuantifier: ((F(2),), (F(3),)),
    QuantifierSpec: (("logical-all", None), ("logical-some", None)),
    Statement: ((SPEC, P, Q), (SPEC, Q, P)),
    Conclusion: (("absolute", P, Q), ("proportional", P, Q)),
    Syllogism: ((("p", "q"), (STATEMENT,), CONCLUSION, None), (("p", "q"), (), CONCLUSION, None)),
    Skeleton: ((((0,), (1,)), (), (), (1, 0)), (((0,), (1,)), (), (), (0, 1))),
    ConstraintSystem: ((4, [((1, 0, 1), 1, ">=")], SKELETON), (4, [], SKELETON)),
    SolveOutcome: (("bounded", F(1), F(2), 3), ("bounded", F(1), F(3), 3)),
    LpSolution: (("optimal", F(1), [F(0)], 3), ("optimal", F(2), [F(0)], 3)),
    InferenceConfig: ((5,), (7,)),
    InferenceResult: (
        ("crisp", [(F(0), Interval(1))], [OUTCOME], [READING], F(1), "count", F(1), None, []),
        ("crisp", [(F(0), Interval(2))], [OUTCOME], [READING], F(1), "count", F(1), None, []),
    ),
    SyllogismDoc: (
        (("p", "q"), (STATEMENT,), CONCLUSION, None, {"levels": 5}),
        (("p", "q"), (STATEMENT,), CONCLUSION, F(10), {"levels": 5}),
    ),
}
MUTABLE = {LpSolution, InferenceResult}
# class -> defaults of its trailing fields; a list or dict is made per instance
DEFAULTS = {
    Interval: {"hi": None},
    QuantifierSpec: {"shape": None},
    Syllogism: {"universe_size": None},
    SolveOutcome: {"pivots": 0},
    LpSolution: {"value": None, "point": None, "pivots": 0},
    InferenceConfig: {"levels": 11},
    InferenceResult: {"fitted": None, "warnings": []},
    SyllogismDoc: {"universe_size": None, "options": {}},
}


def value_classes():
    modules = [
        importlib.import_module("sylq." + info.name) for info in pkgutil.iter_modules(sylq.__path__)
    ]
    return {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and "__value_fields__" in vars(obj)
    }


def test_every_value_class_is_covered():
    assert len(CASES) == 20
    assert value_classes() == set(CASES)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    args, other = CASES[cls]
    names = fields(cls)
    assert len(names) == len(args)
    a, b = cls(*args), cls(**dict(zip(names, args)))
    assert tuple(getattr(a, name) for name in names) == args
    assert a == b and not a != b and a is not b
    assert a.__eq__(object()) is NotImplemented and a != None  # noqa: E711
    if other is not None:
        assert a != cls(*other)
    if cls in MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, names[0], "changed")
        assert getattr(a, names[0]) == "changed" and a != b
        return
    try:
        want = hash(args)
    except TypeError:  # a list or dict field, as in ConstraintSystem
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == want
    for name in names or ("anything",):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(a, name)
    assert a == b


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda cls: cls.__name__)
def test_defaults_and_factories(cls):
    args, _ = CASES[cls]
    defaults = DEFAULTS[cls]
    required = args[: len(args) - len(defaults)]
    a, b = cls(*required), cls(*required)
    for name, default in defaults.items():
        assert getattr(a, name) == default
        if isinstance(default, (list, dict)):
            assert getattr(a, name) is not getattr(b, name)
            assert not hasattr(cls, name)
        else:
            assert getattr(cls, name) == default


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_written_constructors_take_the_fields(cls):
    assert "__init__" in vars(cls) or not fields(cls)  # value writes no constructor
    params = list(inspect.signature(cls).parameters.values())
    assert tuple(p.name for p in params) == fields(cls)
    defaults = DEFAULTS.get(cls, {})
    for p in params:
        assert p.kind is p.POSITIONAL_OR_KEYWORD
        if p.name not in defaults:
            want = p.empty
        elif isinstance(defaults[p.name], (list, dict)):
            want = None  # the constructor builds a fresh one per instance
        else:
            want = getattr(cls, p.name)
        assert p.default == want


def test_constructor_argument_errors():
    for call in (
        lambda: Statement(SPEC, P, Q, P),
        lambda: Statement(SPEC, P, Q, colour="red"),
        lambda: Statement(SPEC, P, restriction=Q, scope=Q),
        lambda: Statement(SPEC, P),
        lambda: Interval(),
        lambda: Interval(1, 2, 3),
    ):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ValueError, match="unknown quantifier family"):
        QuantifierSpec("bogus")


def test_classes_with_equal_fields_are_not_equal():
    assert And(P, Q) != Or(P, Q)
    assert And(P, Q).__eq__(Or(P, Q)) is NotImplemented
    assert Interval(1, 2) != (F(1), F(2))
    assert UNIVERSE == Universe() and hash(UNIVERSE) == hash(())


def test_cached_properties_leave_value_semantics_alone():
    syl = Syllogism(("p", "q"), (STATEMENT,), CONCLUSION)
    fresh = Syllogism(("p", "q"), (STATEMENT,), CONCLUSION)
    assert syl.term_sets is syl.term_sets
    assert "term_sets" in vars(syl)
    assert syl == fresh and hash(syl) == hash(fresh)
    assert repr(syl) == repr(fresh)


def test_repr_text_is_pinned():
    assert repr(P) == "Prop(name='p')"
    assert repr(Or(And(P, Not(Q)), UNIVERSE)) == (
        "Or(left=And(left=Prop(name='p'), right=Not(arg=Prop(name='q'))), right=Universe())"
    )
    assert repr(Interval(F(1, 3))) == "Interval(lo=Fraction(1, 3), hi=None)"
    assert repr(Trapezoid(0, 0.25, "1/2", 1)) == (
        "Trapezoid(a=Fraction(0, 1), b=Fraction(1, 4), c=Fraction(1, 2), d=Fraction(1, 1))"
    )
    assert repr(QuantifierSpec("proportional", Interval("0.7", 1))) == (
        "QuantifierSpec(family='proportional', shape=Interval(lo=Fraction(7, 10), "
        "hi=Fraction(1, 1)))"
    )
    assert repr(RimQuantifier(2)) == "RimQuantifier(exponent=Fraction(2, 1))"
    assert repr(OUTCOME) == (
        "SolveOutcome(status='bounded', lo=Fraction(1, 1), hi=Fraction(2, 1), pivots=0)"
    )
    assert repr(InferenceConfig()) == "InferenceConfig(levels=11)"
