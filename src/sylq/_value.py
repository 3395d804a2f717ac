"""Value classes without the standard library's data-class module.

Importing that module loads ``inspect`` (about 10 ms), and its decorator
execs generated source for every class (about 0.8 ms per frozen class), so
the twenty value classes of this package cost a one-shot ``sylq FILE`` about
25 ms of its start-up (Python 3.11, 2-CPU x86_64 host).  ``value`` builds
the same methods from a class's annotations and defaults with closures
instead:

* ``__init__`` takes the fields positionally or by keyword, fills defaults
  (``factory(f)`` calls ``f()`` per instance), then runs ``__post_init__``
  when the class has one.  A class that defines its own ``__init__`` keeps
  it: the classes built per statement, term or solve write theirs out,
  since the generated one is slower, most of all for keyword calls.
* ``__eq__`` compares the field tuples of two instances of the same class
  and gives NotImplemented for any other class; ``__repr__`` reads
  ``Name(field=value, ...)``.
* A frozen class hashes its field tuple and refuses assignment; a mutable
  one is unhashable.

A frozen class's own ``__init__`` or ``__post_init__`` sets fields with
``object.__setattr__`` or straight into the instance ``__dict__``, which
also lets ``functools.cached_property`` work on frozen classes.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["factory", "fields", "value"]

_MISSING = object()


class factory:
    """A field default made per instance: ``warnings: list = factory(list)``."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        self.make = make


def fields(cls) -> tuple:
    """The field names of a value class, in declaration order."""
    return cls.__value_fields__


def _key(names: tuple):
    """A function from an instance to the tuple of its field values."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda obj: (get(obj),)
    return lambda obj: ()


def value(cls=None, *, frozen: bool = True):
    """Class decorator: give ``cls`` the methods of a value class.

    Methods the class body defines itself are kept.
    """
    if cls is None:
        return lambda cls: value(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    # per field, its default or _MISSING
    defaults = tuple(cls.__dict__.get(name, _MISSING) for name in names)
    index = {name: i for i, name in enumerate(names)}
    for name, default in zip(names, defaults):
        if isinstance(default, factory):
            delattr(cls, name)
    key = _key(names)
    post_init = hasattr(cls, "__post_init__")
    title = cls.__qualname__

    def bind(args: tuple, kwargs: dict) -> list:
        """The field values of a call, in field order."""
        if len(args) > len(names):
            raise TypeError(
                "%s() takes %d positional arguments but %d were given"
                % (title, len(names), len(args))
            )
        values = [*args, *defaults[len(args):]]
        for name, arg in kwargs.items():
            i = index.get(name)
            if i is None:
                raise TypeError("%s() got an unexpected keyword argument %r" % (title, name))
            if i < len(args):
                raise TypeError("%s() got multiple values for argument %r" % (title, name))
            values[i] = arg
        for i, arg in enumerate(values):
            if arg is _MISSING:
                raise TypeError("%s() missing required argument %r" % (title, names[i]))
            if isinstance(arg, factory):
                values[i] = arg.make()
        return values

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, arg in zip(names, args):
            object.__setattr__(self, name, arg)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(key(self))

    def __repr__(self) -> str:
        pairs = zip(names, key(self))
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join("%s=%r" % p for p in pairs))

    def __setattr__(self, name, _) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name) -> None:
        raise AttributeError("cannot delete field %r" % name)

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__}
    if frozen:
        methods.update(__hash__=__hash__, __setattr__=__setattr__, __delattr__=__delattr__)
    else:
        methods["__hash__"] = None
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls.__value_fields__ = names
    return cls
