"""Value classes without the standard library's data-class module.

Importing that module loads ``inspect`` (about 10 ms), and its decorator
execs generated source for every class (about 0.8 ms per frozen class), so
the twenty value classes of this package cost a one-shot ``sylq FILE`` about
25 ms of its start-up (Python 3.11, 2-CPU x86_64 host).

Each value class writes its own ``__init__``: it takes the fields in
declaration order, positionally or by keyword, with their defaults; a list
or dict field takes None and builds its value per instance.  It sets the
fields straight into the instance ``__dict__``, which also lets
``functools.cached_property`` work on these frozen classes.  ``value`` adds
the rest from the class's annotations:

* ``__eq__`` compares the field tuples of two instances of the same class
  and gives NotImplemented for any other class; ``__repr__`` reads
  ``Name(field=value, ...)``.
* ``__hash__`` hashes the field tuple, so an instance is hashable wherever
  its fields are; assigning or deleting an attribute raises.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["fields", "value"]


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


def value(cls):
    """Class decorator: give ``cls`` the comparison, hash, repr and refusal
    of assignment of a value class."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    key = _key(names)

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

    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    cls.__value_fields__ = names
    return cls
