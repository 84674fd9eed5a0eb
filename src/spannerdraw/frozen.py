"""The base of the package's immutable value types.

A subclass names its fields in _fields, and lists them in __slots__ with any
slot it caches a derived value in. Its __init__ sets each field once through
object.__setattr__; after that, assigning or deleting an attribute raises
AttributeError. Two values are equal when they are of one class and their
fields are equal, and equal values hash alike. copy, deepcopy and pickle
rebuild a value through __init__ from its fields.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign a {type(value).__name__} to {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
