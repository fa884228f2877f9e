"""The shared base of the package's record classes.

The value types (matchings, homology classes, permutations and the small
reports built from them) are plain ``__slots__`` classes on one base.  A
record names its fields in ``_fields``, lists them in ``__slots__`` and
writes its own ``__init__``; the base supplies what a field tuple decides:

- ``==`` compares the field tuples of two instances of the same class;
  against any other class it returns ``NotImplemented``;
- ``frozen=True`` makes assignment and deletion raise ``AttributeError``
  and hashes the field tuple, ``hash((f1, f2, ...))``; a mutable record is
  unhashable;
- ``order=True`` orders instances of one class by their field tuples;
- ``repr`` is ``Name(f1=..., f2=...)``;
- copying and pickling rebuild an instance through its ``__init__``.

A frozen record's ``__setattr__`` refuses, so its ``__init__`` stores
each slot through ``self._setters``, the slots' own ``__set__`` methods in
``__slots__`` order (cheaper per field than ``object.__setattr__``).  A
record that is a dict key on hot paths may store ``hash((f1, f2, ...))``
in one more slot at construction and return it from its own ``__hash__``;
a record with one field must, because its key is then the bare field
value (which compares and orders exactly as the one-element tuple, but
hashes differently).

The standard library's generated record classes behave the same way, but
importing their module (with ``inspect``, ``ast`` and ``tokenize``) and
generating each class's methods costs a small command a noticeable share
of its start-up; ``tests/test_startup.py`` keeps them off every import
path.
"""
from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, frozen: bool = False, order: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)
        if frozen:
            cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
            if "__hash__" not in cls.__dict__:
                cls.__hash__ = _field_hash
            cls.__setattr__ = _refuse_assignment
            cls.__delattr__ = _refuse_deletion
        if order:
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = _lt, _le, _gt, _ge

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _field_hash(self) -> int:
    return hash(self._key(self))


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _lt(self, other):
    if other.__class__ is self.__class__:
        return self._key(self) < other._key(other)
    return NotImplemented


def _le(self, other):
    if other.__class__ is self.__class__:
        return self._key(self) <= other._key(other)
    return NotImplemented


def _gt(self, other):
    if other.__class__ is self.__class__:
        return self._key(self) > other._key(other)
    return NotImplemented


def _ge(self, other):
    if other.__class__ is self.__class__:
        return self._key(self) >= other._key(other)
    return NotImplemented
