"""The shared base of the package's record classes.

The value types (matchings, homology classes, permutations and the small
reports built from them) are plain ``__slots__`` classes on one base.  A
record is declared by its fields: it names them in ``_fields`` and lists
them in ``__slots__``, and the base supplies what that field tuple
decides:

- a constructor ``_store(self, f1, ..., fk)``, compiled once per class as
  ``collections.namedtuple`` compiles its ``__new__``.  It stores each
  field in its slot: a frozen record's ``__setattr__`` refuses, so there
  through the slot's own ``__set__`` (cheaper per field than
  ``object.__setattr__``), else by plain assignment.  A record that lists
  one more slot, ``_hash``, also stores ``hash((f1, ..., fk))`` there;
  records that are dict keys on hot paths do, so their hash is computed
  once, and a frozen record with one field must, because its key is then
  the bare field value (which compares and orders exactly as the
  one-element tuple, but hashes differently);
- ``__init__``: a record that writes none gets ``_store``.  A record whose
  constructor computes something first (checks, a canonical form, fresh
  default lists, a slot that is not a field) writes its own ``__init__``
  and calls ``self._store(...)`` from it;
- ``==`` compares the field tuples of two instances of the same class;
  against any other class it returns ``NotImplemented``;
- ``frozen=True`` makes assignment and deletion raise ``AttributeError``
  and hashes the field tuple, ``hash((f1, f2, ...))``: the stored
  ``_hash`` if there is one, else computed per call.  A mutable record is
  unhashable;
- ``order=True`` orders instances of one class by their field tuples;
- ``repr`` is ``Name(f1=..., f2=...)``;
- copying and pickling rebuild an instance through its ``__init__``.

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
        cls._store = _constructor(cls, frozen)
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._store
        if frozen:
            if "__hash__" not in cls.__dict__:
                cls.__hash__ = _stored_hash if "_hash" in cls.__slots__ else _field_hash
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


def _constructor(cls, frozen: bool):
    """``__init__(self, f1, ..., fk)`` compiled for cls; its globals are the slots' setters."""
    fields = ", ".join(cls._fields)
    slots = cls._fields + ("_hash",) * ("_hash" in cls.__slots__)
    values = cls._fields + (f"hash(({fields},))",)  # what each slot stores
    store = " _set_{}(self, {})\n" if frozen else " self.{} = {}\n"
    namespace = {f"_set_{slot}": getattr(cls, slot).__set__ for slot in slots}
    exec(f"def __init__(self, {fields}):\n"
         + "".join(store.format(slot, value) for slot, value in zip(slots, values)), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # as a wrong call's TypeError names it
    return init


def _stored_hash(self) -> int:
    return self._hash


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
