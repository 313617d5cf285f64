"""Bases for the value and report classes of the read path.

They give these classes what ``dataclasses`` would generate, without
loading it (and with it ``inspect``, ``ast`` and ``dis``) on every start:
equality with an instance of the same class whose field tuple is equal and
a repr that names each field; for frozen classes also a hash over the field
tuple, an ``AttributeError`` on assignment, and copies and pickles rebuilt
through ``__init__``. Each class names its fields in ``_fields`` and writes
its own ``__init__``; a frozen one sets them with ``set_field``.
"""

#: Sets a field of a frozen instance, in its ``__init__``.
set_field = object.__setattr__


class Record:
    """Fields that compare and print as a dataclass's; unhashable, as a
    mutable dataclass is."""

    __slots__ = ()
    _fields = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose fields are set once, in ``__init__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple()
