"""Immutable value records: the base of every result type.

A record names its fields in ``__slots__`` and sets each one once, with
``object.__setattr__``, in an explicit ``__init__``.  The base gives it
value equality within its own class, a hash and a ``repr`` over the fields
in order, immutability and pickling, as frozen dataclasses would, without
importing ``dataclasses`` (and with it ``inspect``) at start-up.
"""


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()
