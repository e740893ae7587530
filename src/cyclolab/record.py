"""Immutable value records: the base of every result type.

A record names its fields once, in ``__slots__``.  A record that only
stores its fields gets a generated ``__init__`` taking them in slot order,
with defaults for trailing fields from the class's ``_defaults`` mapping;
it sets each field once with ``object.__setattr__``, as ``namedtuple``
builds its ``__new__``.  The four records that check or transform their
input (``BigFloat``, ``Factorization``, ``IntPoly`` and ``PpdResult``)
write their own ``__init__``, and a subclass with empty
``__slots__`` inherits its parent's.  The base gives each record value
equality within its own class, a hash and a ``repr`` over the fields in
order, immutability and pickling, as frozen dataclasses would, without
importing ``dataclasses`` (and with it ``inspect``) at start-up.
"""


class Record:
    __slots__ = ()
    _defaults: dict = {}  # field name -> default, for trailing fields only

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__dict__.get("__slots__", ())
        if names and "__init__" not in cls.__dict__:
            cls.__init__ = _build_init(cls.__qualname__, names, cls._defaults)

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


def _build_init(qualname: str, names: tuple, defaults: dict):
    # def __init__(self, a, b): _set(self, "a", a); _set(self, "b", b)
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{qualname}.__init__"
    # a KeyError here names a default given for a field that is not trailing
    init.__defaults__ = tuple(defaults[name] for name in names[len(names) - len(defaults):])
    return init
