"""Frozen value classes: one decorator in place of ``@dataclass(frozen=True)``.

``@record`` reads a class's annotated fields and their defaults and compiles
one ``__init__`` per class, the code ``@dataclass`` writes: the arguments
stored in field order, then ``__post_init__`` if the class has one.  The
other methods are shared by every record, and a class's own are kept:
``__eq__`` is typed (``Beamsplitter(0, 1) != SwapModes(0, 1)``),
``__repr__`` reads ``Name(field=value, ...)``, assignment and deletion
raise ``AttributeError``, and ``__hash__`` is ``@dataclass``'s, the hash of
the fields tuple, worked out on first use and kept on the instance.
Pickling and copying rebuild a record from its fields alone, so neither the
kept hash (a ``str``'s differs per process) nor a per-object memo's value
travels.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["record"]

_set = object.__setattr__


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self is other or self._values(self) == other._values(other)


def _repr(self) -> str:
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
    return f"{self.__class__.__qualname__}({fields})"


def _frozen(self, name, value=None):
    raise AttributeError(f"{self.__class__.__name__} is frozen: cannot set or delete {name!r}")


def _kept_hash(self) -> int:
    try:
        return self._hash
    except AttributeError:
        value = hash(self._values(self))
        _set(self, "_hash", value)
        return value


def _reduce(self):
    return self.__class__, self._values(self)


_SHARED = {"__eq__": _eq, "__repr__": _repr, "__setattr__": _frozen,
           "__delattr__": _frozen, "__hash__": _kept_hash, "__reduce__": _reduce}


def record(cls: type) -> type:
    """Make ``cls`` a frozen record of its annotated fields, in order."""
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    params = ", ".join(f"{name}=_cls.{name}" if name in cls.__dict__ else name for name in fields)
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    namespace = {"_set": _set, "_cls": cls}
    exec(f"def __init__(self, {params}):{body or ' pass'}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls._fields = fields
    if len(fields) == 1:
        get = attrgetter(fields[0])
        cls._values = staticmethod(lambda r: (get(r),))
    else:  # attrgetter of two or more names gives a tuple
        cls._values = staticmethod(attrgetter(*fields) if fields else lambda r: ())
    for name, method in _SHARED.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
