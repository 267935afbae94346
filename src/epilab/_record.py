"""``@record``: frozen value types without the start-up cost of ``dataclasses``.

Like ``@dataclass(frozen=True)``: the annotated fields, with class-body
defaults, become ``__init__`` parameters; ``__post_init__`` runs last if
defined; equality (within one class) and the hash use the field values;
the repr is ``Name(field=value, ...)``; setting or deleting an attribute
raises AttributeError; an ``__eq__``, ``__hash__`` or ``__repr__`` the
class defines itself is kept.  Only ``__init__`` is compiled per class.
"""

from __future__ import annotations

from operator import attrgetter


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._key(self) == other._key(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(self._key(self))


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def record(cls):
    """Make `cls` a frozen value type over its annotated fields."""
    own = dict(cls.__dict__)
    cls._fields = fields = tuple(own.get("__annotations__", {}))
    cls._key = staticmethod(attrgetter(*fields) if fields else lambda self: ())
    params = [f"{f}=_defaults[{f!r}]" if f in own else f for f in fields]
    body = [f"_set(self, {f!r}, {f})" for f in fields]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    namespace = {"_set": object.__setattr__, "_defaults": own}
    exec(f"def __init__(self, {', '.join(params)}):\n {'; '.join(body) or 'pass'}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    if "__eq__" not in own:
        cls.__eq__ = _eq
    if own.get("__hash__") is None:
        cls.__hash__ = _hash
    if "__repr__" not in own:
        cls.__repr__ = _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
