"""``@record``: frozen value types without the start-up cost of ``dataclasses``.

Like ``@dataclass(frozen=True)``: the annotated fields, with class-body
defaults, become ``__init__`` parameters; ``__post_init__`` runs last if
defined; equality (within one class) and the hash use the field values;
the repr is ``Name(field=value, ...)``; setting or deleting an attribute
raises AttributeError; an ``__eq__``, ``__hash__`` or ``__repr__`` the
class defines itself is kept.  No code is generated per class: every
record shares one ``__init__``.  It sets the fields straight from exactly
one positional argument each, and binds any other call (keywords,
defaults) by hand, with the TypeErrors a Python signature would raise.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _bind(cls, args: tuple, kwargs: dict) -> list:
    fields, name = cls._fields, cls.__qualname__
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                        f"but {len(args)} were given")
    for field in fields[:len(args)]:
        if field in kwargs:
            raise TypeError(f"{name}() got multiple values for argument {field!r}")
    values = list(args)
    for field in fields[len(args):]:
        if field in kwargs:
            values.append(kwargs.pop(field))
        elif field in cls._defaults:
            values.append(cls._defaults[field])
        else:
            raise TypeError(f"{name}() missing required argument {field!r}")
    if kwargs:
        raise TypeError(f"{name}() got an unexpected keyword argument {next(iter(kwargs))!r}")
    return values


def _init(self, *args, **kwargs) -> None:
    fields = self._fields
    if kwargs or len(args) != len(fields):
        args = _bind(type(self), args, kwargs)
    for field, value in zip(fields, args):
        _set(self, field, value)
    if self._has_post_init:
        self.__post_init__()


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
    cls._defaults = {f: own[f] for f in fields if f in own}
    cls._has_post_init = hasattr(cls, "__post_init__")
    cls._key = staticmethod(attrgetter(*fields) if fields else lambda self: ())
    cls.__init__ = _init
    if "__eq__" not in own:
        cls.__eq__ = _eq
    if own.get("__hash__") is None:
        cls.__hash__ = _hash
    if "__repr__" not in own:
        cls.__repr__ = _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
