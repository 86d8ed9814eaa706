"""Plain value records: the fields of a class body, with no generated code.

``@record`` reads a class's own annotations, in order, as its fields and
any class attribute of the same name as that field's default, and installs
one generic ``__init__`` (positional or keyword arguments, defaults, then
the class's ``__post_init__``), ``__eq__`` and ``__repr__`` over the
fields.  ``@record(frozen=True)`` also gives ``__hash__`` and refuses
assignment and deletion with FrozenRecordError; a ``__post_init__`` that
normalises a field writes it with ``object.__setattr__``.  A mutable
record is unhashable.  The field names stay on the class as ``_fields``.
"""

from __future__ import annotations


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, a field of a frozen record."""


def record(cls=None, *, frozen: bool = False):
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")
    qualname = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{qualname}() takes {len(names)} field arguments "
                            f"but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
            values[name] = value
        fields = self.__dict__
        for name in names:
            if name in values:
                fields[name] = values[name]
            elif name in defaults:
                fields[name] = defaults[name]
            else:
                raise TypeError(f"{qualname}() missing required argument {name!r}")
        if post_init is not None:
            post_init(self)

    def _values(self):
        return tuple([getattr(self, n) for n in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __repr__(self):
        return f"{qualname}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __hash__(self):
        return hash(_values(self))

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    cls._fields = names
    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__repr__ = __repr__
    if frozen:
        cls.__hash__ = __hash__
        cls.__setattr__ = __setattr__
        cls.__delattr__ = __delattr__
    else:
        cls.__hash__ = None
    return cls
