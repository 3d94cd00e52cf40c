"""Immutable records without generated code.

A record class lists its fields in ``__slots__``.  Nothing is compiled
when a record class is defined, which keeps ``import saddlepoint.cli``
short.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Frozen value over the fields named in the subclass's ``__slots__``.

    The fields are given by position, in ``__slots__`` order, or by
    keyword.  A subclass writes its own ``__init__``, setting each field
    with ``object.__setattr__``, only when it has defaults or checks.
    Two records are equal, and hash alike, when they are of the same
    class and their fields are equal; the repr reads
    ``Name(field=value, ...)``.  Assigning or deleting a field raises
    ``AttributeError``.  Copying and pickling call the constructor with
    the fields in ``__slots__`` order.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        fields = self.__slots__
        if len(values) > len(fields):
            raise TypeError(f"{self.__class__.__name__} takes {len(fields)} "
                            f"fields, not {len(values)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        for name in fields[len(values):]:
            if name not in named:
                raise TypeError(
                    f"{self.__class__.__name__} needs the field {name!r}")
            object.__setattr__(self, name, named.pop(name))
        if named:
            raise TypeError(f"{self.__class__.__name__} got unknown or repeated "
                            f"fields {sorted(named)}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()
