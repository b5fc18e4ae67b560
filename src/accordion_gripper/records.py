"""The one base of the package's immutable records."""

from __future__ import annotations

from operator import itemgetter


class Record(tuple):
    """A tuple with named fields, declared as ``class X(Record, fields="a b")``.

    A record with no ``__new__`` of its own is built from exactly its fields.  One whose
    ``__new__`` checks its fields, and sets ``_inputs`` to the number it takes when it
    derives the rest, is rebuilt through that ``__new__`` by ``__reduce__``, so by copy,
    pickle at every protocol and ``_replace``: every check runs again, the derived
    fields follow, and ``_replace`` of a derived field is a ValueError.
    """

    __slots__ = ()
    _inputs = None

    def __init_subclass__(cls, fields: str):
        cls._fields = tuple(fields.split())
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *values):
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(values)}")
        return tuple.__new__(cls, values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)[:self._inputs]

    def _replace(self, **changes):
        cls, args = self.__reduce__()
        values = [changes.pop(name, value) for name, value in zip(self._fields, args)]
        if changes:
            raise ValueError(f"Got unexpected field names: {sorted(changes)!r}")
        return cls(*values)
