"""The one base of the package's immutable records."""

from __future__ import annotations

from operator import itemgetter


class Record(tuple):
    """A tuple with named fields, declared as ``class X(Record, fields="a b", defaults=())``.

    A record with no ``__new__`` of its own is built positionally, the trailing
    ``defaults`` filling the fields left out.  One whose ``__new__`` checks its fields,
    and sets ``_inputs`` to the number it takes when it derives the rest, is rebuilt
    through that ``__new__`` by copy, pickle and ``_replace``: every check runs again,
    the derived fields follow, and ``_replace`` of a derived field is a ValueError.
    """

    __slots__ = ()
    _inputs = None

    def __init_subclass__(cls, fields: str, defaults: tuple = ()):
        cls._fields, cls._defaults = tuple(fields.split()), defaults
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *values):
        missing = len(cls._fields) - len(values)
        if missing:
            if not 0 < missing <= len(cls._defaults):
                raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, "
                                f"got {len(values)}")
            values += cls._defaults[-missing:]
        return tuple.__new__(cls, values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __getnewargs__(self) -> tuple:
        return tuple(self)[:self._inputs]

    def _replace(self, **changes):
        args = self.__getnewargs__()
        values = [changes.pop(name, value) for name, value in zip(self._fields, args)]
        if changes:
            raise ValueError(f"Got unexpected field names: {sorted(changes)!r}")
        return type(self)(*values)
