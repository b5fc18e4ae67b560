"""The rule shared by the package's records whose constructors check their fields."""

from __future__ import annotations


class CheckedRecord:
    """Base of a namedtuple whose ``__new__`` checks its fields.

    A record whose ``__new__`` also derives its last fields sets ``_inputs`` to the
    number of fields it takes; by default every field is taken.  namedtuple's own
    ``_replace`` builds through ``_make``, which skips ``__new__``; here copy, pickle and
    ``_replace`` rebuild through ``__new__``, so every check runs again, the derived
    fields follow, and ``_replace`` of a derived field is a ValueError.
    """

    __slots__ = ()
    _inputs = None

    def __getnewargs__(self) -> tuple:
        return tuple(self)[:self._inputs]

    def _replace(self, **changes):
        unknown = changes.keys() - self._fields[:self._inputs]
        if unknown:
            raise ValueError(f"Got unexpected field names: {sorted(unknown)!r}")
        return type(self)(**dict(zip(self._fields, self.__getnewargs__()), **changes))
