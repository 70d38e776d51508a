"""Base classes for planeprof's record types, cheap to define at import.

The immutable records are ``typing.NamedTuple`` classes: equal and hashing
by value, and defined with one generated ``__new__``, where a frozen
dataclass ``exec``s six generated methods on every import. :class:`Checked`
gives one a check that runs on every construction. The mutable records
derive from :class:`Struct`, which compares them by value as a dataclass
does.
"""

from __future__ import annotations


class Checked:
    """A NamedTuple mixin that runs ``_check`` on every construction.

    A NamedTuple body may not define ``__new__``, so the fields live in a
    NamedTuple base and the record is ``class Record(Checked, _Fields)``.
    ``_make`` and ``_replace`` construct through ``__new__`` too.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Struct:
    """Base of a mutable record whose fields are its ``__slots__``.

    Records of one type are equal when their fields are; they are not
    hashable, and their repr lists their fields, as for a dataclass.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
