"""The base class of the package's immutable value records."""

from __future__ import annotations


class Record:
    """Base of the package's immutable value records.

    A subclass names its fields, in constructor order, in `__slots__`, and
    its `__init__` sets them with `object.__setattr__`; afterwards every
    assignment and `del` raises AttributeError.  A record equals only a
    record of exactly its class with equal fields, hashes as its field
    tuple, prints as `Name(field=value, ...)`, and `copy` and `pickle`
    rebuild it through its constructor.  These are plain classes, not
    dataclasses, because importing `dataclasses` (and `inspect`, `ast`,
    `dis` and `tokenize` behind it) cost each CLI call about 15 ms.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
