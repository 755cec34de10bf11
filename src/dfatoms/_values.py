"""The immutable value base and the state-id checks every module shares.

States are the integers 1..n.  This module knows nothing about automata, so
a module that needs only value types or id checks, such as ``bounds``, does
not run ``dfa``.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

from .errors import InvalidBasisError


def _basis_members(n: int, basis: Iterable[int]) -> frozenset[int]:
    """The members of ``basis``; each must be an int state id in 1..n."""
    try:
        members = frozenset(basis)
    except TypeError as exc:
        raise InvalidBasisError(f"basis ids must be int state ids in 1..{n}: {exc}") from None
    bad = _bad_ids(n, members)
    if bad:
        raise InvalidBasisError(f"basis ids {bad} not within 1..{n}")
    return members


def _id_order(q) -> tuple:
    """Sort key for ids of any type: ints first, by value, then the rest by repr."""
    return (0, q, "") if isinstance(q, int) else (1, 0, repr(q))


def _is_int(value) -> bool:
    """Whether ``value`` is an int and not a bool, which Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _bad_ids(n: int, ids: Iterable) -> list:
    """The members of ``ids`` that are not int state ids in 1..n, ints first."""
    bad = [q for q in ids if not (_is_int(q) and 1 <= q <= n)]
    bad.sort(key=_id_order)
    return bad


class _Frozen:
    """Base of the immutable value types: slotted, compared and hashed by value.

    A subclass declares its fields once, in ``__slots__``.  The one constructor
    binds them positionally in that order, then by name; a missing, extra,
    unknown or repeated field raises ``TypeError``, and a subclass that coerces
    passes the coerced values.  After that, assignment and deletion raise
    ``AttributeError``.  Equality, hashing, ``repr`` and ``__reduce__`` (so
    ``copy`` and ``pickle``) read the fields through one ``attrgetter`` per
    class, and values of different classes are never equal.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        get = operator.attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # one name gives the bare value, not a 1-tuple
            get = lambda obj, one=get: (one(obj),)
        cls._values = staticmethod(get)

    def __init__(self, *values, **named) -> None:
        names = self.__slots__
        if named:
            values += tuple(named.pop(k) for k in names[len(values):] if k in named)
        if named or len(values) != len(names):
            raise TypeError(
                f"{type(self).__name__}() takes the fields ({', '.join(names)}); "
                f"{len(values)} bound, keyword(s) {sorted(named)} left over"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _immutable(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._values(self))
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self):
        return type(self), self._values(self)
