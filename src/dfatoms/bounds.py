"""Closed-form maxima for atom counts and atom complexities per language class.

All values are exact integers computed with binomial sums.  A cell is None
(rendered as an asterisk) when no language in the class has an atom whose
basis has the given size.
"""

from __future__ import annotations

from math import comb

from .dfa import _Frozen
from .witnesses import WitnessClass

TABLE_N_LIMIT = 12


def _check(n: int, size: int) -> None:
    if n < 1:
        raise ValueError("complexity n must be at least 1")
    if not 0 <= size <= n:
        raise ValueError(f"basis size {size} not in 0..{n}")


def max_atom_count(kind: WitnessClass, n: int) -> int:
    """Largest possible number of atoms for a language of complexity n."""
    if n < 1:
        raise ValueError("complexity n must be at least 1")
    if n == 1:
        return 1
    if kind is WitnessClass.REGULAR:
        return 1 << n
    if kind is WitnessClass.RIGHT_IDEAL:
        return 1 << (n - 1)
    if kind is WitnessClass.LEFT_IDEAL:
        return (1 << (n - 1)) + 1
    return (1 << (n - 2)) + 1


def _pair_sum(n: int, size: int, x_ways, y_ways) -> int:
    return sum(
        x_ways(n, x) * y_ways(n, x, y)
        for x in range(1, size + 1)
        for y in range(1, n - size + 1)
    )


def atom_complexity_bound(kind: WitnessClass, n: int, size: int) -> int | None:
    """Maximal complexity of an atom with a basis of the given size, or None
    when the class admits no such atom."""
    _check(n, size)
    if kind is WitnessClass.REGULAR:
        if size in (0, n):
            return (1 << n) - 1
        return 1 + _pair_sum(
            n, size, lambda n, x: comb(n, x), lambda n, x, y: comb(n - x, y)
        )
    if kind is WitnessClass.RIGHT_IDEAL:
        if size == 0:
            return None
        if size == n:
            return 1 << (n - 1)
        return 1 + _pair_sum(
            n, size, lambda n, x: comb(n - 1, x - 1), lambda n, x, y: comb(n - x, y)
        )
    if kind is WitnessClass.LEFT_IDEAL:
        if size == 0:
            return 1 << (n - 1)
        if size == n:
            return n
        return 1 + _pair_sum(
            n, size, lambda n, x: comb(n - 1, x), lambda n, x, y: comb(n - x - 1, y - 1)
        )
    # two-sided ideals
    if size == 0:
        return None
    if size == n:
        return n
    if size == n - 1:
        return (1 << (n - 2)) + n - 1
    return 1 + _pair_sum(
        n, size, lambda n, x: comb(n - 2, x - 1), lambda n, x, y: comb(n - x - 1, y - 1)
    )


def bound_for_basis(
    kind: WitnessClass, n: int, basis: frozenset[int] | set[int],
    initial: int = 1, sink: int | None = None,
) -> int | None:
    """Complexity bound for one concrete basis, or None when the class rules
    out an atom with that basis.

    Right and two-sided ideals require the accepting sink in the basis; left
    and two-sided ideals require the initial state absent unless the basis is
    the full state set.  ``sink`` defaults to state n.
    """
    basis = frozenset(basis)
    size = len(basis)
    _check(n, size)
    if sink is None:
        sink = n
    full = size == n
    if kind in (WitnessClass.RIGHT_IDEAL, WitnessClass.TWO_SIDED_IDEAL):
        if sink not in basis:
            return None
    if kind in (WitnessClass.LEFT_IDEAL, WitnessClass.TWO_SIDED_IDEAL):
        if initial in basis and not full:
            return None
    return atom_complexity_bound(kind, n, size)


class BoundsTable(_Frozen):
    """Per-size bounds for one class and complexity, plus the max and the
    growth ratio against the previous complexity."""

    __slots__ = ("kind", "n", "rows", "max_value", "ratio")

    def __init__(
        self, kind: WitnessClass, n: int, rows: tuple[int | None, ...],
        max_value: int, ratio: float | None,
    ) -> None:
        self._fill(kind, n, rows, max_value, ratio)


def build_table(kind: WitnessClass, n_max: int) -> tuple[BoundsTable, ...]:
    """Bounds tables for n = 1..n_max."""
    if not 1 <= n_max <= TABLE_N_LIMIT:
        raise ValueError(f"n_max must be in 1..{TABLE_N_LIMIT}")
    tables = []
    previous_max: int | None = None
    for n in range(1, n_max + 1):
        rows = tuple(atom_complexity_bound(kind, n, s) for s in range(n + 1))
        max_value = max(v for v in rows if v is not None)
        ratio = None if previous_max is None else max_value / previous_max
        tables.append(BoundsTable(kind, n, rows, max_value, ratio))
        previous_max = max_value
    return tuple(tables)


def symmetry_check(n: int) -> bool:
    """Whether the right-ideal bound at size s equals the left-ideal bound at
    size n-s for every proper size."""
    if n < 2:
        raise ValueError("symmetry check requires n >= 2")
    return all(
        atom_complexity_bound(WitnessClass.RIGHT_IDEAL, n, s)
        == atom_complexity_bound(WitnessClass.LEFT_IDEAL, n, n - s)
        for s in range(1, n)
    )
