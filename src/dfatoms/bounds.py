"""Closed-form maxima for atom counts and atom complexities per language class.

All values are exact integers computed with binomial sums.  A cell is None
(rendered as an asterisk) when no language in the class has an atom whose
basis has the given size.
"""

from __future__ import annotations

from math import comb

from ._values import _Frozen, _bad_ids, _basis_members
from .errors import InvalidBasisError
from .witnesses import _FIXED, WitnessClass

TABLE_N_LIMIT = 12


def _check(n: int, size: int) -> None:
    if n < 1:
        raise ValueError("complexity n must be at least 1")
    if not 0 <= size <= n:
        raise ValueError(f"basis size {size} not in 0..{n}")


def max_atom_count(kind: WitnessClass, n: int) -> int:
    """Largest possible number of atoms for a language of complexity n:
    every basis that holds the fixed sink and avoids the fixed initial state,
    plus the basis Q when the initial state is fixed."""
    _check(n, 0)
    if n == 1:
        return 1
    sink, init = _FIXED[kind]
    return (1 << (n - sink - init)) + init


def atom_complexity_bound(kind: WitnessClass, n: int, size: int) -> int | None:
    """Maximal complexity of an atom with a basis of the given size, or None
    when the class admits no such atom.

    State 1 is initial.  A proper size s gets 1 plus the number of disjoint
    nonempty (X, Y) with |X| <= s and |Y| <= n - s, where X holds the
    accepting sink and Y the initial state whenever the class fixes them:
    1 + sum_{x=1..s} sum_{y=1..n-s} C(n-sink-init, x-sink) * C(n-x-init, y-init).
    """
    _check(n, size)
    sink, init = _FIXED[kind]
    # An empty or full basis counts the nonempty Y, or X, that hold the fixed state.
    if size == 0:
        return None if sink else (1 << (n - init)) - 1 + init
    if size == n:
        return n if init else (1 << (n - sink)) - 1 + sink
    if sink and init and size == n - 1:
        return (1 << (n - 2)) + n - 1
    # The inner sum over y is a partial row sum P(m, k) = sum_{j<=k} C(m, j)
    # with m = n-x-init and k = n-size-init, less C(m, 0) unless init.  Going
    # from x = size down to 1, m rises from k, where P(k, k) = 2^k, and
    # P(m+1, k) = 2 P(m, k) - C(m, k), so each size costs O(n) big-int steps.
    free = n - sink - init
    k = n - size - init
    pick = comb(free, size - sink)  # C(free, x - sink)
    partial, top = 1 << k, 1  # P(m, k) and C(m, k)
    total = 1
    for x in range(size, 0, -1):
        m = n - x - init
        total += pick * (partial - 1 + init)
        partial, top = 2 * partial - top, top * (m + 1) // (m + 1 - k)
        pick = pick * (x - sink) // (free - x + sink + 1)
    return total


def bound_for_basis(
    kind: WitnessClass, n: int, basis: frozenset[int] | set[int], *,
    sink: int | None = None,
) -> int | None:
    """Complexity bound for one concrete basis, or None when the class rules
    out an atom with that basis.

    Right and two-sided ideals require the accepting sink in the basis; left
    and two-sided ideals require the initial state, state 1, absent unless
    the basis is the full state set.  ``sink`` defaults to state n.  Any
    other basis gets ``atom_complexity_bound`` for its size.  A basis id or
    ``sink`` that is not a state in 1..n raises ``InvalidBasisError``.
    """
    _check(n, 0)
    basis = _basis_members(n, basis)
    if sink is not None and _bad_ids(n, [sink]):
        raise InvalidBasisError(f"sink {sink!r} not within 1..{n}")
    size = len(basis)
    has_sink, has_init = _FIXED[kind]
    if has_sink and (n if sink is None else sink) not in basis:
        return None
    if has_init and 1 in basis and size != n:
        return None
    return atom_complexity_bound(kind, n, size)


class BoundsTable(_Frozen):
    """Per-size bounds for one class and complexity, plus the max and the
    growth ratio against the previous complexity: ``rows[s]`` is the bound
    for basis size s (None where undefined), and ``ratio`` is None at n = 1."""

    __slots__ = ("kind", "n", "rows", "max_value", "ratio")


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
