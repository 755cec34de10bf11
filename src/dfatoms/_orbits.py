"""The orbit route: atom complexities counted on count vectors.

The permutation letters generate G, the product of the full symmetric
groups on its state orbits and not trivial, as ``atoms._symmetric_orbits``
proves.  G names a set T of states by its *vector*, its counts per state
orbit O, and the G-orbit of a disjoint pair (X, Y), of Π C(|O|, x)
C(|O| - x, y) pairs, by its counts (x_O, y_O).  No set of states is listed
but the reported columns.  Three arguments make counting on vectors exact.

- C, the set of column vectors, names the columns: the column closure maps
  T to a^-1(T) per letter a, so the columns are closed under G, all of whose
  elements are products of permutation letters (an inverse is a power), and
  G moves T onto every set of its vector.  Under another letter, c's
  preimage vectors spread each c_P over the targets in orbit P, grouped by
  their fibres' counts per orbit; C is the finals' vector closed under them.
- An orbit's free states go all alike.  Some column of vector c is
  compatible with (X, Y), X inside it and Y outside, exactly when
  x_O <= c_O <= |O| - y_O for every O.  A free state of O is in every compatible column
  exactly when all such c have c_O = |O| - y_O, and in none when all have
  c_O = x_O (``rule``).  Keys commute with G, so an atom reaches whole
  orbits of keys, each of one complexity, and its complexity is the size of
  the orbits it reaches, the empty quotient None counted once.
- A letter l that is not a permutation splits each state orbit into
  *cells*: one per fibre of two or more states, and one per orbit that
  singleton fibres lead into.  Pairs with the same counts per cell differ by
  a p in G within cells, and l p = s l on them for some s in G, so their
  images' keys share an orbit: one spread per way gives every successor.  A
  shared fibre's target is an X or a Y state when some X or Y state is in
  it; both collide.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from math import comb, prod
from operator import add, le

from .atoms import _reached


@functools.lru_cache(maxsize=1 << 14)  # shared by every counter of the process
def _sums(x: int, y: int, cells: tuple) -> tuple:
    """Every sum of i * ux + j * uy over the (size, ux, uy) of ``cells``
    when x X-states and y Y-states go into them, i and j into a cell."""
    *first, (size, ux, uy) = cells
    sums = {(x, y, 0)}  # the X- and Y-states left, and the sum so far
    for size_, ux_, uy_ in first:
        sums = {(a - i, b - j, s + i * ux_ + j * uy_) for a, b, s in sums
                for i in range(min(a, size_) + 1) for j in range(min(b, size_ - i) + 1)}
    return tuple({s + a * ux + b * uy for a, b, s in sums if a + b <= size})


class _OrbitCounter:
    """The orbit route: ``_QuotientEngine``'s counts, on count vectors.

    Counts are bytes, so fewer than 256 states: ``vectors`` holds C, and a
    pair orbit is x_O per orbit, then y_O.  Per letter that is not a
    permutation, ``letters`` holds its cells per orbit, (size, X unit, Y
    unit), and the bit offsets of its shared fibres' own counts and of their
    targets' orbits' counts.  ``rule`` and ``count`` are memoized, with each
    key orbit's size in ``weights`` and its successors in ``successors``.
    Only ``complexities`` lists sets of states: the columns, once each.
    """

    def __init__(self, dfa, orbits: list[int]):
        n, k = self.n, self.k = dfa.state_count, len(orbits)
        self.full, self.orbits = (1 << n) - 1, orbits
        self.sizes = [o.bit_count() for o in orbits]
        orbit_of = [next(i for i, o in enumerate(orbits) if o >> q & 1) for q in range(n)]
        self.letters, groups = [], []
        for image in {i for i in (dfa.delta[a].image for a in dfa.alphabet) if len(set(i)) < n}:
            sources = Counter(image)  # per target, its fibre's size
            fibres, cells = [0] * n, [Counter() for _ in orbits]
            for q, r in enumerate(image):
                fibres[r - 1] += 1 << 8 * orbit_of[q]  # the fibre's counts per orbit
                # q counts in its shared fibre's two bytes, or in those of its image's orbit.
                bit = 16 * (k + r) if sources[r] > 1 else 8 * orbit_of[r - 1]
                cells[orbit_of[q]][1 << bit, 1 << bit + (8 if sources[r] > 1 else 8 * k)] += 1
            # Per target orbit, its targets grouped by their fibres' counts.
            groups.append([tuple((m, f, 0) for f, m in Counter(
                f for r, f in enumerate(fibres) if orbit_of[r] == t).items()) for t in range(k)])
            shared = [(16 * (k + r), 8 * orbit_of[r - 1]) for r in sources if sources[r] > 1]
            self.letters.append(([tuple((m, *u) for u, m in c.items()) for c in cells], shared))
        finals = sum(1 << 8 * orbit_of[q - 1] for q in dfa.finals)
        self.vectors = [v.to_bytes(k, "little") for v in _reached(finals, lambda v, _: {
            sum(parts) for group in groups
            for parts in itertools.product(*map(_sums, v.to_bytes(k, "little"), [0] * k, group))
        }, {})]
        self.weights, self.successors = {None: 1}, {}
        self.rule = functools.cache(self._rule)
        self.count = functools.cache(lambda start: sum(
            map(self.weights.__getitem__, _reached(start, self._step, self.successors))))

    def _rule(self, pair: bytes) -> bytes | None:
        """The key orbit of the pairs counted by ``pair``, with its size in
        ``weights``, or None: no column is compatible with them."""
        sizes, xs, ys = self.sizes, pair[:self.k], pair[self.k:]
        fits = [c for c in self.vectors
                if all(map(le, xs, c)) and all(map(le, map(add, c, ys), sizes))]
        if not fits:
            return None
        per = list(zip(*fits))  # per orbit, the counts of the compatible vectors
        xs = [s - y if min(cs) + y == s else x for x, y, s, cs in zip(xs, ys, sizes, per)]
        ys = [s - x if max(cs) == x else y for x, y, s, cs in zip(xs, ys, sizes, per)]
        key = bytes(xs + ys)
        self.weights[key] = prod(comb(s, x) * comb(s - x, y) for s, x, y in zip(sizes, xs, ys))
        return key

    def key(self, x: int, y: int) -> bytes | None:
        """The key orbit of the disjoint pair state (x, y)."""
        return self.rule(bytes((m & o).bit_count() for m in (x, y) for o in self.orbits))

    def _step(self, orbit: bytes | None, _) -> set:
        """The orbits the letters that are not permutations lead ``orbit``
        into; the empty quotient None leads nowhere new."""
        found, k = set(), self.k
        for cells, shared in self.letters if orbit is not None else ():
            for parts in itertools.product(*map(_sums, orbit[:k], orbit[k:], cells)):
                image = sum(parts)
                for f, t in shared:
                    x, y = image >> f & 255, image >> f + 8 & 255
                    if x and y:
                        found.add(None)
                        break
                    image += (x > 0) << t | (y > 0) << t + 8 * k
                else:
                    found.add(self.rule((image & (1 << 16 * k) - 1).to_bytes(2 * k, "little")))
        return found

    def complexity(self, basis_mask: int) -> int:
        """Number of distinct quotients of the atom, or 0 if it is empty."""
        start = self.key(basis_mask, self.full ^ basis_mask)
        return 0 if start is None else self.count(start)

    def complexities(self) -> dict[int, int]:
        """The complexity of every atom, keyed by its column mask: each c in C
        counts its start orbit (c, |O| - c) once, for all the sets it names."""
        states = [[1 << q for q in range(self.n) if o >> q & 1] for o in self.orbits]
        found = {}
        for c in self.vectors:
            count = self.count(self.rule(c + bytes(map(int.__sub__, self.sizes, c))))
            found |= dict.fromkeys(map(sum, itertools.product(
                *(map(sum, itertools.combinations(s, k)) for s, k in zip(states, c)))), count)
        return found
