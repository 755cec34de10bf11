"""The orbit route: atom complexities counted over orbits of quotient keys.

Let G be the group the permutation letters of a DFA generate.  When G is the
product of the full symmetric groups on its state orbits, and not trivial
(``atoms._symmetric_orbits`` proves it), the G-orbit of a disjoint pair
(X, Y) is named by its *signature*, the counts (|X & O|, |Y & O|) on each
state orbit O, and it holds the product over O of C(|O|, x) * C(|O| - x, y)
pairs.  Counting by orbits is then exact:

- ``key`` commutes with G (``_QuotientEngine.step`` says why), so a key's
  orbit is a set of keys of one complexity.
- The keys an atom reaches are a union of orbits.  A permutation letter keeps
  a key in its orbit, and the letters reach every key of it, since the
  inverse of a permutation is one of its powers.
- So an atom's complexity is the total size of the orbits that its start
  key's orbit reaches, the empty quotient None counted once.  Orbit K' follows
  K when some key of K steps into K' under a letter that is not a permutation.

Such a letter l does not commute with G, so the successors of one
representative per orbit are too few.  Split each state orbit into *cells*:
the states that one fibre of l with two or more states holds, and the states
of singleton fibres whose images lie in one orbit.  Two pairs with the same
counts in every cell differ by a permutation p within cells, which lies in
G, and l p = s l on them for some s in G, so their image keys share an
orbit.  One representative per way of spreading the counts over the cells
therefore gives every successor orbit.
"""

from __future__ import annotations

import itertools
from math import comb, prod

from .atoms import _QuotientEngine


class _OrbitCounter(_QuotientEngine):
    """The orbit route: ``_QuotientEngine``'s counts, summed over key orbits.

    ``orbits`` are the state orbits' masks.  Per letter that is not a
    permutation, ``spreads`` holds its packed-pair map and, per state orbit,
    its *spreads*: for each count (x, y), one packed pair per way of
    spreading x X-states and y Y-states over the letter's cells, the first
    states of a cell going to X and the next ones to Y.  ``image_orbits``
    caches the key orbit of an image pair's orbit, the inherited
    ``successors`` each orbit's successor orbits and ``counts`` each start
    orbit's count.
    """

    def __init__(self, dfa, orbits: list[int]):
        super().__init__(dfa)
        n = self.n
        self.orbits = orbits
        self.sizes = [o.bit_count() for o in orbits]
        orbit_of = [next(i for i, o in enumerate(orbits) if o >> q & 1) for q in range(n)]
        self.spreads = []
        kinds = set()
        for letter, (image_of, permutes) in zip(dfa.alphabet, self.letters):
            if permutes:
                continue
            image = [r - 1 for r in dfa.delta[letter].image]
            fibres = [[0] * len(orbits) for _ in image]  # per target, its sources per orbit
            for q, r in enumerate(image):
                fibres[r][orbit_of[q]] += 1
            # Letters l and s l p, for s and p in G, lead an orbit into the same
            # orbits, and these are the letters with the same fibres per orbit.
            kind = tuple(sorted((orbit_of[r], tuple(f)) for r, f in enumerate(fibres) if any(f)))
            if kind in kinds:
                continue
            kinds.add(kind)
            cells: list[dict] = [{} for _ in orbits]
            for q, r in enumerate(image):
                # A shared fibre is named by its target, as a 1-tuple, and
                # the singleton fibres by the orbit of their images.
                cell = (r,) if sum(fibres[r]) > 1 else orbit_of[r]
                prefix = cells[orbit_of[q]].setdefault(cell, [0])
                prefix.append(prefix[-1] | 1 << q)
            spreads = []
            for orbit in cells:
                spread = {(0, 0): [0]}
                for prefix in orbit.values():  # prefix[k] masks the cell's first k states
                    grown: dict[tuple, list[int]] = {}
                    for (x, y), pairs in spread.items():
                        for i in range(len(prefix)):
                            for j in range(i, len(prefix)):  # X: i states, Y: j - i
                                part = prefix[i] | (prefix[j] ^ prefix[i]) << n
                                grown.setdefault((x + i, y + j - i), []).extend(
                                    p | part for p in pairs
                                )
                    spread = grown
                spreads.append(spread)
            self.spreads.append((image_of, spreads))
        self.image_orbits: dict[tuple, tuple | None] = {}
        self.counts: dict[tuple, int] = {}

    def signature(self, pair: int) -> tuple:
        """The counts (|X & O|, |Y & O|) of a packed pair per orbit O."""
        y = pair >> self.n
        return tuple(((pair & o).bit_count(), (y & o).bit_count()) for o in self.orbits)

    def _step(self, orbit: tuple | None, _) -> set:
        """The orbits the letters that are not permutations lead ``orbit`` into.

        ``key`` runs once per orbit of image pairs: images in one orbit have
        keys in one orbit.  The empty quotient None leads nowhere new.
        """
        if orbit is None:
            return set()
        n, full = self.n, self.full
        found = set()
        for image_of, spreads in self.spreads:
            for parts in itertools.product(*map(dict.__getitem__, spreads, orbit)):
                image = image_of(sum(parts))
                if image & full & image >> n:
                    found.add(None)
                    continue
                sig = self.signature(image)
                if sig not in self.image_orbits:
                    key = self.key(image & full, image >> n)
                    self.image_orbits[sig] = None if key is None else self.signature(key)
                found.add(self.image_orbits[sig])
        return found

    def _count(self, start: int) -> int:
        """The total size of the orbits the start key's orbit reaches, itself
        included, the empty quotient None counted once."""
        orbit = self.signature(start)
        count = self.counts.get(orbit)
        if count is None:
            self.counts[orbit] = count = sum(
                1 if reached is None else
                prod(comb(s, x) * comb(s - x, y) for s, (x, y) in zip(self.sizes, reached))
                for reached in self._reached(orbit, self._step)
            )
        return count

    def complexities(self) -> list[int]:
        """The complexity of every atom, in ``columns`` order."""
        n, full = self.n, self.full
        return [self._count(col | (full ^ col) << n) for col in self.columns]
