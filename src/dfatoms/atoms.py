"""Atomic intersections of state languages and their quotient complexity.

For a basis S, the atomic intersection takes the states in S uncomplemented
and the rest complemented.  It is recognized by a DFA over pairs of disjoint
state subsets plus an absorbing sink: the pair tracks the images of S and of
its complement, and collapses to the sink as soon as they collide.  Only pair
states reachable from the start pair are ever materialized.

Atom complexity does not classify that DFA's states.  The language of a pair
state (X, Y) is the union of the atoms A_T whose basis T is compatible with
it: X is inside T and Y is outside T.  Atoms are non-empty and pairwise
disjoint, so two pair states have the same language exactly when they have
the same set of compatible columns (their *signature*), and the empty
language is the empty signature.  A signature is stored through its canonical
pair: every state inside all compatible columns and every state outside all
of them.  That pair has the same signature, so it both names the quotient and
yields its successors.  Nothing here needs the DFA to be minimal or every
state to be reachable.

Both walks, over pair states and over quotient keys, pack a pair (X, Y) of
state masks into one int ``X | Y << n``, the sink or the empty quotient
being None.  Per letter, one chain of chunk-table lookups (``_pair_tables``)
maps both halves at once, and the images collide exactly when
``image & full & image >> n`` is non-zero.  One more chain over the same
packed pair gives the columns a pair is incompatible with, so a key is found
with the same subset-image primitive.  One step, ``_QuotientEngine.step``,
gives a key's successor keys, canonicalizing only the images that need it.

A single atom (``atom_complexity``) walks only the keys it reaches.  Full
enumeration (``enumerate_atoms``) instead builds the graph of every key that
some atom reaches, once, with the same step, and finds its strongly
connected components.  Each component's reach, the keys it leads to, is its
own keys plus its successors' reach, so one pass in Tarjan's emission order
gives every atom's complexity as the size of the reach of its start key.
"""

from __future__ import annotations

import functools
from collections.abc import Container, Iterable, Sequence

from .dfa import (
    SUBSET_OP_LIMIT,
    Dfa,
    _Frozen,
    _apply_tables,
    _array_dfa,
    _basis_members,
    _chunk_tables,
    _column_masks,
    _discover,
    _mask_of,
    _set_of,
    minimize,
)
from .errors import LimitExceededError, NotAnAtomError


class PairState(_Frozen):
    """A state of an atom DFA: either a disjoint pair (X, Y) or the sink."""

    __slots__ = ("x", "y", "is_bottom")

    def __init__(self, x: Iterable[int], y: Iterable[int], is_bottom: bool = False) -> None:
        self._fill(frozenset(x), frozenset(y), is_bottom)
        if self.is_bottom:
            if self.x or self.y:
                raise ValueError("the sink pair state carries no subsets")
        elif self.x & self.y:
            raise ValueError(f"pair subsets must be disjoint, got {self.x} and {self.y}")

    @classmethod
    def bottom(cls) -> "PairState":
        return cls(frozenset(), frozenset(), is_bottom=True)

    def __repr__(self) -> str:
        if self.is_bottom:
            return "PairState.bottom()"
        return f"PairState({set(self.x) or '{}'}, {set(self.y) or '{}'})"


def _basis_mask(dfa: Dfa, basis: Iterable[int]) -> int:
    n = dfa.state_count
    if n > SUBSET_OP_LIMIT:
        raise LimitExceededError(
            f"atom operations support at most {SUBSET_OP_LIMIT} states, got {n}"
        )
    return _mask_of(_basis_members(n, basis))


def _pair_tables(dfa: Dfa) -> list[tuple[tuple[int, ...], ...]]:
    """Per letter, the chunk tables mapping a packed pair ``X | Y << n`` to
    the packed pair of its images.

    Bit q-1 of the 2n bits maps to the image of state q and bit n+q-1 to that
    image shifted by n, so one lookup chain maps both halves.  The halves are
    packed back to back, not aligned on chunks: that is the quotient keys'
    layout, and it needs no more chunks than the aligned one.
    """
    n = dfa.state_count
    tables = []
    for letter in dfa.alphabet:
        bits = [1 << (q - 1) for q in dfa.delta[letter].image]
        tables.append(_chunk_tables(bits + [b << n for b in bits]))
    return tables


def _explore(dfa: Dfa, basis_masks: Iterable[int]):
    """Breadth-first exploration of the pair automata of distinct bases at once.

    The start pair (S, complement of S) of each basis mask is numbered first,
    in order; the pair states the starts reach are shared.  Returns (pairs,
    rows, finals): pairs in discovery order, each packed as one int
    ``X | Y << n`` with None for the sink, 0-based transition rows per
    letter, and per-state finality flags.
    """
    n = dfa.state_count
    full = (1 << n) - 1
    fmask = _mask_of(dfa.finals)
    letters = _pair_tables(dfa)

    def step(pair, _):
        if pair is None:
            return [None] * len(letters)
        successors = []
        for tables in letters:
            image = _apply_tables(pair, tables)
            successors.append(None if image & full & image >> n else image)
        return successors

    starts = [mask | (full ^ mask) << n for mask in basis_masks]
    pairs, rows = _discover(starts, step, len(letters))
    finals = [p is not None and not p & full & ~fmask and not p >> n & fmask for p in pairs]
    return pairs, rows, finals


def build_atom_dfa(dfa: Dfa, basis: Iterable[int]) -> Dfa:
    """The DFA recognizing the atomic intersection named by ``basis``.

    Its start state is the pair (S, complement of S); state i of the result
    is the i-th pair state discovered, as reported by ``reachable_pair_states``.
    """
    _, rows, finals = _explore(dfa, [_basis_mask(dfa, basis)])
    return _array_dfa(dfa.alphabet, rows, finals)


def reachable_pair_states(dfa: Dfa, basis: Iterable[int]) -> tuple[PairState, ...]:
    """Pair-state labels of ``build_atom_dfa`` in state order."""
    n = dfa.state_count
    full = (1 << n) - 1
    pairs, _, _ = _explore(dfa, [_basis_mask(dfa, basis)])
    return tuple(
        PairState.bottom() if p is None else PairState(_set_of(p & full), _set_of(p >> n))
        for p in pairs
    )


def is_atom(dfa: Dfa, basis: Iterable[int]) -> bool:
    """Whether the atomic intersection named by ``basis`` is non-empty.

    The atom of S is non-empty exactly when S is an achievable column.  The
    only column compatible with the start pair (S, complement of S) is S
    itself, so the start pair's signature is empty exactly when S is not a
    column; no pair state is explored.
    """
    mask = _basis_mask(dfa, basis)
    engine = _engine(dfa)
    return engine.key(mask, engine.full ^ mask) is not None


class _QuotientEngine:
    """The quotients of the atoms of one DFA, named by canonical pair keys.

    ``columns`` holds the column masks in increasing order.  ``inside[q]``
    and ``outside[q]`` are bitsets over them: bit i is set when column i
    contains, or lacks, state q.  ``conflicts`` maps a packed pair to the
    columns it is incompatible with: those lacking a state of X or containing
    one of Y.  A quotient's key packs its canonical pair (X, Y) as
    ``X | Y << n``; the empty quotient's key is None.
    ``successors`` memoizes each key's per-letter successor keys, so atoms of
    the same DFA share the quotients they have in common.
    """

    def __init__(self, dfa: Dfa):
        n = dfa.state_count
        self.columns = columns = sorted(_column_masks(dfa))
        self.n = n
        self.full = (1 << n) - 1
        self.every_column = (1 << len(columns)) - 1
        self.inside = [
            int("".join("1" if col >> q & 1 else "0" for col in reversed(columns)), 2)
            for q in range(n)
        ]
        self.outside = [self.every_column ^ bits for bits in self.inside]
        # 4-bit tables: entries are bitsets as wide as the column count, so
        # at regular n = 16 the engine keeps 4 MB with them, 12 MB with 8-bit.
        self.conflicts = _chunk_tables(self.outside + self.inside, 4)
        self.letters = tuple(
            (tables, len(set(dfa.delta[letter].image)) == n)
            for letter, tables in zip(dfa.alphabet, _pair_tables(dfa))
        )
        self.successors: dict[int | None, tuple[int | None, ...]] = {}

    def key(self, x: int, y: int) -> int | None:
        """Key of the quotient recognized at the disjoint pair state (x, y)."""
        signature = self.every_column ^ _apply_tables(x | y << self.n, self.conflicts, 4)
        if not signature:
            return None
        inside, outside = self.inside, self.outside
        m = self.full ^ (x | y)
        while m:
            low = m & -m
            q = low.bit_length() - 1
            if not signature & outside[q]:
                x |= low
            elif not signature & inside[q]:
                y |= low
            m ^= low
        return x | y << self.n

    def step(self, node: int | None, index: Container) -> Sequence[int | None]:
        """The successor keys of ``node`` per letter; the empty quotient's are None.

        ``index`` holds keys already found.  Colliding images are the empty
        quotient, as in ``_explore``, and an image is canonicalized with
        ``key`` only when neither shortcut applies:

        - An image in ``index`` is a key, and a key is its own key:
          canonicalizing keeps a pair's compatible columns, so it is idempotent.
        - An image under a permutation of Q is a key.  For a permutation a,
          T -> a^-1(T) is injective and maps the columns into the columns, so
          it is a bijection of them, and the columns compatible with
          (a(X), a(Y)) are the a-images of those compatible with (X, Y).  This
          holds for any complete DFA, minimal or not.
        """
        if node is None:
            return (None,) * len(self.letters)
        n, full = self.n, self.full
        images = []
        for tables, permutes in self.letters:
            image = _apply_tables(node, tables)
            if not permutes and image not in index:
                x, y = image & full, image >> n
                image = None if x & y else self.key(x, y)
            images.append(image)
        return images

    def complexity(self, basis_mask: int) -> int:
        """Number of distinct quotients of the atom, or 0 if it is empty.

        The walk's ``seen`` is the index of ``step``, and the empty quotient
        is the key None, counted like any other.
        """
        start = self.key(basis_mask, self.full ^ basis_mask)
        if start is None:
            return 0
        memo, step = self.successors, self.step
        seen = {start}
        order = [start]
        for key in order:
            successors = memo.get(key)
            if successors is None:
                memo[key] = successors = tuple(step(key, seen))
            for succ in successors:
                if succ not in seen:
                    seen.add(succ)
                    order.append(succ)
        return len(seen)

    def key_graph(self) -> tuple[list[int | None], list[list[int]]]:
        """Every key reachable from some column's start pair, and its edges.

        Node i is the start key of ``columns[i]`` for each column, then the
        keys in breadth-first order, the empty quotient being the node None;
        the rows are ``_discover``'s.  A column's start pair is already its
        key: the only column compatible with (S, complement of S) is S.
        """
        n, full = self.n, self.full
        starts = [col | (full ^ col) << n for col in self.columns]
        return _discover(starts, self.step, len(self.letters))

    def complexities(self) -> list[int]:
        """The complexity of every atom, in ``columns`` order, in one pass.

        An atom's quotients are the nodes its start key reaches in the key
        graph, the empty quotient counted once as the node None.
        """
        component, reach = _reach(self.key_graph()[1])
        counts = [bits.bit_count() for bits in reach]
        return [counts[c] for c in component[: len(self.columns)]]


def _reach(rows: list[list[int]]) -> tuple[list[int], list[int]]:
    """Strongly connected components of the graph of ``rows`` and their reach.

    ``rows[k][v]`` is node v's successor under letter k, read in place.
    Returns ``component[v]``, the number of node v's component, and
    ``reach[c]``, a bitset with one bit per node that component c reaches,
    itself included.  Tarjan's algorithm, run with an explicit stack so that
    long paths cannot exhaust the interpreter's recursion limit, emits each
    component after every component it reaches, so ``reach[c]`` is c's own
    bits OR'd with the ``reach`` of its successor components, all known
    already.  Nodes get their bits in emission order, so a component's own
    bits are one run.
    """
    count = len(rows[0])
    number = [0] * count  # preorder number from 1; 0 means not yet visited
    low = [0] * count
    component = [-1] * count  # -1 while the node is on Tarjan's stack
    stack: list[int] = []
    reach: list[int] = []
    counter = emitted = 0
    for root in range(count):
        if number[root]:
            continue
        counter += 1
        number[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(rows))]
        while work:
            v, edges = work[-1]
            for row in edges:
                w = row[v]
                if not number[w]:
                    counter += 1
                    number[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(rows)))
                    break
                if component[w] < 0 and number[w] < low[v]:
                    low[v] = number[w]
            else:
                work.pop()
                if low[v] < number[v]:  # not a component's root, so not the tree's
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                    continue
                c = len(reach)
                members = []
                while True:
                    w = stack.pop()
                    component[w] = c
                    members.append(w)
                    if w == v:
                        break
                bits = ((1 << len(members)) - 1) << emitted
                emitted += len(members)
                targets = {component[row[m]] for m in members for row in rows}
                targets.discard(c)
                for d in targets:
                    bits |= reach[d]
                reach.append(bits)
    return component, reach


@functools.lru_cache(maxsize=1)
def _engine(dfa: Dfa) -> _QuotientEngine:
    return _QuotientEngine(dfa)


def atom_complexity(dfa: Dfa, basis: Iterable[int]) -> int:
    """Quotient complexity of the atom named by ``basis``.

    Counts the distinct languages of the reachable pair states by their
    compatible columns (see the module docstring), with the empty language
    counted once if some word leads to it.  Repeated calls on equal DFAs share
    the columns and the quotients already explored.  Raises
    ``NotAnAtomError`` when the intersection is empty.
    """
    mask = _basis_mask(dfa, basis)
    complexity = _engine(dfa).complexity(mask)
    if not complexity:
        raise NotAnAtomError(
            f"basis {sorted(_set_of(mask))} names an empty atomic intersection"
        )
    return complexity


class AtomInfo(_Frozen):
    __slots__ = ("basis", "complexity")

    def __init__(self, basis: frozenset[int], complexity: int | None) -> None:
        self._fill(basis, complexity)


class AtomReport(_Frozen):
    """All atoms of a language, with optional per-atom complexity."""

    __slots__ = ("state_count", "atoms")

    def __init__(self, state_count: int, atoms: tuple[AtomInfo, ...]) -> None:
        self._fill(state_count, atoms)

    @property
    def count(self) -> int:
        return len(self.atoms)


def enumerate_atoms(dfa: Dfa, with_complexities: bool = True) -> AtomReport:
    """Enumerate the atoms of the language of ``dfa``.

    Minimizes first when the input is not already minimal, so bases refer to
    the states of the minimal DFA.  Bases come from the achievable-column
    closure.  The complexities come from one pass over the graph of every
    quotient key that some atom reaches: each atom counts the keys its start
    key reaches, read off the graph's strongly connected components.  Pass
    ``with_complexities=False`` to skip that pass when only the count matters.
    """
    minimal = minimize(dfa)
    if minimal.state_count == dfa.state_count:
        minimal = dfa
    engine = _engine(minimal)
    counts = engine.complexities() if with_complexities else [None] * len(engine.columns)
    infos = sorted(
        (AtomInfo(_set_of(col), count) for col, count in zip(engine.columns, counts)),
        key=lambda info: (len(info.basis), sorted(info.basis)),
    )
    return AtomReport(minimal.state_count, tuple(infos))
