"""Complete DFAs over 1-based state sets and their transformation algebra.

States are the integers 1..n everywhere in the public API.  A transformation
is a total self-map of the state set; a DFA assigns one transformation per
letter.  State subsets are handled internally as bit masks (bit i-1 set means
state i is a member), which caps subset-enumerating operations at
``SUBSET_OP_LIMIT`` states.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .errors import (
    CapExceededError,
    InvalidBasisError,
    InvalidDfaError,
    LimitExceededError,
    SizeMismatchError,
    UnknownLetterError,
)

# Operations that may enumerate subsets of the state set refuse larger inputs.
SUBSET_OP_LIMIT = 20


def _mask_of(states: Iterable[int]) -> int:
    mask = 0
    for q in states:
        mask |= 1 << (q - 1)
    return mask


def _set_of(mask: int) -> frozenset[int]:
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length())
        mask ^= low
    return frozenset(members)


def _basis_members(n: int, basis: Iterable[int]) -> frozenset[int]:
    """The members of ``basis``; each must be an int state id in 1..n."""
    try:
        members = frozenset(basis)
    except TypeError as exc:
        raise InvalidBasisError(f"basis ids must be int state ids in 1..{n}: {exc}") from None
    bad = [q for q in members if not (isinstance(q, int) and 1 <= q <= n)]
    if bad:
        bad.sort(key=lambda q: (0, q, "") if isinstance(q, int) else (1, 0, repr(q)))
        raise InvalidBasisError(f"basis ids {bad} not within 1..{n}")
    return members


class _Frozen:
    """Base of the immutable value types: slotted, compared and hashed by value.

    A subclass lists its fields in ``__slots__`` in the order its ``__init__``
    takes them, and sets them there with ``_fill``; after that, assignment and
    deletion raise ``AttributeError``.  Equality, hashing, ``repr`` and
    ``__reduce__`` (so ``copy`` and ``pickle``) read the fields through one
    ``attrgetter`` per class, and values of different classes are never equal.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        get = operator.attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # one name gives the bare value, not a 1-tuple
            get = lambda obj, one=get: (one(obj),)
        cls._values = staticmethod(get)

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
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


class Transformation(_Frozen):
    """A total map of {1..n} into itself; ``image[i-1]`` is the image of state i."""

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]) -> None:
        image = tuple(image)
        n = len(image)
        if n == 0:
            raise InvalidDfaError("a transformation must act on at least one state")
        for i, q in enumerate(image, start=1):
            if not isinstance(q, int) or not 1 <= q <= n:
                raise InvalidDfaError(f"image of state {i} is {q!r}, not in 1..{n}")
        self._fill(image)

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, state: int) -> int:
        return self.image[state - 1]

    def is_identity(self) -> bool:
        return all(q == i for i, q in enumerate(self.image, start=1))

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def cycle(cls, n: int, states: Iterable[int]) -> "Transformation":
        """The cyclic permutation (q1,...,qk) acting on 1..n, fixing everything else."""
        cyc = tuple(states)
        if len(set(cyc)) != len(cyc):
            raise InvalidDfaError("cycle entries must be distinct")
        image = list(range(1, n + 1))
        for i, q in enumerate(cyc):
            image[q - 1] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(image))

    @classmethod
    def unitary(cls, n: int, source: int, target: int) -> "Transformation":
        """The map sending ``source`` to ``target`` and fixing everything else."""
        image = list(range(1, n + 1))
        image[source - 1] = target
        return cls(tuple(image))

    @classmethod
    def constant(cls, n: int, target: int) -> "Transformation":
        """The map sending every state to ``target``."""
        return cls(tuple(target for _ in range(n)))


def compose(first: Transformation, second: Transformation) -> Transformation:
    """Left-action composition: apply ``first``, then ``second``."""
    if first.size != second.size:
        raise SizeMismatchError(
            f"cannot compose transformations of sizes {first.size} and {second.size}"
        )
    return Transformation(tuple(second.image[q - 1] for q in first.image))


class Dfa(_Frozen):
    """A complete DFA: one transformation per letter, an initial state, finals.

    Immutable after construction: ``delta`` is a read-only view of a private
    copy, and equal DFAs hash equal, so a DFA can key a cache.  All operations
    on it are pure functions.
    """

    __slots__ = ("state_count", "alphabet", "delta", "initial", "finals")

    def __init__(
        self, state_count: int, alphabet: Iterable[str],
        delta: Mapping[str, Transformation], initial: int, finals: Iterable[int],
    ) -> None:
        delta = MappingProxyType(dict(delta))
        self._fill(state_count, tuple(alphabet), delta, initial, frozenset(finals))
        n = self.state_count
        if n < 1:
            raise InvalidDfaError("state count must be positive")
        if not self.alphabet:
            raise InvalidDfaError("alphabet must be non-empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InvalidDfaError("alphabet letters must be distinct")
        for letter in self.alphabet:
            if not letter or letter.split() != [letter] or "#" in letter:
                raise InvalidDfaError(
                    f"letter {letter!r} must be a non-empty token without '#'"
                )
        if set(self.delta) != set(self.alphabet):
            missing = sorted(set(self.alphabet) - set(self.delta))
            extra = sorted(set(self.delta) - set(self.alphabet))
            raise InvalidDfaError(
                f"delta letters do not match alphabet (missing {missing}, extra {extra})"
            )
        for letter, trans in self.delta.items():
            if trans.size != n:
                raise InvalidDfaError(
                    f"transformation for {letter!r} acts on {trans.size} states, expected {n}"
                )
        if not 1 <= self.initial <= n:
            raise InvalidDfaError(f"initial state {self.initial} not in 1..{n}")
        if not self.finals <= frozenset(range(1, n + 1)):
            raise InvalidDfaError(f"final states {sorted(self.finals)} not within 1..{n}")

    def __hash__(self) -> int:
        return hash(
            (
                self.state_count,
                self.alphabet,
                tuple(self.delta[letter] for letter in self.alphabet),
                self.initial,
                self.finals,
            )
        )

    def __reduce__(self):
        n, alphabet, delta, initial, finals = self._values(self)
        return Dfa, (n, alphabet, dict(delta), initial, finals)

    def transformation(self, letter: str) -> Transformation:
        try:
            return self.delta[letter]
        except KeyError:
            raise UnknownLetterError(f"letter {letter!r} not in alphabet") from None

    def step(self, state: int, letter: str) -> int:
        return self.transformation(letter)(state)

    def accepts(self, word: Iterable[str]) -> bool:
        state = self.initial
        for letter in word:
            state = self.step(state, letter)
        return state in self.finals


def induced_transformation(dfa: Dfa, word: Iterable[str]) -> Transformation:
    """The transformation of the state set induced by reading ``word``.

    The empty word induces the identity.  A plain string is read letter by
    letter, so it only suits single-character alphabets.
    """
    result = Transformation.identity(dfa.state_count)
    for letter in word:
        result = compose(result, dfa.transformation(letter))
    return result


def reachable(dfa: Dfa) -> frozenset[int]:
    """States reachable from the initial state."""
    return frozenset(_reachable_arrays(dfa)[0])


def _moore_blocks(rows: list[list[int]], labels: list[int]) -> list[int]:
    """Moore partition refinement on a 0-based array automaton.

    ``rows[k][i]`` is the successor of state i under letter k.  ``labels[i]``
    is any hashable label of state i such that states with different labels
    are distinguishable and final states are labelled apart from non-final
    ones; the final flags themselves are the plainest such labels.  Returns a
    dense block id per state; two states share a block iff they are
    indistinguishable.  Ids are numbered by first appearance over the states,
    which ``minimize`` relies on for its breadth-first numbering.
    """
    block = list(labels)
    count = len(set(block))
    while True:
        maps = [[block[j] for j in row] for row in rows]
        ids: dict[tuple[int, ...], int] = {}
        new = [ids.setdefault(sig, len(ids)) for sig in zip(block, *maps)]
        if len(ids) == count:
            return new
        block, count = new, len(ids)


def _discover(starts, step, letters: int, cap: int | None = None):
    """Breadth-first numbering of the nodes reachable from ``starts``.

    The ``starts``, which must be distinct, are numbered first, in order.
    ``step(node, index)`` lists the node's successor under each of the
    ``letters`` letters; ``index`` maps every node found so far to its
    number, so a step can tell an image that is already a node.  Returns the
    nodes in discovery order and, per letter, the 0-based row of successor
    indices.  More than ``cap`` nodes raise ``CapExceededError`` with the
    count so far.  Nodes are opaque: each caller owns its encoding, such as
    the packed pairs of ``atoms``.  This one loop builds the reachable part
    of a DFA (``_reachable_arrays``), the pair automaton of one atom or, from
    every start pair at once, of all candidate atoms (``atoms._explore``,
    also the harness's emptiness check), a prefix closure's subset automaton
    (``ideals._prefix_closure``), the graph of quotient keys that counts
    every atom at once (``atoms._QuotientEngine.key_graph``), the transition
    semigroup (``transition_semigroup``) and the reversal oracle's subset
    automaton (``harness.reversal_quotient_complexity``).

    Three forward searches keep loops of their own.  The column closure
    (``_column_masks``) runs on every enumeration and atom query, and
    through this loop, building rows it does not need, it took 1.6-2x as
    long at n = 10-16.  A single atom's quotient walk
    (``_QuotientEngine.complexity``) shares the key graph's ``step`` but
    stops at the keys that atom reaches and memoizes successors across
    atoms; with rows it was about 13 % slower.  The monoid oracle
    (``harness._MonoidDfa``) keeps its own search, ending in
    ``_array_dfa``, to stay independent of the key graph it checks.
    """
    nodes = list(starts)
    index = {node: i for i, node in enumerate(nodes)}
    rows: list[list[int]] = [[] for _ in range(letters)]
    for node in nodes:
        for row, succ in zip(rows, step(node, index)):
            j = index.get(succ)
            if j is None:
                j = len(nodes)
                if cap is not None and j >= cap:
                    raise CapExceededError(f"determinization exceeds cap {cap}", j + 1)
                index[succ] = j
                nodes.append(succ)
            row.append(j)
    return nodes, rows


def _array_dfa(alphabet: tuple[str, ...], rows: list[list[int]], finals: list) -> Dfa:
    """The DFA of 0-based ``rows``: node i becomes state i + 1, final when
    ``finals[i]`` is truthy, and state 1 is initial."""
    delta = {
        letter: Transformation(tuple(j + 1 for j in row))
        for letter, row in zip(alphabet, rows)
    }
    final_ids = frozenset(i + 1 for i, f in enumerate(finals) if f)
    return Dfa(len(finals), alphabet, delta, 1, final_ids)


def _reachable_arrays(dfa: Dfa) -> tuple[list[int], list[list[int]], list[bool]]:
    """Restrict to reachable states, in 0-based array form (BFS order from initial)."""
    images = [dfa.delta[letter].image for letter in dfa.alphabet]
    order, rows = _discover(
        [dfa.initial], lambda q, _: [t[q - 1] for t in images], len(images)
    )
    return order, rows, [q in dfa.finals for q in order]


def distinguishability_classes(dfa: Dfa) -> tuple[frozenset[int], ...]:
    """The partition of the reachable states into indistinguishability classes.

    This is the coarsest partition respecting finality and stable under every
    letter; states in distinct classes are distinguishable by some word.
    Classes are returned sorted by their smallest member.
    """
    order, rows, final_flags = _reachable_arrays(dfa)
    blocks = _moore_blocks(rows, final_flags)
    grouped: dict[int, list[int]] = {}
    for i, b in enumerate(blocks):
        grouped.setdefault(b, []).append(order[i])
    classes = [frozenset(members) for members in grouped.values()]
    return tuple(sorted(classes, key=min))


def quotient_complexity(dfa: Dfa) -> int:
    """Number of indistinguishability classes among reachable states."""
    _, rows, final_flags = _reachable_arrays(dfa)
    blocks = _moore_blocks(rows, final_flags)
    return max(blocks) + 1


def minimize(dfa: Dfa) -> Dfa:
    """The minimal DFA for the same language.

    States are the indistinguishability classes of the reachable part,
    numbered in breadth-first order from the initial class, so two
    language-equal DFAs over the same alphabet minimize to equal values.
    Moore's blocks are already numbered that way: they are numbered by first
    appearance over the reachable states in breadth-first order, and a
    class's successors are first found when its first member is processed.
    """
    _, rows, final_flags = _reachable_arrays(dfa)
    blocks = _moore_blocks(rows, final_flags)
    firsts: list[int] = []  # firsts[b] is the first state in block b
    for i, b in enumerate(blocks):
        if b == len(firsts):
            firsts.append(i)
    return _array_dfa(
        dfa.alphabet,
        [[blocks[row[i]] for i in firsts] for row in rows],
        [final_flags[i] for i in firsts],
    )


def transition_semigroup(dfa: Dfa, cap: int) -> frozenset[Transformation]:
    """Closure of the per-letter transformations under composition.

    The identity appears only if some non-empty word induces it.  Raises
    ``CapExceededError`` as soon as more than ``cap`` elements are found;
    the error carries the partial count, the distinct letter images all
    counted first.  The closure is ``_discover``'s, over raw image tuples
    composed through generators padded to 1-based indexing; each element is
    wrapped in a ``Transformation`` once, at the end.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    padded = [(0, *dfa.delta[letter].image) for letter in dfa.alphabet]
    # _discover needs distinct starts, and two letters may share an image.
    starts = list(dict.fromkeys(g[1:] for g in padded))
    message = f"transition semigroup exceeds cap {cap}"
    if len(starts) > cap:
        raise CapExceededError(message, len(starts))
    step = lambda t, _: [tuple(map(g.__getitem__, t)) for g in padded]
    try:
        elements, _ = _discover(starts, step, len(padded), cap)
    except CapExceededError as exc:
        raise CapExceededError(message, exc.partial) from None
    return frozenset(map(Transformation, elements))


def _chunk_tables(bits: list[int], width: int = 8) -> tuple[tuple[int, ...], ...]:
    """Lookup tables for the union of ``bits[i]`` over the members i+1 of a mask.

    There is one table per ``width``-bit chunk of the mask, indexed by the
    chunk's value, so mapping a mask costs one lookup per ``width`` states
    and the tables hold about 2**width / width entries per state.
    """
    tables = []
    for base in range(0, len(bits), width):
        table = [0] * (1 << min(width, len(bits) - base))
        for value in range(1, len(table)):
            low = value & -value
            table[value] = table[value ^ low] | bits[base + low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


def _apply_tables(mask: int, tables: tuple[tuple[int, ...], ...], width: int = 8) -> int:
    result = 0
    chunk = (1 << width) - 1
    for table in tables:
        result |= table[mask & chunk]
        mask >>= width
    return result


def _preimage_tables(dfa: Dfa, width: int = 8) -> list[tuple[tuple[int, ...], ...]]:
    """Per letter, the chunk tables mapping a mask to the states sent into it."""
    tables = []
    for letter in dfa.alphabet:
        bits = [0] * dfa.state_count  # bits[j]: the states sent onto state j+1
        for q, r in enumerate(dfa.delta[letter].image):
            bits[r - 1] |= 1 << q
        tables.append(_chunk_tables(bits, width))
    return tables


def _column_masks(dfa: Dfa) -> set[int]:
    """Masks of the achievable columns: the finals closed under per-letter preimages."""
    n = dfa.state_count
    if n > SUBSET_OP_LIMIT:
        raise LimitExceededError(
            f"column enumeration supports at most {SUBSET_OP_LIMIT} states, got {n}"
        )
    # 8-bit tables: columns are mapped far more often than the tables are
    # built, and 4-bit ones made this 1.3-1.6x slower.
    preimages = _preimage_tables(dfa)
    start = _mask_of(dfa.finals)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for col in frontier:
            for tables in preimages:
                pre = _apply_tables(col, tables)
                if pre not in seen:
                    seen.add(pre)
                    nxt.append(pre)
        frontier = nxt
    return seen


def atom_bases_by_reversal(dfa: Dfa) -> frozenset[frozenset[int]]:
    """All achievable columns {q : the word sends q into the finals}.

    Computed by closing the final-state set under per-letter preimages.  Each
    column is the basis of one atom of the state-language list; when every
    state of ``dfa`` is reachable the column count equals the quotient
    complexity of the reversed language.
    """
    return frozenset(_set_of(mask) for mask in _column_masks(dfa))


@functools.lru_cache(maxsize=1)
def _containment_masks(dfa: Dfa) -> tuple[int, ...]:
    """Row p-1 is the mask of the states q whose right language contains p's.

    K_p is not within K_q iff some word leads (p, q) to (final, non-final).
    Those pairs are closed backwards: a worklist of rows carries each row's
    newly failed q's, and a letter's preimage of them joins the row of every
    p that the letter sends onto that row.  A pop costs one chain of n/4
    lookups per letter, not one OR per failed q: O(n^3 k) lookups at worst,
    but pops carry ~140 q's each at n = 580.  Nothing need be reachable or
    minimal.  Kept for the last DFA, so reading it pair by pair builds it once.
    """
    n = dfa.state_count
    full = (1 << n) - 1
    fmask = _mask_of(dfa.finals)
    # 4-bit tables: closures run to hundreds of states, and at 580 the peak
    # is 0.65 MB with them, 4.1 MB with 8-bit ones, for about the same speed.
    letters = []  # per letter: (preimage tables, states sent onto each state)
    for letter, tables in zip(dfa.alphabet, _preimage_tables(dfa, 4)):
        sources: list[list[int]] = [[] for _ in range(n)]
        for p, r in enumerate(dfa.delta[letter].image):
            sources[r - 1].append(p)
        letters.append((tables, sources))

    bad = [full ^ fmask if fmask >> p & 1 else 0 for p in range(n)]
    pending = list(bad)
    work = [p for p in range(n) if pending[p]]
    while work:
        r = work.pop()
        failed, pending[r] = pending[r], 0
        for tables, sources in letters:
            if not sources[r]:
                continue
            image = _apply_tables(failed, tables, 4)
            for p in sources[r]:
                new = image & ~bad[p]
                if new:
                    bad[p] |= new
                    if not pending[p]:
                        work.append(p)
                    pending[p] |= new
    return tuple(full ^ row for row in bad)


def state_language_contains(dfa: Dfa, p: int, q: int) -> bool:
    """Whether the right language of state p is a subset of that of state q.

    True iff no word leads the pair jointly to (final, non-final); read from
    row p of the table that one backward pass over state pairs builds for
    the whole DFA, once for a run of questions about the same DFA.
    """
    n = dfa.state_count
    for s in (p, q):
        if not 1 <= s <= n:
            raise InvalidDfaError(f"state {s} not in 1..{n}")
    return bool(_containment_masks(dfa)[p - 1] >> (q - 1) & 1)
