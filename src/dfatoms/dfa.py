"""Complete DFAs over 1-based state sets and their transformation algebra.

States are the integers 1..n everywhere in the public API.  A transformation
is a total self-map of the state set; a DFA assigns one transformation per
letter.  State subsets are handled internally as bit masks (bit i-1 set means
state i is a member), which caps subset-enumerating operations at
``SUBSET_OP_LIMIT`` states.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from types import MappingProxyType

from ._values import _Frozen, _bad_ids, _id_order, _is_int
from .errors import (
    CapExceededError,
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


class Transformation(_Frozen):
    """A total map of {1..n} into itself; ``image[i-1]`` is the image of state i."""

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]) -> None:
        image = tuple(image)
        n = len(image)
        if n == 0:
            raise InvalidDfaError("a transformation must act on at least one state")
        for i, q in enumerate(image, start=1):
            if not _is_int(q) or not 1 <= q <= n:
                raise InvalidDfaError(f"image of state {i} is {q!r}, not in 1..{n}")
        super().__init__(image)

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, state: int) -> int:
        if not (_is_int(state) and 1 <= state <= len(self.image)):
            raise InvalidDfaError(f"state {state!r} not within 1..{len(self.image)}")
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
        bad = _bad_ids(n, cyc)
        if bad:
            raise InvalidDfaError(f"cycle entries {bad} not within 1..{n}")
        if len(set(cyc)) != len(cyc):
            raise InvalidDfaError("cycle entries must be distinct")
        image = list(range(1, n + 1))
        for i, q in enumerate(cyc):
            image[q - 1] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(image))

    @classmethod
    def unitary(cls, n: int, source: int, target: int) -> "Transformation":
        """The map sending ``source`` to ``target`` and fixing everything else."""
        bad = _bad_ids(n, (source, target))
        if bad:
            raise InvalidDfaError(f"states {bad} not within 1..{n}")
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


def _coerced(kind: type, value, what: str):
    """``kind(value)``, or ``InvalidDfaError`` saying ``what`` when it fails."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InvalidDfaError(f"{what}, got {value!r}") from None


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
        alphabet = _coerced(tuple, alphabet, "alphabet must be an iterable of letters")
        delta = MappingProxyType(_coerced(dict, delta, "delta must be a mapping of letters"))
        finals = _coerced(frozenset, finals, "final states must be an iterable of state ids")
        super().__init__(state_count, alphabet, delta, initial, finals)
        n = self.state_count
        if not _is_int(n) or n < 1:
            raise InvalidDfaError(f"state count must be a positive int, got {n!r}")
        if not self.alphabet:
            raise InvalidDfaError("alphabet must be non-empty")
        for letter in self.alphabet:
            if not isinstance(letter, str) or letter.split() != [letter] or "#" in letter:
                raise InvalidDfaError(
                    f"letter {letter!r} must be a non-empty token without '#'"
                )
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InvalidDfaError("alphabet letters must be distinct")
        if set(self.delta) != set(self.alphabet):
            missing = sorted(set(self.alphabet) - set(self.delta))
            extra = sorted(set(self.delta) - set(self.alphabet), key=_id_order)
            raise InvalidDfaError(
                f"delta letters do not match alphabet (missing {missing}, extra {extra})"
            )
        for letter, trans in self.delta.items():
            if not isinstance(trans, Transformation) or trans.size != n:
                raise InvalidDfaError(
                    f"delta for {letter!r} is {trans!r}, not a transformation of {n} states"
                )
        if _bad_ids(n, [self.initial]):
            raise InvalidDfaError(f"initial state {self.initial!r} not in 1..{n}")
        bad = _bad_ids(n, self.finals)
        if bad:
            raise InvalidDfaError(f"final states {bad} not within 1..{n}")

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
    long at n = 10-16.  The one memoized walk of both atom routes
    (``atoms._reached``) stops at the nodes one atom reaches and memoizes
    successors across atoms; with rows the general route's walk was about
    13 % slower, and the orbit route (``_orbits._OrbitCounter``) steps one
    key orbit, or one column vector in its closure, to several under one
    letter, which a row of one successor per letter cannot hold.  The
    monoid oracle (``harness._MonoidDfa``) keeps its own search, which also
    records each element's predecessors and groups the elements by column,
    to stay independent of the key graph it checks.
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


def _mask_map(bits: list[int], width: int = 8) -> Callable[[int], int]:
    """The map sending a mask to the union of ``bits[i]`` over its members i+1.

    It looks the mask up in one table per ``width``-bit chunk, indexed by the
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
    chunk = (1 << width) - 1

    def image(mask: int) -> int:
        result = 0
        for table in tables:
            result |= table[mask & chunk]
            mask >>= width
        return result

    return image


def _image_maps(dfa: Dfa, copies: int = 1) -> list[Callable[[int], int]]:
    """Per letter, the map sending ``copies`` masks packed back to back,
    ``X | Y << n | ...``, to the packed masks of their images.

    One lookup chain maps every copy, and a pair's images collide exactly
    when ``image & full & image >> n`` is non-zero.  The copies are not
    aligned on chunks: that is the quotient keys' layout, and it needs no
    more chunks than the aligned one.
    """
    n = dfa.state_count
    maps = []
    for letter in dfa.alphabet:
        bits = [1 << (q - 1) for q in dfa.delta[letter].image]
        maps.append(_mask_map([b << c * n for c in range(copies) for b in bits]))
    return maps


def _preimage_maps(dfa: Dfa, width: int = 8) -> list[Callable[[int], int]]:
    """Per letter, the map sending a mask to the states sent into it."""
    maps = []
    for letter in dfa.alphabet:
        bits = [0] * dfa.state_count  # bits[j]: the states sent onto state j+1
        for q, r in enumerate(dfa.delta[letter].image):
            bits[r - 1] |= 1 << q
        maps.append(_mask_map(bits, width))
    return maps


def _column_masks(dfa: Dfa) -> set[int]:
    """Masks of the achievable columns: the finals closed under per-letter preimages."""
    n = dfa.state_count
    if n > SUBSET_OP_LIMIT:
        raise LimitExceededError(
            f"column enumeration supports at most {SUBSET_OP_LIMIT} states, got {n}"
        )
    # 8-bit tables: columns are mapped far more often than the tables are
    # built, and 4-bit ones made this 1.3-1.6x slower.
    preimages = _preimage_maps(dfa)
    start = _mask_of(dfa.finals)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for col in frontier:
            for preimage in preimages:
                pre = preimage(col)
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
