"""Ideal-language predicates, ideal closures, and successor-set machinery.

A language is a right ideal when it absorbs arbitrary suffixes, a left ideal
when it absorbs arbitrary prefixes, and a two-sided ideal when both hold.
The predicates work on the minimized automaton and reject the empty language.
"""

from __future__ import annotations

import functools

from . import witnesses
from ._values import _bad_ids
from .dfa import (
    Dfa,
    Transformation,
    _array_dfa,
    _discover,
    _image_maps,
    _mask_of,
    _preimage_maps,
    _set_of,
    minimize,
)
from .errors import EmptyLanguageError, InvalidDfaError, NotAnIdealError

DETERMINIZE_CAP = 1 << 16


@functools.lru_cache(maxsize=1)
def _minimal_nonempty(dfa: Dfa) -> Dfa:
    """The minimal DFA, kept for the last DFA asked about, so the predicates
    and the refined bound minimize it once."""
    minimal = minimize(dfa)
    if not minimal.finals:
        raise EmptyLanguageError("the empty language belongs to no ideal class")
    return minimal


def is_right_ideal(dfa: Dfa) -> bool:
    """True iff the language absorbs suffixes: final states stay final."""
    minimal = _minimal_nonempty(dfa)
    return all(
        minimal.delta[letter](q) in minimal.finals
        for q in minimal.finals
        for letter in minimal.alphabet
    )


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
    letters = []  # per letter: (preimage map, states sent onto each state)
    for letter, preimage in zip(dfa.alphabet, _preimage_maps(dfa, 4)):
        sources: list[list[int]] = [[] for _ in range(n)]
        for p, r in enumerate(dfa.delta[letter].image):
            sources[r - 1].append(p)
        letters.append((preimage, sources))

    bad = [full ^ fmask if fmask >> p & 1 else 0 for p in range(n)]
    pending = list(bad)
    work = [p for p in range(n) if pending[p]]
    while work:
        r = work.pop()
        failed, pending[r] = pending[r], 0
        for preimage, sources in letters:
            if not sources[r]:
                continue
            image = preimage(failed)
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
        if _bad_ids(n, [s]):
            raise InvalidDfaError(f"state {s!r} not in 1..{n}")
    return bool(_containment_masks(dfa)[p - 1] >> (q - 1) & 1)


def is_left_ideal(dfa: Dfa) -> bool:
    """True iff every quotient's language contains the whole language."""
    minimal = _minimal_nonempty(dfa)
    row = _containment_masks(minimal)[minimal.initial - 1]
    return row == (1 << minimal.state_count) - 1


def is_two_sided_ideal(dfa: Dfa) -> bool:
    return is_right_ideal(dfa) and is_left_ideal(dfa)


def _absorb_finals(dfa: Dfa) -> Dfa:
    delta = {}
    for letter in dfa.alphabet:
        t = dfa.delta[letter]
        delta[letter] = Transformation(
            tuple(q if q in dfa.finals else t(q) for q in range(1, dfa.state_count + 1))
        )
    return Dfa(dfa.state_count, dfa.alphabet, delta, dfa.initial, dfa.finals)


def _prefix_closure(dfa: Dfa, cap: int) -> Dfa:
    # Determinize the machine that may loop on the initial state before
    # running the original DFA; every subset reached contains the initial.
    init_bit = 1 << (dfa.initial - 1)
    images = _image_maps(dfa)
    subsets, rows = _discover(
        [init_bit], lambda s, _: [init_bit | image(s) for image in images], len(images), cap
    )
    fmask = _mask_of(dfa.finals)
    return minimize(_array_dfa(dfa.alphabet, rows, [s & fmask for s in subsets]))


def idealize(dfa: Dfa, kind: witnesses.WitnessClass, cap: int = DETERMINIZE_CAP) -> Dfa:
    """A DFA for the closure of the language into the class ``kind``.

    A class that fixes the accepting sink makes final states absorbing
    (suffix closure); one that fixes the initial state then allows an
    arbitrary prefix before the run, and determinizes and minimizes (prefix
    closure).  A two-sided ideal takes both; ``REGULAR`` takes neither and
    returns ``dfa`` itself.
    """
    sink, init = witnesses._FIXED[kind]
    if sink:
        dfa = _absorb_finals(dfa)
    if init:
        dfa = _prefix_closure(dfa, cap)
    return dfa


def accepting_sink(dfa: Dfa) -> int | None:
    """The unique final state fixed by every letter, if there is one.

    For a one-state DFA accepting everything, that state is the sink.
    Intended for minimal DFAs, where a right ideal has exactly one such state.
    """
    fixed = [
        q
        for q in sorted(dfa.finals)
        if all(dfa.delta[letter](q) == q for letter in dfa.alphabet)
    ]
    if len(fixed) == 1:
        return fixed[0]
    return None


def successor_sets(dfa: Dfa) -> dict[int, frozenset[int]]:
    """For each state p, the states whose language strictly contains p's.

    Read from the containment table that one backward pass over state pairs
    builds for the whole DFA.  No state is its own successor, and the
    relation is transitive.  Intended for minimal DFAs, where distinct states
    have distinct languages.
    """
    rows = _containment_masks(dfa)
    return {
        p: frozenset(q for q in _set_of(row) if not rows[q - 1] >> (p - 1) & 1)
        for p, row in enumerate(rows, start=1)
    }


def refined_two_sided_bound(dfa: Dfa) -> int:
    """Successor-set bound on the complexity of the atom whose basis is every
    state except the initial one, for a two-sided ideal.

    With the accepting sink excluded from the inner sums, the value is
    1 + sum over non-sink states j of
    (|S(j)| - 1) + 2^(|S(j)|-1) - sum of 2^(|S(i)|-1) over non-sink i in S(j),
    and never exceeds 2^(n-2) + n - 1.
    """
    if not is_two_sided_ideal(dfa):
        raise NotAnIdealError("refined bound requires a two-sided ideal")
    minimal = _minimal_nonempty(dfa)
    n = minimal.state_count
    if n == 1:
        return 1
    sink = accepting_sink(minimal)
    if sink is None:
        raise NotAnIdealError("no accepting sink state found")
    succ = successor_sets(minimal)
    total = 1
    for j in range(1, n + 1):
        if j == sink:
            continue
        sj = succ[j]
        inner = sum(1 << (len(succ[i]) - 1) for i in sj if i != sink)
        total += (len(sj) - 1) + (1 << (len(sj) - 1)) - inner
    return total
