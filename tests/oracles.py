"""Brute-force reference implementations used to check the library.

Everything here works on raw Dfa fields with its own search code; none of it
calls the library operations it is used to verify.
"""

from functools import lru_cache
from itertools import product
from math import comb

from dfatoms import Dfa, Transformation


def pair_bfs_distinguishable(dfa, p, q):
    """Whether some word separates p and q, by search over state pairs."""
    seen = {(p, q)}
    frontier = [(p, q)]
    while frontier:
        nxt = []
        for sp, sq in frontier:
            if (sp in dfa.finals) != (sq in dfa.finals):
                return True
            for letter in dfa.alphabet:
                t = dfa.delta[letter]
                pair = (t.image[sp - 1], t.image[sq - 1])
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return False


def pair_bfs_contains(dfa, p, q):
    """Whether K_p is a subset of K_q: no word leads (p, q) to (final, non-final)."""
    seen = {(p, q)}
    frontier = [(p, q)]
    while frontier:
        nxt = []
        for sp, sq in frontier:
            if sp in dfa.finals and sq not in dfa.finals:
                return False
            for letter in dfa.alphabet:
                t = dfa.delta[letter]
                pair = (t.image[sp - 1], t.image[sq - 1])
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return True


def reached_states(dfa):
    """States reachable from the initial state, by breadth-first search."""
    reached = {dfa.initial}
    frontier = [dfa.initial]
    while frontier:
        nxt = []
        for q in frontier:
            for letter in dfa.alphabet:
                r = dfa.delta[letter].image[q - 1]
                if r not in reached:
                    reached.add(r)
                    nxt.append(r)
        frontier = nxt
    return reached


def brute_partition(dfa):
    """Indistinguishability classes of reachable states via pairwise search."""
    classes = []
    for q in sorted(reached_states(dfa)):
        for cls in classes:
            if not pair_bfs_distinguishable(dfa, cls[0], q):
                cls.append(q)
                break
        else:
            classes.append([q])
    return {frozenset(cls) for cls in classes}


def canonical_minimal(dfa):
    """The minimal DFA: brute-force classes renumbered breadth-first in letter order."""
    class_of = {q: cls for cls in brute_partition(dfa) for q in cls}
    number = {class_of[dfa.initial]: 1}
    order = [class_of[dfa.initial]]
    for cls in order:
        q = min(cls)
        for letter in dfa.alphabet:
            succ = class_of[dfa.delta[letter].image[q - 1]]
            if succ not in number:
                number[succ] = len(order) + 1
                order.append(succ)
    delta = {}
    for letter in dfa.alphabet:
        image = dfa.delta[letter].image
        delta[letter] = Transformation(
            tuple(number[class_of[image[min(cls) - 1]]] for cls in order)
        )
    finals = frozenset(number[cls] for cls in order if min(cls) in dfa.finals)
    return Dfa(len(order), dfa.alphabet, delta, 1, finals)


def pair_automaton(dfa, basis):
    """The atom's pair automaton by breadth-first search over frozenset pairs.

    The start pair is (S, complement of S); a pair whose images collide
    becomes the sink None, which loops on every letter.  States are numbered
    in discovery order with letters in alphabet order.  Returns the DFA and
    the pair of each of its states, in state order.
    """
    basis = frozenset(basis)
    start = (basis, frozenset(range(1, dfa.state_count + 1)) - basis)
    number = {start: 1}
    order = [start]
    images = {letter: [] for letter in dfa.alphabet}
    for pair in order:
        for letter in dfa.alphabet:
            succ = None
            if pair is not None:
                image = dfa.delta[letter].image
                x = frozenset(image[q - 1] for q in pair[0])
                y = frozenset(image[q - 1] for q in pair[1])
                if not x & y:
                    succ = (x, y)
            if succ not in number:
                number[succ] = len(order) + 1
                order.append(succ)
            images[letter].append(number[succ])
    finals = frozenset(
        number[pair]
        for pair in order
        if pair is not None and pair[0] <= dfa.finals and not pair[1] & dfa.finals
    )
    delta = {letter: Transformation(tuple(images[letter])) for letter in dfa.alphabet}
    return Dfa(len(order), dfa.alphabet, delta, 1, finals), order


def words_contains(dfa, p, q, max_len):
    """K_p subset of K_q, checked over every word up to max_len."""
    for length in range(max_len + 1):
        for word in product(dfa.alphabet, repeat=length):
            sp, sq = p, q
            for letter in word:
                t = dfa.delta[letter]
                sp, sq = t.image[sp - 1], t.image[sq - 1]
            if sp in dfa.finals and sq not in dfa.finals:
                return False
    return True


def brute_semigroup(dfa, cap=100000):
    """Closure of the letter images under composition, as raw tuples."""
    gens = [dfa.delta[letter].image for letter in dfa.alphabet]
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                c = tuple(g[i - 1] for i in t)
                if c not in seen:
                    seen.add(c)
                    assert len(seen) <= cap
                    nxt.append(c)
        frontier = nxt
    return seen


def brute_columns(dfa):
    """Achievable columns by set-based closure under letter preimages."""
    n = dfa.state_count
    start = frozenset(dfa.finals)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for col in frontier:
            for letter in dfa.alphabet:
                t = dfa.delta[letter]
                pre = frozenset(q for q in range(1, n + 1) if t.image[q - 1] in col)
                if pre not in seen:
                    seen.add(pre)
                    nxt.append(pre)
        frontier = nxt
    return seen


def column_signature_complexity(dfa, basis):
    """Atom complexity by counting the distinct sets of compatible columns.

    The quotient at a pair state (X, Y) is the union of the atoms whose
    column contains X and misses Y.  Atoms are non-empty and disjoint, so
    two pair states have the same quotient exactly when the same columns
    (from ``brute_columns``) are compatible with them, and the empty
    quotient is the empty set of columns.  Searches frozenset pairs from
    (S, complement of S) breadth-first; a pair with no compatible column is
    not expanded, since its images have none either.  Returns 0 for a
    non-atom.
    """
    basis = frozenset(basis)
    columns = brute_columns(dfa)
    if basis not in columns:
        return 0
    start = (basis, frozenset(range(1, dfa.state_count + 1)) - basis)
    seen = {start}
    frontier = [start]
    signatures = set()
    while frontier:
        nxt = []
        for x, y in frontier:
            signature = frozenset(c for c in columns if x <= c and not y & c)
            signatures.add(signature)
            if not signature:
                continue
            for letter in dfa.alphabet:
                image = dfa.delta[letter].image
                pair = (
                    frozenset(image[q - 1] for q in x),
                    frozenset(image[q - 1] for q in y),
                )
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return len(signatures)


def column_of(dfa, word):
    """The set of states that the word sends into the finals."""
    members = set()
    for q in range(1, dfa.state_count + 1):
        s = q
        for letter in word:
            s = dfa.delta[letter].image[s - 1]
        if s in dfa.finals:
            members.add(q)
    return frozenset(members)


@lru_cache(maxsize=1)
def _monoid_automaton(dfa):
    """Sorted monoid elements and, per element, its successor index per letter."""
    n = dfa.state_count
    elems = sorted({tuple(range(1, n + 1))} | brute_semigroup(dfa))
    index = {t: i for i, t in enumerate(elems)}
    gens = [dfa.delta[letter].image for letter in dfa.alphabet]
    succ = [[index[tuple(g[i - 1] for i in t)] for g in gens] for t in elems]
    return elems, succ


def monoid_moore_complexity(dfa, basis):
    """Atom complexity by Moore refinement over the whole monoid automaton.

    The states are the identity and every element of the transition
    semigroup, as raw tuples; reading a letter composes its image on the
    right, and a state is final when its column equals the basis.  Every
    element is refined, dead or live.  Returns 0 for a non-atom.
    """
    basis = frozenset(basis)
    n = dfa.state_count
    elems, succ = _monoid_automaton(dfa)
    block = [
        frozenset(q for q in range(1, n + 1) if t[q - 1] in dfa.finals) == basis
        for t in elems
    ]
    if not any(block):
        return 0
    count = len(set(block))
    while True:
        signatures = [(block[i], *(block[j] for j in succ[i])) for i in range(len(elems))]
        ids = {}
        block = [ids.setdefault(sig, len(ids)) for sig in signatures]
        if len(ids) == count:
            return count
        count = len(ids)


def monoid_row_atom_complexity(dfa, basis):
    """Exact atom complexity by language-level row comparison.

    A word acts through its induced transformation; membership of wx in the
    atom depends only on the composed transformation's column.  Distinct
    rows of the membership matrix over monoid elements are exactly the
    distinct quotients of the atom.  Returns 0 for a non-atom.
    """
    basis = frozenset(basis)
    n = dfa.state_count
    identity = tuple(range(1, n + 1))
    elems = {identity} | brute_semigroup(dfa)

    def col(t):
        return frozenset(q for q in range(1, n + 1) if t[q - 1] in dfa.finals)

    if not any(col(t) == basis for t in elems):
        return 0
    ordered = sorted(elems)
    rows = {
        tuple(col(tuple(u[i - 1] for i in t)) == basis for u in ordered)
        for t in ordered
    }
    return len(rows)


def _double_sum(n, size, term):
    return 1 + sum(
        term(x, y) for x in range(1, size + 1) for y in range(1, n - size + 1)
    )


def paper_atom_complexity_bound(kind_name, n, size):
    """The paper's closed form for one class (by its enum value), each class
    written out as its own double sum with its own special cells."""
    if kind_name == "regular":
        if size in (0, n):
            return 2**n - 1
        return _double_sum(n, size, lambda x, y: comb(n, x) * comb(n - x, y))
    if kind_name == "right":
        if size == 0:
            return None
        if size == n:
            return 2 ** (n - 1)
        return _double_sum(n, size, lambda x, y: comb(n - 1, x - 1) * comb(n - x, y))
    if kind_name == "left":
        if size == 0:
            return 2 ** (n - 1)
        if size == n:
            return n
        return _double_sum(n, size, lambda x, y: comb(n - 1, x) * comb(n - x - 1, y - 1))
    assert kind_name == "two-sided"
    if size == 0:
        return None
    if size == n:
        return n
    if size == n - 1:
        return 2 ** (n - 2) + n - 1
    return _double_sum(n, size, lambda x, y: comb(n - 2, x - 1) * comb(n - x - 1, y - 1))


def paper_max_atom_count(kind_name, n):
    """The paper's maximal number of atoms for one class (by its enum value)."""
    if n == 1:
        return 1
    return {
        "regular": 2**n,
        "right": 2 ** (n - 1),
        "left": 2 ** (n - 1) + 1,
        "two-sided": 2 ** (n - 2) + 1,
    }[kind_name]
