"""The benchmark's own automata code: seeded inputs and reference answers.

Nothing here imports the package under test.  DFAs are plain tuples:
``(n, letters, delta, finals)`` with states 0..n-1, initial state 0,
``delta[k][q]`` the image of state q under letter k, and ``finals`` a bit
mask.  Files are written in the ``dfa v1`` format with 1-based states.
"""

from __future__ import annotations

import random
from math import comb

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def random_dfa(rng: random.Random, n: int, k: int, final_p: float) -> tuple:
    """A uniformly random complete DFA; each state is final with ``final_p``."""
    delta = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k))
    finals = 0
    for q in range(n):
        if rng.random() < final_p:
            finals |= 1 << q
    return n, tuple(LETTERS[:k]), delta, finals


def render(dfa: tuple) -> str:
    n, letters, delta, finals = dfa
    lines = ["dfa v1", f"states {n}", "alphabet " + " ".join(letters), "initial 1",
             ("final " + " ".join(str(q + 1) for q in range(n) if finals >> q & 1)).rstrip()]
    for letter, row in zip(letters, delta):
        lines.append(f"trans {letter} " + " ".join(str(q + 1) for q in row))
    return "\n".join(lines) + "\n"


def parse(text: str) -> tuple:
    """Read a ``dfa v1`` document whose initial state is 1."""
    fields = {}
    rows = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "trans":
            rows.append(tokens[1:])
        else:
            fields[tokens[0]] = tokens[1:]
    if fields.get("dfa") != ["v1"] or fields.get("initial") != ["1"]:
        raise ValueError("not a dfa v1 document with initial state 1")
    n = int(fields["states"][0])
    letters = tuple(fields["alphabet"])
    by_letter = {row[0]: tuple(int(q) - 1 for q in row[1:]) for row in rows}
    delta = tuple(by_letter[letter] for letter in letters)
    finals = sum(1 << (int(q) - 1) for q in fields["final"])
    return n, letters, delta, finals


def minimize(dfa: tuple) -> tuple:
    """Minimal DFA of the reachable part, states numbered breadth-first."""
    n, letters, delta, finals = dfa
    order = [0]
    seen = {0}
    for q in order:
        for row in delta:
            if row[q] not in seen:
                seen.add(row[q])
                order.append(row[q])
    block = {q: finals >> q & 1 for q in order}
    count = len(set(block.values()))
    while True:
        sigs: dict[tuple, int] = {}
        new = {q: sigs.setdefault((block[q],) + tuple(block[row[q]] for row in delta), len(sigs))
               for q in order}
        if len(sigs) == count:
            break
        block, count = new, len(sigs)
    # Renumber the blocks in breadth-first order from the initial block.
    rep = {}
    for q in order:
        rep.setdefault(block[q], q)
    ids = {block[0]: 0}
    queue = [block[0]]
    for b in queue:
        for row in delta:
            c = block[row[rep[b]]]
            if c not in ids:
                ids[c] = len(ids)
                queue.append(c)
    m = len(ids)
    new_delta = tuple(
        tuple(ids[block[row[rep[b]]]] for b in queue) for row in delta
    )
    new_finals = sum(1 << ids[b] for b in queue if finals >> rep[b] & 1)
    return m, letters, new_delta, new_finals


def prefix_closure(dfa: tuple) -> tuple:
    """DFA of Σ*L: subset construction where every subset keeps the initial state."""
    n, letters, delta, finals = dfa
    subsets = [1]
    index = {1: 0}
    rows = [[] for _ in delta]
    for current in subsets:
        for k, row in enumerate(delta):
            image = 1
            for q in range(n):
                if current >> q & 1:
                    image |= 1 << row[q]
            j = index.setdefault(image, len(subsets))
            if j == len(subsets):
                subsets.append(image)
            rows[k].append(j)
    closed_finals = sum(1 << i for i, s in enumerate(subsets) if s & finals)
    return len(subsets), letters, tuple(tuple(r) for r in rows), closed_finals


def suffix_closure(dfa: tuple) -> tuple:
    """DFA of LΣ*: final states made absorbing."""
    n, letters, delta, finals = dfa
    absorbed = tuple(tuple(q if finals >> q & 1 else row[q] for q in range(n)) for row in delta)
    return n, letters, absorbed, finals


def ideal_closure(dfa: tuple, kind: str) -> tuple:
    """Minimal DFA of the left (Σ*L) or two-sided (Σ*LΣ*) ideal closure."""
    if kind == "two-sided":
        dfa = suffix_closure(dfa)
    return minimize(prefix_closure(dfa))


def containment_pairs(minimal: tuple, every: int = 1) -> int:
    """State pairs a left-ideal test visits: those reachable from (initial, q), summed over q.

    It is at least n² and at most n³, and it sets the cost of ``check-ideal``
    on a left or two-sided ideal, where no containment search stops early.
    With ``every`` > 1, only every such q is searched and the sum is scaled up:
    an estimate.
    """
    n, _, delta, _ = minimal
    starts = range(0, n, every)
    total = 0
    for q in starts:
        seen = {q}
        stack = [q]
        while stack:
            a, b = divmod(stack.pop(), n)
            for row in delta:
                pair = row[a] * n + row[b]
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
        total += len(seen)
    return total * n // len(starts)


def is_right_ideal(minimal: tuple) -> bool:
    n, _, delta, finals = minimal
    return all(finals >> row[q] & 1 for row in delta for q in range(n) if finals >> q & 1)


def atom_complexity(dfa: tuple, basis: int, cap: int | None = None) -> int | None:
    """Quotient complexity of the atom named by the basis mask, 0 for a non-atom.

    Builds the pair automaton and counts its language classes by Moore
    refinement; the sink and every empty pair state form one class.  Returns
    None as soon as more than ``cap`` pair states are reachable.
    """
    n, _, delta, finals = dfa
    full = (1 << n) - 1
    images = []
    for row in delta:
        images.append([1 << row[q] for q in range(n)])

    def image(mask: int, bits: list[int]) -> int:
        out = 0
        for q in range(n):
            if mask >> q & 1:
                out |= bits[q]
        return out

    start = (basis, full ^ basis)
    states = [start]
    index = {start: 0}
    succ = []
    accepting = []
    for x, y in states:
        if x is None:
            accepting.append(0)
            succ.append([index[(None, None)]] * len(images))
            continue
        accepting.append(int(x & ~finals == 0 and y & finals == 0))
        out = []
        for bits in images:
            nx, ny = image(x, bits), image(y, bits)
            key = (None, None) if nx & ny else (nx, ny)
            j = index.setdefault(key, len(states))
            if j == len(states):
                states.append(key)
            out.append(j)
        succ.append(out)
        if cap is not None and len(states) > cap:
            return None
    if not any(accepting):
        return 0
    block = accepting
    count = len(set(block))
    while True:
        sigs: dict[tuple, int] = {}
        new = [sigs.setdefault((block[i],) + tuple(block[j] for j in succ[i]), len(sigs))
               for i in range(len(states))]
        if len(sigs) == count:
            return count
        block, count = new, len(sigs)


# Closed-form maxima of Brzozowski and Davies for atom counts and atom
# complexities per class; the witness families attain them.

def max_atom_count(kind: str, n: int) -> int:
    return {"regular": 1 << n, "right": 1 << (n - 1),
            "left": (1 << (n - 1)) + 1, "two-sided": (1 << (n - 2)) + 1}[kind]


def _pair_sum(n: int, size: int, x_ways, y_ways) -> int:
    return sum(x_ways(x) * y_ways(x, y) for x in range(1, size + 1)
               for y in range(1, n - size + 1))


def size_bound(kind: str, n: int, size: int) -> int:
    if kind == "regular":
        if size in (0, n):
            return (1 << n) - 1
        return 1 + _pair_sum(n, size, lambda x: comb(n, x), lambda x, y: comb(n - x, y))
    if kind == "right":
        if size == n:
            return 1 << (n - 1)
        return 1 + _pair_sum(n, size, lambda x: comb(n - 1, x - 1), lambda x, y: comb(n - x, y))
    if kind == "left":
        if size == 0:
            return 1 << (n - 1)
        if size == n:
            return n
        return 1 + _pair_sum(n, size, lambda x: comb(n - 1, x), lambda x, y: comb(n - x - 1, y - 1))
    if size == n:
        return n
    if size == n - 1:
        return (1 << (n - 2)) + n - 1
    return 1 + _pair_sum(n, size, lambda x: comb(n - 2, x - 1), lambda x, y: comb(n - x - 1, y - 1))


def witness_atoms(kind: str, minimal: tuple) -> dict[frozenset[int], int]:
    """Every atom basis (1-based) of a minimal class witness with its complexity.

    A basis is admitted by the class when it holds the accepting sink where
    the class requires it and omits the initial state 1 where the class
    requires that, unless it is the full state set.
    """
    n, _, delta, finals = minimal
    sinks = [q + 1 for q in range(n) if finals >> q & 1 and all(row[q] == q for row in delta)]
    sink = sinks[0] if len(sinks) == 1 else None
    out = {}
    for mask in range(1 << n):
        basis = frozenset(q + 1 for q in range(n) if mask >> q & 1)
        full = len(basis) == n
        if kind in ("right", "two-sided") and sink not in basis:
            continue
        if kind in ("left", "two-sided") and 1 in basis and not full:
            continue
        out[basis] = size_bound(kind, n, len(basis))
    return out
