"""Independent oracles and randomized cross-checking.

The atom-complexity oracle never builds the pair automaton: it runs the DFA
whose states are the word-induced transformations (the transformation
monoid) and accepts exactly when the current transformation's column equals
the requested basis.  That DFA recognizes the same atom, so its quotient
complexity must agree with the pair-automaton route.  The monoid automaton is
built once per DFA, by one breadth-first search of its own over raw image
tuples from the identity, and its elements are grouped by column, so a basis
finds its final elements with one lookup.

Moore refinement runs only on the live part, the elements from which some
word reaches an accepting one; the dead elements all recognize the empty
language, so they are one quotient and are refined as a single sink.  It
starts from each live element's distance to the atom, the length of the
shortest word that leads it to an accepting element, with the sink labelled
-1.  Elements with equal languages have equal shortest words, so the
distances split no quotient, and distance 0 is exactly finality: refining
them yields the same coarsest stable partition as refining final/non-final,
in fewer rounds.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterable

from .atoms import _explore, atom_complexity, enumerate_atoms, is_atom
from .bounds import bound_for_basis
from .dfa import (
    SUBSET_OP_LIMIT,
    Dfa,
    Transformation,
    _Frozen,
    _array_dfa,
    _basis_members,
    _discover,
    _moore_blocks,
    _set_of,
    minimize,
    quotient_complexity,
)
from .errors import LimitExceededError
from .ideals import IdealKind, accepting_sink, idealize
from .witnesses import WitnessClass, witness

ORACLE_STATE_LIMIT = 6
_LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"


class RandomSpec(_Frozen):
    """Seeded recipe for one random complete DFA.

    Generation is a pure function of the seed: a Mersenne Twister
    (random.Random) is seeded with it and consumed only through random();
    per letter, one uniform image per state in state order, then final flags
    with probability final_density per state, redrawn until the final set is
    neither empty nor everything.  A one-state DFA gets final set {1}.
    """

    __slots__ = ("state_count", "letters", "seed", "final_density")

    def __init__(
        self, state_count: int, letters: int, seed: int, final_density: float = 0.5
    ) -> None:
        self._fill(state_count, letters, seed, final_density)
        if self.state_count < 1:
            raise ValueError("state_count must be at least 1")
        if not 1 <= self.letters <= len(_LETTER_NAMES):
            raise ValueError(f"letters must be in 1..{len(_LETTER_NAMES)}")
        if not 0 < self.final_density < 1:
            raise ValueError("final_density must be strictly between 0 and 1")


def random_dfa(spec: RandomSpec) -> Dfa:
    """The DFA determined by ``spec``; equal specs give equal DFAs."""
    rng = random.Random(spec.seed)
    n = spec.state_count
    names = tuple(_LETTER_NAMES[: spec.letters])
    delta = {
        name: Transformation(
            tuple(min(int(rng.random() * n), n - 1) + 1 for _ in range(n))
        )
        for name in names
    }
    if n == 1:
        finals = frozenset({1})
    else:
        while True:
            finals = frozenset(
                q for q in range(1, n + 1) if rng.random() < spec.final_density
            )
            if finals and len(finals) < n:
                break
    return Dfa(n, names, delta, 1, finals)


def _backward_distances(
    preds: list[list[int]], targets: list[int]
) -> tuple[list[int], list[int]]:
    """Breadth-first distances to ``targets`` along the reversed edges ``preds``.

    Returns the nodes that reach some target, in order of distance, and each
    node's distance, the length of its shortest path to a target; -1 marks
    the nodes that reach none.
    """
    distance = [-1] * len(preds)
    for i in targets:
        distance[i] = 0
    order = list(targets)
    for i in order:  # appends to ``order`` as it goes
        d = distance[i] + 1
        for p in preds[i]:
            if distance[p] < 0:
                distance[p] = d
                order.append(p)
    return order, distance


class _MonoidDfa:
    """The transformation-monoid automaton of a DFA, finals left open.

    Elements are raw image tuples numbered breadth-first from the identity;
    ``rows[k][i]`` is element i followed by letter k, ``preds[j]`` lists the
    elements some letter sends to element j, and ``by_column`` maps each
    column to the elements that have it.
    """

    def __init__(self, dfa: Dfa):
        n = dfa.state_count
        if n > ORACLE_STATE_LIMIT:
            raise LimitExceededError(
                f"monoid oracle supports at most {ORACLE_STATE_LIMIT} states, got {n}"
            )
        padded = [(0, *dfa.delta[letter].image) for letter in dfa.alphabet]
        identity = tuple(range(1, n + 1))
        elements = [identity]
        index = {identity: 0}
        self.rows = rows = [[] for _ in padded]
        self.preds = preds = [[]]
        self.by_column: dict[frozenset[int], list[int]] = {}
        for i, t in enumerate(elements):  # appends to ``elements`` as it goes
            column = frozenset(q for q, r in enumerate(t, start=1) if r in dfa.finals)
            self.by_column.setdefault(column, []).append(i)
            for g, row in zip(padded, rows):
                image = tuple(map(g.__getitem__, t))
                j = index.get(image)
                if j is None:
                    j = index[image] = len(elements)
                    elements.append(image)
                    preds.append([])
                row.append(j)
                preds[j].append(i)

    def complexity_for(self, basis: frozenset[int]) -> int:
        """Quotient complexity of the atom of ``basis``; 0 when it is empty.

        Moore refines only the live elements, those from which some word
        reaches a final element, found by closing the final elements
        backwards, breadth-first, so each gets its distance to the atom.
        Every dead element recognizes the empty language, so together they
        are one quotient: their in-edges go to a single sink state, labelled
        -1.  Every element is reachable from the identity, which is live
        whenever the atom is non-empty, so that empty quotient counts exactly
        when a dead element exists.
        """
        finals = self.by_column.get(basis)
        if finals is None:
            return 0
        live, distance = _backward_distances(self.preds, finals)
        sink = len(live)
        number = [sink] * len(distance)
        for new, i in enumerate(live):
            number[i] = new
        rows = [[number[row[i]] for i in live] for row in self.rows]
        labels = [distance[i] for i in live]
        if sink < len(distance):
            for row in rows:
                row.append(sink)
            labels.append(-1)
        return max(_moore_blocks(rows, labels)) + 1

    def bases(self) -> frozenset[frozenset[int]]:
        return frozenset(self.by_column)


@functools.lru_cache(maxsize=1)
def _monoid(dfa: Dfa) -> _MonoidDfa:
    return _MonoidDfa(dfa)


def oracle_atom_complexity(dfa: Dfa, basis: Iterable[int]) -> int:
    """Atom complexity via the transformation-monoid automaton.

    Returns 0 when the basis names an empty intersection (no monoid element
    has that column).  Only supports small state counts; the monoid may hold
    up to n**n elements.  Repeated calls on equal DFAs share one monoid.
    """
    return _monoid(dfa).complexity_for(_basis_members(dfa.state_count, basis))


def reversal_quotient_complexity(dfa: Dfa) -> int:
    """Quotient complexity of the reversed language.

    Built the long way round: reverse every transition into a
    nondeterministic table, determinize by subset construction from the final
    set, and minimize the result.  The subsets are frozensets mapped one
    member at a time, with no chunk tables, so this stays independent of the
    column closure it checks.
    """
    n = dfa.state_count
    rev = [[set() for _ in range(n)] for _ in dfa.alphabet]  # rev[k][r-1]: states sent onto r
    for letter, sources in zip(dfa.alphabet, rev):
        for q, r in enumerate(dfa.delta[letter].image, start=1):
            sources[r - 1].add(q)
    step = lambda current, _: [
        frozenset(p for q in current for p in sources[q - 1]) for sources in rev
    ]
    subsets, rows = _discover([frozenset(dfa.finals)], step, len(rev))
    return quotient_complexity(
        _array_dfa(dfa.alphabet, rows, [dfa.initial in s for s in subsets])
    )


class BasisCheck(_Frozen):
    __slots__ = ("basis", "pair_route", "oracle_route")

    def __init__(self, basis: frozenset[int], pair_route: int, oracle_route: int) -> None:
        self._fill(basis, pair_route, oracle_route)

    @property
    def match(self) -> bool:
        return self.pair_route == self.oracle_route


class CrossCheckReport(_Frozen):
    """Agreement report between the pair-automaton route and the oracles."""

    __slots__ = (
        "description", "basis_checks", "routes_agree", "atom_count", "reversal_complexity"
    )

    def __init__(
        self, description: str, basis_checks: tuple[BasisCheck, ...], routes_agree: bool,
        atom_count: int, reversal_complexity: int,
    ) -> None:
        self._fill(description, basis_checks, routes_agree, atom_count, reversal_complexity)

    @property
    def passed(self) -> bool:
        return (
            self.routes_agree
            and self.atom_count == self.reversal_complexity
            and all(check.match for check in self.basis_checks)
        )


def _emptiness_bases(dfa: Dfa) -> frozenset[frozenset[int]]:
    """The bases S whose pair automaton reaches a final pair state.

    The pair automata of all 2^n start pairs (S, complement of S) are
    explored at once, start i being that of mask i, and the final pair
    states are closed backwards; the atom of S is non-empty exactly when
    that closure reaches S's start pair.
    """
    n = dfa.state_count
    _, rows, finals = _explore(dfa, range(1 << n))
    preds: list[list[int]] = [[] for _ in finals]
    for row in rows:
        for i, j in enumerate(row):
            preds[j].append(i)
    _, distance = _backward_distances(preds, [i for i, final in enumerate(finals) if final])
    return frozenset(_set_of(mask) for mask in range(1 << n) if distance[mask] >= 0)


def cross_check(dfa: Dfa, description: str = "") -> CrossCheckReport:
    """Compare every atom-related route on one (small) DFA.

    The input is minimized first.  Compares three independent basis
    enumerations on every subset of the state set: the column closure, the
    raw pair automata (``_emptiness_bases``) and the monoid columns.
    ``is_atom``, which reads the columns, gates the two complexity routes,
    and each atom's complexity from the one pass of ``enumerate_atoms`` must
    equal its pair route.  The atom count is the number of columns.
    """
    minimal = minimize(dfa)
    monoid = _MonoidDfa(minimal)  # refuses more than ORACLE_STATE_LIMIT states

    one_pass = {info.basis: info.complexity for info in enumerate_atoms(minimal).atoms}
    checks = []
    for mask in range(1 << minimal.state_count):
        basis = _set_of(mask)
        pair_route = atom_complexity(minimal, basis) if is_atom(minimal, basis) else 0
        checks.append(BasisCheck(basis, pair_route, monoid.complexity_for(basis)))
    routes_agree = (
        frozenset(one_pass) == _emptiness_bases(minimal) == monoid.bases()
        and all(one_pass.get(check.basis, 0) == check.pair_route for check in checks)
    )

    return CrossCheckReport(
        description=description or f"dfa(n={dfa.state_count})",
        basis_checks=tuple(checks),
        routes_agree=routes_agree,
        atom_count=len(one_pass),
        reversal_complexity=reversal_quotient_complexity(minimal),
    )


class SweepReport(_Frozen):
    """Outcome of a randomized bound-saturation sweep for one class."""

    __slots__ = (
        "kind", "n", "samples", "seed", "checked",
        "max_observed", "violations", "witness_attains", "skipped",
    )

    def __init__(
        self, kind: WitnessClass, n: int, samples: int, seed: int, checked: int,
        max_observed: dict[int, int], violations: tuple[str, ...], witness_attains: bool,
        skipped: tuple[str, ...],
    ) -> None:
        self._fill(
            kind, n, samples, seed, checked, max_observed, violations, witness_attains, skipped
        )

    @property
    def passed(self) -> bool:
        return not self.violations


def _sweep_witness(kind: WitnessClass, n: int) -> Dfa:
    if n == 1:
        return Dfa(1, ("a",), {"a": Transformation.identity(1)}, 1, frozenset({1}))
    return witness(kind, n)


def bound_sweep(kind: WitnessClass, n: int, samples: int, seed: int) -> SweepReport:
    """Generate random DFAs, close them into the class, and verify that every
    atom complexity respects the class bound.

    The class witness is always included and must attain its bounds exactly.
    Instances whose minimized complexity exceeds the subset-operation limit
    are skipped and reported.  Sweeps support n <= 10 for the ideal classes
    and n <= 7 for regular languages.
    """
    limit = 7 if kind is WitnessClass.REGULAR else 10
    if n > limit:
        raise ValueError(f"{kind.value} bound sweeps support n <= {limit}")
    instances: list[tuple[str, Dfa]] = [("witness", _sweep_witness(kind, n))]
    for i in range(samples):
        spec = RandomSpec(n, 3, seed + i)
        instances.append((f"seed={seed + i}", random_dfa(spec)))

    violations = []
    skipped = []
    max_observed: dict[int, int] = {}
    witness_attains = True
    checked = 0
    for label, instance in instances:
        if kind is WitnessClass.REGULAR:
            closed = instance
        else:
            closed = idealize(instance, IdealKind(kind.value))
        minimal = minimize(closed)
        m = minimal.state_count
        if not minimal.finals:
            skipped.append(f"{label}: empty language")
            continue
        if m > SUBSET_OP_LIMIT:
            skipped.append(f"{label}: minimized complexity {m}")
            continue
        sink = accepting_sink(minimal)
        checked += 1
        for info in enumerate_atoms(minimal).atoms:
            size = len(info.basis)
            bound = bound_for_basis(kind, m, info.basis, sink=sink)
            if bound is None or info.complexity > bound:
                violations.append(
                    f"{label}: basis {sorted(info.basis)} complexity "
                    f"{info.complexity} exceeds bound {bound}"
                )
            elif label == "witness" and info.complexity != bound:
                witness_attains = False
            if size not in max_observed or info.complexity > max_observed[size]:
                max_observed[size] = info.complexity
    return SweepReport(
        kind=kind,
        n=n,
        samples=samples,
        seed=seed,
        checked=checked,
        max_observed=max_observed,
        violations=tuple(violations),
        witness_attains=witness_attains,
        skipped=tuple(skipped),
    )
