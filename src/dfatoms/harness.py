"""Independent oracles and randomized cross-checking.

The atom-complexity oracle never builds the pair automaton: it runs the DFA
whose states are the word-induced transformations (identity plus the
transition semigroup) and accepts exactly when the current transformation's
column equals the requested basis.  That DFA recognizes the same atom, so its
quotient complexity must agree with the pair-automaton route.  Moore
refinement runs only on its live part, the elements from which some word
reaches an accepting one; the dead elements all recognize the empty
language, so they are one quotient and are refined as a single sink.
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
    _moore_blocks,
    atom_bases_by_reversal,
    minimize,
    quotient_complexity,
    transition_semigroup,
)
from .errors import DfatomsError, InvalidBasisError, LimitExceededError
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


class _MonoidDfa:
    """The transformation-monoid automaton of a DFA, finals left open.

    Elements are raw image tuples in sorted order; ``rows[k][i]`` is element
    i followed by letter k, and ``preds[j]`` lists the elements some letter
    sends to element j.
    """

    def __init__(self, dfa: Dfa):
        n = dfa.state_count
        if n > ORACLE_STATE_LIMIT:
            raise LimitExceededError(
                f"monoid oracle supports at most {ORACLE_STATE_LIMIT} states, got {n}"
            )
        semigroup = {t.image for t in transition_semigroup(dfa, cap=n**n)}
        elements = sorted(semigroup | {tuple(range(1, n + 1))})
        index = {t: i for i, t in enumerate(elements)}
        padded = [(0, *dfa.delta[letter].image) for letter in dfa.alphabet]
        self.rows = [[index[tuple(map(g.__getitem__, t))] for t in elements] for g in padded]
        self.preds: list[list[int]] = [[] for _ in elements]
        for row in self.rows:
            for i, j in enumerate(row):
                self.preds[j].append(i)
        self.columns = [
            frozenset(q for q, r in enumerate(t, start=1) if r in dfa.finals)
            for t in elements
        ]

    def complexity_for(self, basis: frozenset[int]) -> int:
        """Quotient complexity of the atom of ``basis``; 0 when it is empty.

        Moore refines only the live elements, those from which some word
        reaches a final element.  Every dead element recognizes the empty
        language, so together they are one quotient: their in-edges go to a
        single non-final sink state.  Every element is reachable from the
        identity, which is live whenever the atom is non-empty, so that empty
        quotient counts exactly when a dead element exists.
        """
        finals = [col == basis for col in self.columns]
        live = [i for i, final in enumerate(finals) if final]
        if not live:
            return 0
        seen = finals[:]
        for i in live:  # closes backwards, appending to ``live`` as it goes
            for p in self.preds[i]:
                if not seen[p]:
                    seen[p] = True
                    live.append(p)
        sink = len(live)
        number = [sink] * len(finals)
        for new, i in enumerate(live):
            number[i] = new
        rows = [[number[row[i]] for i in live] for row in self.rows]
        live_finals = [finals[i] for i in live]
        if sink < len(finals):
            for row in rows:
                row.append(sink)
            live_finals.append(False)
        blocks = _moore_blocks(rows, live_finals)
        return max(blocks) + 1

    def bases(self) -> frozenset[frozenset[int]]:
        return frozenset(self.columns)


@functools.lru_cache(maxsize=1)
def _monoid(dfa: Dfa) -> _MonoidDfa:
    return _MonoidDfa(dfa)


def oracle_atom_complexity(dfa: Dfa, basis: Iterable[int]) -> int:
    """Atom complexity via the transformation-monoid automaton.

    Returns 0 when the basis names an empty intersection (no monoid element
    has that column).  Only supports small state counts; the monoid may hold
    up to n**n elements.  Repeated calls on equal DFAs share one monoid.
    """
    members = frozenset(basis)
    n = dfa.state_count
    bad = [q for q in members if not 1 <= q <= n]
    if bad:
        raise InvalidBasisError(f"basis ids {sorted(bad)} not within 1..{n}")
    return _monoid(dfa).complexity_for(members)


def reversal_quotient_complexity(dfa: Dfa) -> int:
    """Quotient complexity of the reversed language.

    Built the long way round: reverse every transition into a
    nondeterministic table, determinize by subset construction from the final
    set, and minimize the result.
    """
    n = dfa.state_count
    rev: dict[str, list[set[int]]] = {
        letter: [set() for _ in range(n)] for letter in dfa.alphabet
    }
    for letter in dfa.alphabet:
        t = dfa.delta[letter]
        for q in range(1, n + 1):
            rev[letter][t(q) - 1].add(q)

    start = frozenset(dfa.finals)
    subsets = [start]
    index = {start: 0}
    rows: list[list[int]] = [[] for _ in dfa.alphabet]
    pos = 0
    while pos < len(subsets):
        current = subsets[pos]
        for k, letter in enumerate(dfa.alphabet):
            image = frozenset(p for q in current for p in rev[letter][q - 1])
            j = index.get(image)
            if j is None:
                j = len(subsets)
                index[image] = j
                subsets.append(image)
            rows[k].append(j)
        pos += 1

    delta = {
        letter: Transformation(tuple(j + 1 for j in rows[k]))
        for k, letter in enumerate(dfa.alphabet)
    }
    finals = frozenset(i + 1 for i, s in enumerate(subsets) if dfa.initial in s)
    return quotient_complexity(Dfa(len(subsets), dfa.alphabet, delta, 1, finals))


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


def cross_check(dfa: Dfa, description: str = "") -> CrossCheckReport:
    """Compare every atom-related route on one (small) DFA.

    The input is minimized first.  Compares three independent basis
    enumerations on every subset of the state set: the column closure, the
    raw pair automaton (the atom is non-empty exactly when some explored pair
    state is final) and the monoid columns.  ``is_atom``, which reads the
    columns, gates the two complexity routes, and the atom count is the
    number of columns.
    """
    minimal = minimize(dfa)
    n = minimal.state_count
    if n > ORACLE_STATE_LIMIT:
        raise LimitExceededError(
            f"cross_check supports at most {ORACLE_STATE_LIMIT} states, got {n}"
        )
    monoid = _MonoidDfa(minimal)

    column_bases = atom_bases_by_reversal(minimal)
    emptiness_bases = set()
    checks = []
    for mask in range(1 << n):
        basis = frozenset(q for q in range(1, n + 1) if mask & (1 << (q - 1)))
        if any(_explore(minimal, mask)[2]):
            emptiness_bases.add(basis)
        pair_route = atom_complexity(minimal, basis) if is_atom(minimal, basis) else 0
        checks.append(BasisCheck(basis, pair_route, monoid.complexity_for(basis)))
    routes_agree = column_bases == frozenset(emptiness_bases) == monoid.bases()

    return CrossCheckReport(
        description=description or f"dfa(n={dfa.state_count})",
        basis_checks=tuple(checks),
        routes_agree=routes_agree,
        atom_count=len(column_bases),
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
    are skipped and reported.
    """
    if n > 7:
        raise ValueError("bound sweeps support n <= 7")
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
            if info.complexity is None:
                raise DfatomsError(f"{label}: basis {sorted(info.basis)} has no complexity")
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
