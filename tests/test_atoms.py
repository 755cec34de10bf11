import functools
import inspect
import itertools
import random
import sys

import pytest

from dfatoms import (
    Dfa,
    InvalidBasisError,
    LimitExceededError,
    NotAnAtomError,
    PairState,
    RandomSpec,
    Transformation,
    atom_bases_by_reversal,
    atom_complexity,
    atom_complexity_bound,
    build_atom_dfa,
    distinguishability_classes,
    enumerate_atoms,
    is_atom,
    left_ideal_witness,
    minimize,
    quotient_complexity,
    random_dfa,
    reachable_pair_states,
    regular_witness,
    right_ideal_witness,
    two_sided_ideal_witness,
    witness,
    WitnessClass,
)
from dfatoms import atoms
from dfatoms._orbits import _OrbitCounter
from oracles import column_of, monoid_row_atom_complexity


def one_state_accept_all():
    return Dfa(1, ("a",), {"a": Transformation.identity(1)}, 1, frozenset({1}))


def test_pair_state_disjointness():
    with pytest.raises(ValueError):
        PairState(frozenset({1, 2}), frozenset({2}))
    bottom = PairState.bottom()
    assert bottom.is_bottom and not bottom.x and not bottom.y


def test_atom_dfa_of_regular_witness_singleton():
    d = build_atom_dfa(regular_witness(3), {3})
    assert quotient_complexity(d) == 10


def test_initial_pair_is_final_when_basis_is_finals():
    for d in (regular_witness(4), left_ideal_witness(3), right_ideal_witness(4)):
        atom_dfa = build_atom_dfa(d, d.finals)
        assert 1 in atom_dfa.finals  # (F, complement) accepts the empty word


def test_full_basis_of_left_witness_collapses_to_n():
    d = left_ideal_witness(4)
    pairs = reachable_pair_states(d, {1, 2, 3, 4})
    assert all(not p.y for p in pairs if not p.is_bottom)
    assert quotient_complexity(build_atom_dfa(d, {1, 2, 3, 4})) == 4
    assert atom_complexity(d, {1, 2, 3, 4}) == 4


def test_basis_validation():
    d = regular_witness(3)
    with pytest.raises(InvalidBasisError):
        build_atom_dfa(d, {0})
    with pytest.raises(InvalidBasisError):
        build_atom_dfa(d, [[1]])
    with pytest.raises(InvalidBasisError):
        atom_complexity(d, {1, 4})


ATOM_LIMIT = "atom operations support at most 20 states, got 21"
COLUMN_LIMIT = "column enumeration supports at most 20 states, got 21"


@pytest.mark.parametrize(
    "operation, args, message",
    [
        (build_atom_dfa, ({1},), ATOM_LIMIT),
        (reachable_pair_states, ({1},), ATOM_LIMIT),
        (is_atom, ({1},), ATOM_LIMIT),
        (atom_complexity, ({1},), ATOM_LIMIT),
        (enumerate_atoms, (), COLUMN_LIMIT),
        (atom_bases_by_reversal, (), COLUMN_LIMIT),
    ],
    ids=[
        "build_atom_dfa", "reachable_pair_states", "is_atom", "atom_complexity",
        "enumerate_atoms", "atom_bases_by_reversal",
    ],
)
def test_state_limit_enforced(operation, args, message):
    # A minimal DFA: enumerate_atoms minimizes before it enumerates columns.
    with pytest.raises(LimitExceededError, match=f"^{message}$"):
        operation(regular_witness(21), *args)


def test_is_atom_right_witness_needs_sink():
    assert not is_atom(right_ideal_witness(4), {1})
    assert is_atom(right_ideal_witness(4), {1, 4})


def test_is_atom_left_witness():
    assert is_atom(left_ideal_witness(5), {2, 5})
    assert not is_atom(left_ideal_witness(5), {1, 5})


def test_is_atom_agrees_with_column_membership():
    for seed in range(30):
        d = random_dfa(RandomSpec(2 + seed % 4, 2 + seed % 2, seed=4000 + seed))
        bases = atom_bases_by_reversal(d)
        n = d.state_count
        for mask in range(1 << n):
            basis = frozenset(q for q in range(1, n + 1) if mask & (1 << (q - 1)))
            assert is_atom(d, basis) == (basis in bases)


def test_atom_complexity_two_sided_example():
    assert atom_complexity(two_sided_ideal_witness(4), {2, 3, 4}) == 7


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_atom_complexity_full_basis_left_witness(n):
    assert atom_complexity(left_ideal_witness(n), frozenset(range(1, n + 1))) == n


def test_atom_complexity_regular_two_subsets():
    d = regular_witness(5)
    for basis in ({1, 2}, {2, 4}, {3, 5}):
        assert atom_complexity(d, basis) == 141


def test_atom_complexity_rejects_non_atom():
    with pytest.raises(NotAnAtomError):
        atom_complexity(right_ideal_witness(4), {1})


def test_atom_complexity_equals_quotient_of_atom_dfa():
    for seed in range(20):
        d = minimize(random_dfa(RandomSpec(2 + seed % 4, 2, seed=500 + seed)))
        for basis in atom_bases_by_reversal(d):
            assert atom_complexity(d, basis) == quotient_complexity(
                build_atom_dfa(d, basis)
            )


def test_atom_complexity_matches_row_oracle():
    targets = [witness(kind, n) for kind in WitnessClass for n in (2, 3, 4)]
    targets += [
        minimize(random_dfa(RandomSpec(2 + seed % 3, 2, seed=800 + seed)))
        for seed in range(10)
    ]
    for d in targets:
        n = d.state_count
        for mask in range(1 << n):
            basis = frozenset(q for q in range(1, n + 1) if mask & (1 << (q - 1)))
            expected = monoid_row_atom_complexity(d, basis)
            if expected == 0:
                assert not is_atom(d, basis)
            else:
                assert atom_complexity(d, basis) == expected


@pytest.mark.parametrize("basis, most", [({3}, 1_700), ({1, 2}, 6_000)])
def test_quotient_walk_canonicalizes_few_images(monkeypatch, basis, most):
    # Images already seen, and images under the witness's permutation
    # letters, are keys already: only the other images need ``key``.
    # Without the shortcuts the walk calls it 15,331 and 49,726 times.
    calls = 0
    key = atoms._QuotientEngine.key

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return key(self, x, y)

    monkeypatch.setattr(atoms._QuotientEngine, "key", counted)
    d = witness(WitnessClass.REGULAR, 10)
    complexity = atoms._QuotientEngine(d).complexity(atoms._basis_mask(d, basis))
    assert complexity == atom_complexity_bound(WitnessClass.REGULAR, 10, len(basis))
    assert calls <= most


@pytest.mark.parametrize(
    "kind, keys, components",
    [
        (WitnessClass.REGULAR, 6_561, 45),
        (WitnessClass.RIGHT_IDEAL, 2_188, 37),
        (WitnessClass.LEFT_IDEAL, 2_196, 37),
        (WitnessClass.TWO_SIDED_IDEAL, 738, 30),
    ],
    ids=[kind.value for kind in WitnessClass],
)
def test_key_graph_of_witnesses_n8(kind, keys, components):
    # For the regular witness every state set is a column, so each pair
    # (X, Y) of disjoint subsets of the 8 states is a key.  All but
    # (empty, empty), the quotient of every word, are reached: 3^8 - 1 keys
    # plus the empty quotient None.  The pins make a rise in work fail here.
    nodes, rows = atoms._QuotientEngine(witness(kind, 8)).key_graph()
    assert len(nodes) == keys
    assert None in nodes
    assert 0 not in nodes
    assert len(atoms._reach(rows)[1]) == components


def doubled(dfa):
    """A non-minimal DFA: each state q of ``dfa`` gets a twin q + m whose
    letters lead into the twins, so q and its twin have one language."""
    m = dfa.state_count
    delta = {}
    for letter in dfa.alphabet:
        image = dfa.delta[letter].image
        delta[letter] = Transformation(image + tuple(r + m for r in image))
    finals = dfa.finals | {q + m for q in dfa.finals}
    return Dfa(2 * m, dfa.alphabet, delta, dfa.initial, frozenset(finals))


def brute_key(engine, x, y):
    """The key of (x, y) read off the compatible columns one by one."""
    compatible = [col for col in engine.columns if col & x == x and not col & y]
    if not compatible:
        return None
    inside_all = engine.full
    outside_all = engine.full
    for col in compatible:
        inside_all &= col
        outside_all &= engine.full ^ col
    return inside_all | outside_all << engine.n


KEY_CASES = [
    regular_witness(5),
    left_ideal_witness(6),
    two_sided_ideal_witness(7),
    random_dfa(RandomSpec(6, 2, seed=7)),
    random_dfa(RandomSpec(7, 3, seed=11)),
    doubled(regular_witness(3)),
]


@pytest.mark.parametrize(
    "dfa", KEY_CASES,
    ids=["regular-5", "left-6", "two-sided-7", "random-6", "random-7", "doubled-regular-3"],
)
def test_key_matches_brute_force_on_every_disjoint_pair(dfa):
    # At n = 5..7 the packed Y starts inside a 4-bit chunk of the key tables.
    engine = atoms._QuotientEngine(dfa)
    n, full = engine.n, engine.full
    for x in range(1 << n):
        rest = full ^ x
        y = rest
        while True:
            assert engine.key(x, y) == brute_key(engine, x, y), (x, y)
            if not y:
                break
            y = (y - 1) & rest


def test_doubled_dfa_is_not_minimal():
    d = doubled(regular_witness(3))
    assert minimize(d).state_count == 3 < d.state_count


def universal_dfa(n, finals, fix_last):
    """States 1..n, initial 1, and one letter per map of the states, or per
    map fixing n when ``fix_last``."""
    maps = [
        m for m in itertools.product(range(1, n + 1), repeat=n) if not fix_last or m[-1] == n
    ]
    names = [f"t{i}" for i in range(len(maps))]
    delta = {name: Transformation(m) for name, m in zip(names, maps)}
    return Dfa(n, names, delta, 1, frozenset(finals))


UNIVERSAL_CASES = [
    (WitnessClass.RIGHT_IDEAL, 4, {4}),
    (WitnessClass.RIGHT_IDEAL, 5, {5}),
    pytest.param(WitnessClass.RIGHT_IDEAL, 6, {6}, marks=pytest.mark.slow),
    (WitnessClass.REGULAR, 4, {4}),
    (WitnessClass.REGULAR, 4, {3, 4}),
    (WitnessClass.REGULAR, 4, {2, 3, 4}),
    (WitnessClass.REGULAR, 5, {5}),
]


@pytest.mark.parametrize(
    "kind, n, finals", UNIVERSAL_CASES,
    ids=["right-4", "right-5", "right-6", "regular-4-f1", "regular-4-f2", "regular-4-f3",
         "regular-5"],
)
def test_universal_automata_attain_exactly_the_bounds(kind, n, finals):
    """The right-ideal and regular rows are maxima over the whole class.

    Adding letters never lowers an atom's complexity: over an alphabet
    extending Sigma, the state languages, and so each atom, meet Sigma* in
    what they were over Sigma, so quotients that differ over Sigma still
    differ.  A minimal DFA of a right ideal with n quotients has one final
    state, the accepting sink; numbered n, its letters are maps fixing n, so
    it is a letter-restriction of U: states 1..n, final {n}, one letter per
    map fixing n.  A regular language with n quotients is likewise a
    letter-restriction of U with all n^n maps as letters and its own final
    set; with every map a letter, two quotients of an atom differ exactly
    when their pairs (X, Y) do, whatever the proper final set, which the
    n = 4 cases check for each final-set size.  Atoms are intersections of
    state languages, so the initial state does not matter, and U is itself
    in its class, so its per-size maxima are the class's.  The one pass
    gives every basis at once.

    Left and two-sided ideals have no single universal automaton: the maps
    their condition allows are not closed under composition, so those rows
    are checked on the witnesses only.
    """
    d = universal_dfa(n, finals, kind is WitnessClass.RIGHT_IDEAL)
    engine = atoms._QuotientEngine(d)
    counts = engine.complexities()
    # Its permutation letters are every permutation: the orbit route counts too.
    assert type(atoms._counter(d)) is _OrbitCounter
    assert atoms._counter(d).complexities() == counts
    maxima = {}
    for col, count in counts.items():
        size = col.bit_count()
        maxima[size] = max(maxima.get(size, 0), count)
    bounds = {size: atom_complexity_bound(kind, n, size) for size in range(n + 1)}
    assert maxima == {size: b for size, b in bounds.items() if b is not None}


def test_one_pass_does_not_recurse():
    # Its 2,934 components lie on depth-first paths up to 440 nodes long, so
    # a recursive Tarjan would pass the lowered limit.
    d = minimize(random_dfa(RandomSpec(14, 2, seed=10)))
    engine = atoms._QuotientEngine(d)
    limit = len(inspect.stack(0)) + 100
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        counts = engine.complexities()
        _, rows = engine.key_graph()
        components = len(atoms._reach(rows)[1])
    finally:
        sys.setrecursionlimit(saved)
    assert components > limit
    for col, count in list(counts.items())[::40]:
        assert count == engine.complexity(col)


def test_a_dfa_past_the_limit_is_refused_before_the_orbit_test(monkeypatch):
    def refuse(dfa):
        raise AssertionError("_symmetric_orbits ran")

    monkeypatch.setattr(atoms, "_symmetric_orbits", refuse)
    with pytest.raises(LimitExceededError, match=f"^{COLUMN_LIMIT}$"):
        enumerate_atoms(regular_witness(21))


def renamed(d, perm):
    """``d`` with each state q renamed ``perm[q - 1]``."""
    delta = {}
    for letter in d.alphabet:
        image = [0] * d.state_count
        for q, r in enumerate(d.delta[letter].image):
            image[perm[q] - 1] = perm[r - 1]
        delta[letter] = Transformation(image)
    finals = frozenset(perm[q - 1] for q in d.finals)
    return Dfa(d.state_count, d.alphabet, delta, perm[d.initial - 1], finals)


# The random inputs of test_cli_pins.py, which take the general route, and
# one witness per class, which takes the orbit route, as does the left 6
# witness renamed so that its orbits, {1, 2, 3, 5, 6} and {4}, are no runs
# of states: the report's one sort must order its bases too.
SCATTERED_LEFT_6 = renamed(witness(WitnessClass.LEFT_IDEAL, 6), (4, 1, 6, 2, 5, 3))
REPORT_ORDER_INPUTS = {
    **{f"random-{seed}": random_dfa(RandomSpec(9, 2 + seed % 2, seed)) for seed in range(1, 11)},
    **{f"{kind.value}-6": witness(kind, 6) for kind in WitnessClass},
    "left-6-scattered": SCATTERED_LEFT_6,
}
ORBIT_ROUTE_INPUTS = [witness(kind, 6) for kind in WitnessClass] + [SCATTERED_LEFT_6]


@pytest.mark.parametrize("dfa", REPORT_ORDER_INPUTS.values(), ids=REPORT_ORDER_INPUTS)
def test_atom_report_is_ordered_by_size_then_sorted_basis(dfa):
    report = enumerate_atoms(dfa)
    counter = atoms._counter(minimize(dfa))
    assert (type(counter) is _OrbitCounter) == (dfa in ORBIT_ROUTE_INPUTS)
    order = [(len(info.basis), sorted(info.basis)) for info in report.atoms]
    assert all(a < b for a, b in zip(order, order[1:]))
    assert report.count == len(counter.complexities())


def test_enumerate_atoms_counts():
    assert enumerate_atoms(left_ideal_witness(4)).count == 9
    assert enumerate_atoms(two_sided_ideal_witness(5)).count == 9
    report = enumerate_atoms(one_state_accept_all())
    assert report.count == 1
    assert report.atoms[0].complexity == 1


def test_enumerate_atoms_minimizes_first():
    # duplicate the final absorbing state; language unchanged
    d = Dfa(
        4,
        ("a", "b"),
        {"a": Transformation((2, 3, 3, 4)), "b": Transformation((4, 3, 3, 4))},
        1,
        frozenset({3, 4}),
    )
    report = enumerate_atoms(d)
    assert report.state_count == minimize(d).state_count
    assert report.count == enumerate_atoms(minimize(d)).count


def test_atoms_partition_words():
    rng = random.Random(11)
    for seed in range(10):
        d = minimize(random_dfa(RandomSpec(2 + seed % 4, 2, seed=600 + seed)))
        bases = {info.basis for info in enumerate_atoms(d).atoms}
        for _ in range(30):
            word = [rng.choice(d.alphabet) for _ in range(rng.randint(0, 2 * d.state_count))]
            column = column_of(d, word)
            assert column in bases
            assert sum(1 for b in bases if b == column) == 1


@pytest.mark.parametrize("kind", list(WitnessClass))
def test_distinguishability_of_atom_dfa_states(kind):
    # distinct reachable pairs whose first components are both atom bases
    # (or whose complemented second components are) sit in distinct classes
    d = witness(kind, 4)
    bases = atom_bases_by_reversal(d)
    full = frozenset(range(1, 5))
    for basis in list(bases)[:4]:
        atom_dfa = build_atom_dfa(d, basis)
        pairs = reachable_pair_states(d, basis)
        classes = distinguishability_classes(atom_dfa)
        class_of = {q: i for i, cls in enumerate(classes) for q in cls}
        for i, left in enumerate(pairs):
            for j in range(i + 1, len(pairs)):
                right = pairs[j]
                if left.is_bottom or right.is_bottom:
                    continue
                separable = (
                    left.x != right.x and left.x in bases and right.x in bases
                ) or (
                    left.y != right.y
                    and (full - left.y) in bases
                    and (full - right.y) in bases
                )
                if separable:
                    assert class_of[i + 1] != class_of[j + 1]


def complement(d):
    return Dfa(
        d.state_count, d.alphabet, d.delta, d.initial,
        frozenset(range(1, d.state_count + 1)) - d.finals,
    )


def minimal_random_dfas(count):
    """The first ``count`` seeded random DFAs, over 2 or 3 letters, whose
    minimal DFA has 10 to 14 states, minimized."""
    found = []
    for seed in itertools.count(7000):
        d = minimize(random_dfa(RandomSpec(14, 2 + seed % 2, seed=seed)))
        if d.state_count >= 10:
            found.append(d)
        if len(found) == count:
            return found


@pytest.mark.parametrize(
    "dfa",
    minimal_random_dfas(18)
    + [regular_witness(9), left_ideal_witness(10), two_sided_ideal_witness(10)]
    # Minimal random DFAs of 15 states, all on the general route.
    + [minimize(random_dfa(RandomSpec(16, 2 + s % 2, s))) for s in (9001, 9005, 9008, 9010)],
)
def test_complement_sends_each_basis_to_its_complement(dfa):
    # Flipping the finals turns the atom of S into the atom of Q \ S, with
    # the same quotients, so both reports hold the same atoms.
    full = frozenset(range(1, dfa.state_count + 1))
    report, flipped = enumerate_atoms(dfa), enumerate_atoms(complement(dfa))
    assert flipped.state_count == report.state_count == dfa.state_count
    assert {(full - info.basis, info.complexity) for info in flipped.atoms} == {
        (info.basis, info.complexity) for info in report.atoms
    }
    assert flipped.count == report.count


# Renaming, a duplicate letter and a split state keep every atom.  Inputs are
# minimal and numbered breadth-first, as minimize numbers them, so a split
# input minimizes back to itself.
METAMORPHIC_INPUTS = [
    minimize(d)
    for d in (
        regular_witness(9), right_ideal_witness(10), left_ideal_witness(10),
        two_sided_ideal_witness(11),
    )
] + minimal_random_dfas(6)
original_report = functools.lru_cache(maxsize=None)(enumerate_atoms)


def split_state(d, rng):
    """``d`` with a state s split in two: state n + 1 gets s's row and
    finality, and a seeded non-empty share, not all, of s's in-edges."""
    n = d.state_count
    into = {
        s: [(letter, q) for letter in d.alphabet for q in range(1, n + 1)
            if d.delta[letter](q) == s]
        for s in range(1, n + 1)
    }
    s = rng.choice([s for s, edges in into.items() if len(edges) >= 2])
    moved = set(rng.sample(into[s], rng.randint(1, len(into[s]) - 1)))
    delta = {}
    for letter in d.alphabet:
        image = [n + 1 if (letter, q) in moved else r
                 for q, r in enumerate(d.delta[letter].image, start=1)]
        delta[letter] = Transformation(image + [image[s - 1]])
    finals = d.finals | {n + 1} if s in d.finals else d.finals
    return s, Dfa(n + 1, d.alphabet, delta, d.initial, finals)


@pytest.mark.parametrize("dfa", METAMORPHIC_INPUTS)
def test_renaming_states_renames_each_basis(dfa):
    perm = list(range(1, dfa.state_count + 1))
    random.Random(dfa.state_count).shuffle(perm)
    report, original = enumerate_atoms(renamed(dfa, perm)), original_report(dfa)
    assert report.count == original.count
    assert {(info.basis, info.complexity) for info in report.atoms} == {
        (frozenset(perm[q - 1] for q in info.basis), info.complexity)
        for info in original.atoms
    }


@pytest.mark.parametrize("dfa", METAMORPHIC_INPUTS)
def test_duplicate_letter_changes_no_atom(dfa):
    letter = random.Random(dfa.state_count).choice(dfa.alphabet)
    doubled = Dfa(
        dfa.state_count, dfa.alphabet + ("copy",), {**dfa.delta, "copy": dfa.delta[letter]},
        dfa.initial, dfa.finals,
    )
    assert enumerate_atoms(doubled) == original_report(dfa)


@pytest.mark.parametrize("dfa", METAMORPHIC_INPUTS)
def test_split_state_keeps_each_atom(dfa):
    rng = random.Random(dfa.state_count)
    s, split = split_state(dfa, rng)
    report = original_report(dfa)
    assert enumerate_atoms(split) == report
    # The copy n + 1 has s's language, so it joins every basis that holds s.
    # All calls on one DFA: alternating DFAs rebuilds the quotient engine.
    for info in rng.sample(report.atoms, 8):
        basis = info.basis | {split.state_count} if s in info.basis else info.basis
        assert atom_complexity(split, basis) == info.complexity
