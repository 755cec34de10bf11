"""Property tests over random DFAs, run deterministically.

The inputs are not minimized and may have unreachable states: the signature
route rests on the atoms of the state-language list, and the containment
table on the state languages themselves, which every DFA has.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfatoms import (
    CapExceededError,
    Dfa,
    EmptyLanguageError,
    IdealKind,
    NotAnAtomError,
    RandomSpec,
    Transformation,
    atom_bases_by_reversal,
    atom_complexity,
    build_atom_dfa,
    enumerate_atoms,
    idealize,
    is_atom,
    is_left_ideal,
    is_right_ideal,
    is_two_sided_ideal,
    left_ideal_witness,
    minimize,
    oracle_atom_complexity,
    parse_dfa,
    quotient_complexity,
    random_dfa,
    reachable_pair_states,
    regular_witness,
    render_dfa,
    state_language_contains,
    successor_sets,
    transition_semigroup,
    two_sided_ideal_witness,
)
from dfatoms import atoms, harness
from dfatoms.dfa import _moore_blocks
from oracles import (
    brute_columns,
    brute_semigroup,
    canonical_minimal,
    column_signature_complexity,
    monoid_moore_complexity,
    monoid_row_atom_complexity,
    pair_automaton,
    pair_bfs_contains,
    reached_states,
)


@st.composite
def small_dfas(draw, max_states=6):
    n = draw(st.integers(1, max_states))
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    images = st.lists(st.integers(1, n), min_size=n, max_size=n)
    delta = {letter: Transformation(tuple(draw(images))) for letter in alphabet}
    initial = draw(st.integers(1, n))
    finals = draw(st.frozensets(st.integers(1, n)))
    return Dfa(n, alphabet, delta, initial, finals)


# States 1 and 2 have the same language, so the DFA is not minimal.
DUPLICATED_STATE = Dfa(
    4,
    ("a", "b"),
    {"a": Transformation((3, 3, 4, 1)), "b": Transformation((2, 1, 4, 4))},
    1,
    frozenset({4}),
)
# No word leads from state 1 to states 3 or 4.
UNREACHABLE_STATES = Dfa(
    4,
    ("a", "b"),
    {"a": Transformation((2, 1, 4, 1)), "b": Transformation((1, 1, 2, 3))},
    1,
    frozenset({2, 3}),
)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@example(DUPLICATED_STATE)
@example(UNREACHABLE_STATES)
@given(small_dfas())
def test_signature_route_agrees_with_moore_and_monoid(dfa):
    columns = atom_bases_by_reversal(dfa)
    for mask in range(1 << dfa.state_count):
        basis = frozenset(q for q in range(1, dfa.state_count + 1) if mask >> (q - 1) & 1)
        if basis not in columns:
            with pytest.raises(NotAnAtomError):
                atom_complexity(dfa, basis)
            continue
        expected = oracle_atom_complexity(dfa, basis)
        assert quotient_complexity(build_atom_dfa(dfa, basis)) == expected
        assert atom_complexity(dfa, basis) == expected


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@example(DUPLICATED_STATE)
@example(UNREACHABLE_STATES)
@given(small_dfas())
def test_is_atom_agrees_with_pair_automaton_and_monoid(dfa):
    for mask in range(1 << dfa.state_count):
        basis = frozenset(q for q in range(1, dfa.state_count + 1) if mask >> (q - 1) & 1)
        atom = is_atom(dfa, basis)
        assert atom == any(build_atom_dfa(dfa, basis).finals)
        # The monoid oracle returns 0 exactly when no element has column S.
        assert atom == (oracle_atom_complexity(dfa, basis) != 0)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@example(DUPLICATED_STATE)
@example(UNREACHABLE_STATES)
@given(small_dfas())
def test_pair_automaton_numbering_matches_oracle(dfa):
    for mask in range(1 << dfa.state_count):
        basis = frozenset(q for q in range(1, dfa.state_count + 1) if mask >> (q - 1) & 1)
        expected, order = pair_automaton(dfa, basis)
        assert build_atom_dfa(dfa, basis) == expected
        labels = reachable_pair_states(dfa, basis)
        assert [None if p.is_bottom else (p.x, p.y) for p in labels] == order


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@example(DUPLICATED_STATE)
@example(UNREACHABLE_STATES)
@given(small_dfas())
def test_one_pass_agrees_with_walk_and_oracles(dfa):
    n = dfa.state_count
    engine = atoms._QuotientEngine(dfa)
    counts = engine.complexities()
    bases = [frozenset(q for q in range(1, n + 1) if col >> (q - 1) & 1) for col in engine.columns]
    assert set(bases) == brute_columns(dfa)
    for basis, count in zip(bases, counts):
        assert count == atom_complexity(dfa, basis)
        assert count == oracle_atom_complexity(dfa, basis)
        assert count == column_signature_complexity(dfa, basis)
    minimal = minimize(dfa)
    for info in enumerate_atoms(minimal).atoms:
        assert info.complexity == atom_complexity(minimal, info.basis)


def permutation_heavy_dfa(rng):
    """A DFA of 7 to 12 states whose letters are each a permutation with
    probability 0.6.  Packed pairs then run past 16 bits, and most quotient
    images skip canonicalization.  A twin DFA doubles one on h states: state
    q + h copies state q, so it is never minimal."""
    twin = rng.random() < 0.3
    h = rng.randint(4, 6) if twin else rng.randint(7, 12)
    n = 2 * h if twin else h
    delta = {}
    for letter in ("a", "b", "c")[: rng.randint(1, 3)]:
        if rng.random() < 0.6:
            image = rng.sample(range(1, h + 1), h)
        else:
            image = [rng.randint(1, h) for _ in range(h)]
        if twin:
            image += [q + h for q in image]
        delta[letter] = Transformation(tuple(image))
    finals = {q for q in range(1, h + 1) if rng.random() < 0.5}
    if twin:
        finals |= {q + h for q in finals}
    return Dfa(n, tuple(delta), delta, rng.randint(1, n), finals)


# Atom DFA states built per DFA.  Groups generated by random permutations
# give hundreds of columns whose atom DFAs have hundreds of states each, so
# the columns of such a DFA, then its non-columns, are checked in order until
# the budget is spent; 48 of the 80 DFAs are checked on all of them.
PAIR_STATE_BUDGET = 2000


@pytest.mark.parametrize("first_seed", range(0, 80, 20))
def test_packed_pairs_agree_with_atom_dfa_past_16_bits(first_seed):
    for seed in range(first_seed, first_seed + 20):
        rng = random.Random(seed)
        dfa = permutation_heavy_dfa(rng)
        n = dfa.state_count
        columns = atom_bases_by_reversal(dfa)
        others = {frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))) for _ in range(10)}
        for basis in others - columns:
            with pytest.raises(NotAnAtomError):
                atom_complexity(dfa, basis)
        spent = 0
        for basis in sorted(columns, key=sorted) + sorted(others - columns, key=sorted):
            if spent > PAIR_STATE_BUDGET:
                break
            atom_dfa = build_atom_dfa(dfa, basis)
            spent += atom_dfa.state_count
            if basis in columns:
                assert atom_complexity(dfa, basis) == quotient_complexity(atom_dfa)
            else:
                assert not atom_dfa.finals
            if n <= 9:
                expected, order = pair_automaton(dfa, basis)
                assert atom_dfa == expected
                labels = reachable_pair_states(dfa, basis)
                assert [None if p.is_bottom else (p.x, p.y) for p in labels] == order


# The monoid is the symmetric group on three states: from any element some
# word reaches every column of the finals' size, so no element is dead.
PERMUTATION_DFA = Dfa(
    3,
    ("a", "b"),
    {"a": Transformation((2, 3, 1)), "b": Transformation((2, 1, 3))},
    1,
    frozenset({1}),
)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@example(DUPLICATED_STATE)
@example(UNREACHABLE_STATES)
@example(PERMUTATION_DFA)
@given(small_dfas())
def test_trimmed_monoid_oracle_agrees_with_whole_monoid(dfa):
    for mask in range(1 << dfa.state_count):
        basis = frozenset(q for q in range(1, dfa.state_count + 1) if mask >> (q - 1) & 1)
        expected = monoid_moore_complexity(dfa, basis)
        assert oracle_atom_complexity(dfa, basis) == expected
        # Row comparison is quadratic in the monoid, which reaches hundreds
        # of elements at 5 and 6 states.
        if dfa.state_count <= 4:
            assert monoid_row_atom_complexity(dfa, basis) == expected


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@example(DUPLICATED_STATE)
@example(UNREACHABLE_STATES)
@example(PERMUTATION_DFA)
@given(small_dfas())
def test_one_emptiness_pass_agrees_with_per_basis_exploration(dfa):
    n = dfa.state_count
    per_basis = {
        frozenset(q for q in range(1, n + 1) if mask >> (q - 1) & 1)
        for mask in range(1 << n)
        if any(atoms._explore(dfa, [mask])[2])
    }
    assert harness._emptiness_bases(dfa) == per_basis == atom_bases_by_reversal(dfa)


def shortest_distances(rows, finals):
    """Per state, the length of a shortest word leading to a final state, or
    -1: the least fixpoint of d = 0 on finals and 1 + min over successors."""
    distance = [0 if final else -1 for final in finals]
    changed = True
    while changed:
        changed = False
        for i in range(len(finals)):
            reached = [distance[row[i]] for row in rows if distance[row[i]] >= 0]
            if reached and (distance[i] < 0 or min(reached) + 1 < distance[i]):
                distance[i] = min(reached) + 1
                changed = True
    return distance


def test_distance_labels_give_the_same_partition_as_final_flags():
    rng = random.Random(2014)
    with_dead = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        rows = [[rng.randrange(n) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        finals = [rng.random() < 0.2 for _ in range(n)]
        preds = [[] for _ in range(n)]
        for row in rows:
            for i, j in enumerate(row):
                preds[j].append(i)
        targets = [i for i, final in enumerate(finals) if final]
        _, distance = harness._backward_distances(preds, targets)
        assert distance == shortest_distances(rows, finals)
        with_dead += -1 in distance
        # Same blocks, numbered alike: a state's distance is a function of
        # its language, and distance 0 is exactly finality.
        assert _moore_blocks(rows, distance) == _moore_blocks(rows, finals)
    assert with_dead >= 100


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@example(DUPLICATED_STATE)
@example(UNREACHABLE_STATES)
@example(PERMUTATION_DFA)
@given(small_dfas())
def test_semigroup_agrees_with_brute_closure(dfa):
    n = dfa.state_count
    assert {t.image for t in transition_semigroup(dfa, n**n)} == brute_semigroup(dfa)


@pytest.mark.parametrize(
    "dfa",
    [
        regular_witness(4),
        left_ideal_witness(4),
        DUPLICATED_STATE,
        two_sided_ideal_witness(4),  # a = b
        two_sided_ideal_witness(2),  # a = c
    ],
)
def test_semigroup_cap_below_size_raises_with_partial_count(dfa):
    size = len(brute_semigroup(dfa))
    letters = len({t.image for t in dfa.delta.values()})
    for cap in range(1, size):
        with pytest.raises(CapExceededError, match=f"^transition semigroup exceeds cap {cap}$") as info:
            transition_semigroup(dfa, cap)
        # The distinct letter images are all counted before the cap is checked.
        assert info.value.partial == max(cap + 1, letters)


def relabel(dfa, perm):
    """The same DFA with state q renamed perm[q - 1]."""
    delta = {}
    for letter in dfa.alphabet:
        image = [0] * dfa.state_count
        for q, r in enumerate(dfa.delta[letter].image, start=1):
            image[perm[q - 1] - 1] = perm[r - 1]
        delta[letter] = Transformation(tuple(image))
    finals = frozenset(perm[q - 1] for q in dfa.finals)
    return Dfa(dfa.state_count, dfa.alphabet, delta, perm[dfa.initial - 1], finals)


@st.composite
def relabelled_dfas(draw):
    dfa = draw(small_dfas(max_states=8))
    return dfa, draw(st.permutations(range(1, dfa.state_count + 1)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@example((DUPLICATED_STATE, (2, 1, 4, 3)))
@example((UNREACHABLE_STATES, (4, 3, 1, 2)))
@example((left_ideal_witness(5), (5, 4, 3, 2, 1)))
@given(relabelled_dfas())
def test_minimize_is_canonical(dfa_and_perm):
    dfa, perm = dfa_and_perm
    minimal = minimize(dfa)
    assert minimal == canonical_minimal(dfa)
    assert minimize(relabel(dfa, perm)) == minimal


def check_containment(dfa, every_pair=True):
    """Compare the containment readers with the pair search; return is_left_ideal."""
    n = dfa.state_count
    contains = {
        (p, q): pair_bfs_contains(dfa, p, q)
        for p in range(1, n + 1)
        for q in range(1, n + 1)
    }
    pairs = contains if every_pair else [(dfa.initial, q) for q in range(1, n + 1)]
    for p, q in pairs:
        assert state_language_contains(dfa, p, q) == contains[p, q]
    assert successor_sets(dfa) == {
        p: frozenset(
            q
            for q in range(1, n + 1)
            if q != p and contains[p, q] and not contains[q, p]
        )
        for p in range(1, n + 1)
    }
    reached = reached_states(dfa)
    if not any(q in dfa.finals for q in reached):
        with pytest.raises(EmptyLanguageError):
            is_left_ideal(dfa)
        return False
    left = is_left_ideal(dfa)
    assert left == all(contains[dfa.initial, q] for q in reached)
    return left


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@example(DUPLICATED_STATE)
@example(UNREACHABLE_STATES)
@example(left_ideal_witness(5))
@given(small_dfas(max_states=8))
def test_containment_agrees_with_pair_search(dfa):
    check_containment(dfa)


# Left closures of these have 35, 43, 100, 25 and 18 states, their two-sided
# closures 4, 2, 13, 2 and 3; the DFAs themselves are not left ideals.
CLOSURE_SEEDS = (8004, 8015, 8017, 8032, 8035)


@pytest.mark.parametrize("seed", CLOSURE_SEEDS)
def test_containment_on_closures_agrees_with_pair_search(seed):
    dfa = random_dfa(RandomSpec(10 + seed % 5, 2 + seed % 2, seed=seed))
    assert check_containment(dfa) is False
    for kind in (IdealKind.LEFT, IdealKind.TWO_SIDED):
        closed = idealize(dfa, kind)
        # Closures are minimal, so successor_sets already covers every pair.
        assert check_containment(closed, every_pair=False) is True


def test_containment_on_every_pair_of_a_large_closure():
    dfa = random_dfa(RandomSpec(12, 3, seed=8017))
    closed = idealize(dfa, IdealKind.LEFT)
    assert closed.state_count == 100
    assert check_containment(closed, every_pair=True) is True


IN_CLASS = {
    IdealKind.RIGHT: is_right_ideal,
    IdealKind.LEFT: is_left_ideal,
    IdealKind.TWO_SIDED: is_two_sided_ideal,
}


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@example(DUPLICATED_STATE, IdealKind.LEFT)
@example(UNREACHABLE_STATES, IdealKind.TWO_SIDED)
@given(small_dfas(), st.sampled_from(IdealKind))
def test_idealize_lands_in_its_class_and_is_idempotent(dfa, kind):
    closed = idealize(dfa, kind)
    if not minimize(dfa).finals:
        with pytest.raises(EmptyLanguageError):
            IN_CLASS[kind](closed)
        return
    assert IN_CLASS[kind](closed)
    assert minimize(idealize(closed, kind)) == minimize(closed)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@example(Dfa(2, ("a",), {"a": Transformation((2, 1))}, 2, frozenset()))
@given(small_dfas())
def test_render_then_parse_is_identity(dfa):
    assert parse_dfa(render_dfa(dfa)) == dfa
