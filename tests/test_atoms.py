import inspect
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
        atom_complexity(d, {1, 4})


def test_state_limit_enforced():
    big = Dfa(
        21,
        ("a",),
        {"a": Transformation.identity(21)},
        1,
        frozenset({1}),
    )
    with pytest.raises(LimitExceededError):
        build_atom_dfa(big, {1})


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
    atoms._engine.cache_clear()
    d = witness(WitnessClass.REGULAR, 10)
    assert atom_complexity(d, basis) == atom_complexity_bound(WitnessClass.REGULAR, 10, len(basis))
    assert calls <= most


def test_key_graph_of_regular_witness_n8():
    # Every state set is a column, so each pair (X, Y) of disjoint subsets
    # of the 8 states is a key.  All but (empty, empty), the quotient of
    # every word, are reached: 3^8 - 1 keys plus the empty quotient None.
    nodes, rows = atoms._QuotientEngine(regular_witness(8)).key_graph()
    assert len(nodes) == 6_561
    assert None in nodes
    assert 0 not in nodes
    assert len(atoms._reach(rows)[1]) == 45


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
    for col, count in list(zip(engine.columns, counts))[::40]:
        assert count == engine.complexity(col)


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


def test_enumerate_atoms_without_complexities():
    report = enumerate_atoms(regular_witness(4), with_complexities=False)
    assert report.count == 16
    assert all(info.complexity is None for info in report.atoms)


def test_atoms_partition_words():
    rng = random.Random(11)
    for seed in range(10):
        d = minimize(random_dfa(RandomSpec(2 + seed % 4, 2, seed=600 + seed)))
        bases = {info.basis for info in enumerate_atoms(d, with_complexities=False).atoms}
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
