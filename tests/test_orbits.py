"""The orbit route against the general route.

Both routes count an atom's quotient keys; the orbit route counts them by
orbits of the group the permutation letters generate, and runs only when
that group is the product of the full symmetric groups on its state orbits.
The general route, ``_QuotientEngine``, is the oracle here.
"""

import functools
import itertools
import random

import pytest

from dfatoms import (
    Dfa,
    RandomSpec,
    Transformation,
    WitnessClass,
    atom_complexity,
    enumerate_atoms,
    minimize,
    random_dfa,
    regular_witness,
    witness,
)
from dfatoms import atoms
from dfatoms._orbits import _OrbitCounter
from dfatoms.atoms import _symmetric_orbits
from test_atoms import complement, renamed


def permutation(n, *cycles):
    image = list(range(1, n + 1))
    for cycle in cycles:
        for i, q in enumerate(cycle):
            image[q - 1] = cycle[(i + 1) % len(cycle)]
    return Transformation(image)


def with_letters(n, *perms):
    """States 1..n, final {n}, the permutations ``perms`` and one letter
    sending 2 to 1, which is not a permutation."""
    delta = {f"p{i}": p for i, p in enumerate(perms)}
    delta["c"] = Transformation.unitary(n, 2, 1)
    return Dfa(n, tuple(delta), delta, 1, frozenset({n}))


def orbit_counter(dfa):
    orbits = _symmetric_orbits(dfa)
    assert orbits is not None
    return _OrbitCounter(dfa, orbits)


def masks(*orbits):
    return [sum(1 << (q - 1) for q in orbit) for orbit in orbits]


REFUSED = {
    "double-transposition": with_letters(4, permutation(4, (1, 2), (3, 4))),
    "three-cycle": with_letters(4, permutation(4, (1, 2, 3))),
    "dihedral-4": with_letters(4, permutation(4, (1, 2, 3, 4)), permutation(4, (1, 3))),
}


@pytest.mark.parametrize("dfa", REFUSED.values(), ids=REFUSED)
def test_groups_that_are_not_full_symmetric_products_take_the_general_route(dfa):
    assert _symmetric_orbits(dfa) is None
    assert type(atoms._counter(dfa)) is atoms._QuotientEngine


@pytest.mark.parametrize(
    "dfa, orbits",
    [
        (with_letters(4, permutation(4, (1, 2, 3, 4)), permutation(4, (1, 2))), [{1, 2, 3, 4}]),
        (with_letters(5, permutation(5, (1, 2)), permutation(5, (3, 4))), [{1, 2}, {3, 4}, {5}]),
        # Neither letter is a transposition, but a b^-1 = (3 4) is.
        (with_letters(5, permutation(5, (1, 2, 3, 4)), permutation(5, (1, 2, 3))),
         [{1, 2, 3, 4}, {5}]),
        # Every letter a permutation: an atom's keys are one orbit.
        (Dfa(4, ("a", "b"), {"a": permutation(4, (1, 2, 3, 4)), "b": permutation(4, (1, 2))},
             1, frozenset({3, 4})), [{1, 2, 3, 4}]),
        (witness(WitnessClass.REGULAR, 7), [set(range(1, 8))]),
        # No letter is a transposition: a b^-1 = (1 6) is.
        (witness(WitnessClass.RIGHT_IDEAL, 7), [set(range(1, 7)), {7}]),
        (witness(WitnessClass.LEFT_IDEAL, 7), [{1}, set(range(2, 8))]),
        (witness(WitnessClass.TWO_SIDED_IDEAL, 7), [{1}, set(range(2, 7)), {7}]),
    ],
    ids=["sym-4", "two-transpositions", "product", "permutations-only", "regular-7", "right-7",
         "left-7", "two-sided-7"],
)
def test_full_symmetric_products_take_the_orbit_route(dfa, orbits):
    assert _symmetric_orbits(dfa) == masks(*orbits)
    assert type(atoms._counter(dfa)) is _OrbitCounter
    assert orbit_counter(dfa).complexities() == atoms._QuotientEngine(dfa).complexities()


def test_no_permutation_letter_that_moves_a_state_takes_the_general_route():
    identity = Dfa(3, ("a", "b"), {"a": Transformation.identity(3),
                                   "b": Transformation.unitary(3, 3, 1)}, 1, frozenset({3}))
    assert type(atoms._counter(identity)) is atoms._QuotientEngine


@pytest.mark.parametrize(
    "dfa",
    [
        Dfa(3, ("a", "b"), {"a": Transformation.identity(3), "b": Transformation.unitary(3, 3, 1)},
            1, frozenset({3})),
        Dfa(3, ("b",), {"b": Transformation.unitary(3, 3, 1)}, 1, frozenset({3})),
    ],
    ids=["identity", "no-permutation"],
)
def test_the_trivial_group_is_refused(dfa):
    assert _symmetric_orbits(dfa) is None


def test_the_orbit_test_alone_decides_the_route():
    dfas = [
        witness(kind, n)
        for kind in WitnessClass
        for n in range(1 if kind is WitnessClass.RIGHT_IDEAL else 2, 13)
    ] + [
        minimize(random_dfa(RandomSpec(n, letters, seed)))
        for n, letters, seed in itertools.product(range(3, 8), range(1, 5), range(150))
    ]
    taken = 0
    for d in dfas:
        admitted = _symmetric_orbits(d) is not None
        assert admitted == (type(atoms._counter(d)) is _OrbitCounter), d
        taken += admitted
    assert taken == 369


# Witnesses none of whose letters is a permutation that moves a state.
WITHOUT_MOVING_PERMUTATIONS = {
    (WitnessClass.RIGHT_IDEAL, 1), (WitnessClass.RIGHT_IDEAL, 2), (WitnessClass.LEFT_IDEAL, 2),
    (WitnessClass.TWO_SIDED_IDEAL, 2), (WitnessClass.TWO_SIDED_IDEAL, 3),
}
WITNESSES = [
    (kind, n)
    for kind in WitnessClass
    for n in range(1 if kind is WitnessClass.RIGHT_IDEAL else 2, 11)
]


@pytest.mark.parametrize(
    "kind, n", WITNESSES, ids=[f"{kind.value}-{n}" for kind, n in WITNESSES]
)
def test_orbit_route_enumerates_every_witness_as_the_general_route(kind, n):
    d = witness(kind, n)
    engine = atoms._QuotientEngine(d)
    route = atoms._counter(d)
    if (kind, n) in WITHOUT_MOVING_PERMUTATIONS:
        assert type(route) is atoms._QuotientEngine
        return
    assert type(route) is _OrbitCounter
    assert route.complexities() == engine.complexities()


def test_enumeration_counts_each_column_vector_and_keys_no_column(monkeypatch):
    # Each column is listed from its vector, whose start orbit is counted
    # once, so no column's key is found again from its mask.
    calls = []
    key = _OrbitCounter.key
    monkeypatch.setattr(
        _OrbitCounter, "key", lambda self, x, y: calls.append((x, y)) or key(self, x, y)
    )
    d = witness(WitnessClass.LEFT_IDEAL, 9)
    report = enumerate_atoms(d)
    assert type(atoms._counter(d)) is _OrbitCounter
    assert report.count == 257
    assert calls == []


@pytest.mark.parametrize("size", range(11))
def test_orbit_route_counts_single_atoms_of_every_basis_size_at_regular_10(size):
    d = regular_witness(10)
    basis = random.Random(size).sample(range(1, 11), size)
    mask = sum(1 << (q - 1) for q in basis)
    expected = atoms._QuotientEngine(d).complexity(mask)
    assert orbit_counter(d).complexity(mask) == expected
    assert atom_complexity(d, basis) == expected


def test_orbit_route_on_seeded_random_dfas_with_permutation_letters():
    taken = 0
    for n, seed in itertools.product(range(3, 9), range(300)):
        d = random_dfa(RandomSpec(n, 3, seed))
        if type(atoms._counter(d)) is not _OrbitCounter:
            continue
        taken += 1
        engine = atoms._QuotientEngine(d)
        counter = orbit_counter(d)
        assert counter.complexities() == engine.complexities(), (n, seed)
        for mask in range(0, 1 << n, 7):
            assert counter.complexity(mask) == engine.complexity(mask), (n, seed, mask)
    assert taken == 107


@functools.lru_cache(maxsize=None)
def seeded_route_dfas():
    """The seeded random DFAs of the test above that take the orbit route."""
    specs = itertools.product(range(3, 9), range(300))
    dfas = (random_dfa(RandomSpec(n, 3, seed)) for n, seed in specs)
    return tuple(d for d in dfas if _symmetric_orbits(d) is not None)


def assert_complement_flips_vectors_and_bases(d):
    # Flipping the finals keeps the letters, so the route and the orbits;
    # each column T becomes Q \ T, so each vector c becomes |O| - c, and the
    # atom of Q \ S has the quotients of the atom of S.
    orbits = _symmetric_orbits(d)
    flipped = complement(d)
    assert _symmetric_orbits(flipped) == orbits
    counter, other = _OrbitCounter(d, orbits), _OrbitCounter(flipped, orbits)
    assert sorted(other.vectors) == sorted(
        bytes(size - c for size, c in zip(counter.sizes, vector)) for vector in counter.vectors
    )
    full = counter.full
    assert other.complexities() == {
        full ^ col: count for col, count in counter.complexities().items()
    }


ROUTE_WITNESSES = [
    (kind, n) for kind in WitnessClass for n in range(2, 13)
    if (kind, n) not in WITHOUT_MOVING_PERMUTATIONS
]


@pytest.mark.parametrize(
    "kind, n", ROUTE_WITNESSES, ids=[f"{kind.value}-{n}" for kind, n in ROUTE_WITNESSES]
)
def test_complement_flips_the_column_vectors_and_the_bases_of_witnesses(kind, n):
    assert_complement_flips_vectors_and_bases(witness(kind, n))


def test_complement_flips_the_column_vectors_and_the_bases_of_seeded_random_dfas():
    for d in seeded_route_dfas():
        assert_complement_flips_vectors_and_bases(d)


def test_renaming_and_a_duplicate_letter_keep_every_atom_on_the_orbit_route():
    # The relations of test_atoms.py, on minimal random DFAs that take the
    # orbit route; renaming conjugates the group and a copied letter keeps
    # it, so both sides take the route too.
    rng = random.Random(32)
    inputs = [minimize(d) for d in rng.sample(seeded_route_dfas(), 40)]
    inputs = [d for d in inputs if _symmetric_orbits(d) is not None]
    assert len(inputs) >= 30
    for d in inputs:
        n = d.state_count
        original = enumerate_atoms(d)
        perm = rng.sample(range(1, n + 1), n)
        moved = renamed(d, perm)
        assert type(atoms._counter(moved)) is _OrbitCounter
        assert {(info.basis, info.complexity) for info in enumerate_atoms(moved).atoms} == {
            (frozenset(perm[q - 1] for q in info.basis), info.complexity)
            for info in original.atoms
        }
        letter = rng.choice(d.alphabet)
        doubled = Dfa(n, d.alphabet + ("copy",), {**d.delta, "copy": d.delta[letter]},
                      d.initial, d.finals)
        assert type(atoms._counter(doubled)) is _OrbitCounter
        assert enumerate_atoms(doubled) == original
