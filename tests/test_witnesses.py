from math import comb, prod

import pytest

from dfatoms import (
    WitnessClass,
    Dfa,
    accepting_sink,
    atom_complexity_bound,
    bound_for_basis,
    build_table,
    enumerate_atoms,
    induced_transformation,
    is_left_ideal,
    is_right_ideal,
    is_two_sided_ideal,
    left_ideal_witness,
    max_atom_count,
    quotient_complexity,
    regular_witness,
    right_ideal_witness,
    two_sided_ideal_witness,
    witness,
)
from dfatoms import atoms
from dfatoms._orbits import _OrbitCounter


def test_regular_witness_transformations():
    d = regular_witness(4)
    assert d.alphabet == ("a", "b", "c")
    assert d.delta["a"].image == (2, 3, 4, 1)
    assert d.delta["b"].image == (2, 1, 3, 4)
    assert d.delta["c"].image == (1, 2, 3, 1)
    assert d.initial == 1 and d.finals == frozenset({4})


def test_regular_witness_small_case():
    d = regular_witness(2)
    assert d.alphabet == ("a", "c")
    assert d.delta["a"].image == (2, 1)
    assert d.delta["c"].image == (1, 1)


def test_right_witness_transformations():
    d = right_ideal_witness(5)
    assert d.alphabet == ("a", "b", "c", "d")
    assert d.delta["a"].image == (2, 3, 4, 1, 5)
    assert d.delta["b"].image == (1, 3, 4, 2, 5)
    assert d.delta["c"].image == (1, 2, 3, 1, 5)
    assert d.delta["d"].image == (1, 2, 3, 5, 5)


def test_right_witness_small_cases():
    d3 = right_ideal_witness(3)
    assert d3.alphabet == ("a", "c", "d")
    d2 = right_ideal_witness(2)
    assert d2.alphabet == ("a",)
    assert d2.delta["a"].image == (2, 2)
    assert d2.finals == frozenset({2})
    d1 = right_ideal_witness(1)
    assert d1.state_count == 1 and d1.finals == frozenset({1})


def test_left_witness_transformations():
    d = left_ideal_witness(5)
    assert d.alphabet == ("a", "b", "c", "d", "e")
    assert d.delta["a"].image == (1, 3, 4, 5, 2)
    assert d.delta["b"].image == (1, 3, 2, 4, 5)
    assert d.delta["c"].image == (1, 2, 3, 4, 2)
    assert d.delta["d"].image == (1, 2, 3, 4, 1)
    assert d.delta["e"].image == (2, 2, 2, 2, 2)


def test_left_witness_small_cases():
    d3 = left_ideal_witness(3)
    assert d3.alphabet == ("a", "c", "d", "e")
    d2 = left_ideal_witness(2)
    assert d2.alphabet == ("a", "b", "c")
    assert d2.delta["a"].image == (1, 2)
    assert d2.delta["b"].image == (2, 2)
    assert d2.delta["c"].image == (1, 1)


def test_two_sided_witness_transformations():
    d = two_sided_ideal_witness(5)
    assert d.alphabet == ("a", "b", "c", "d", "e", "f")
    assert d.delta["a"].image == (1, 3, 4, 2, 5)
    assert d.delta["e"].image == (2, 2, 2, 2, 5)
    assert d.delta["f"].image == (1, 5, 3, 4, 5)


def test_two_sided_witness_applies_ef_as_constant():
    for n in (4, 5, 6):
        t = induced_transformation(two_sided_ideal_witness(n), "ef")
        assert t.image == tuple(n for _ in range(n))


def test_two_sided_witness_small_cases():
    d3 = two_sided_ideal_witness(3)
    assert d3.alphabet == ("a", "b", "c")
    assert d3.delta["a"].image == (1, 1, 3)
    assert d3.delta["b"].image == (2, 2, 3)
    assert d3.delta["c"].image == (1, 3, 3)
    d2 = two_sided_ideal_witness(2)
    assert d2.delta["b"].image == (2, 2)
    assert is_two_sided_ideal(d2)


def test_witness_parameter_validation():
    with pytest.raises(ValueError):
        regular_witness(1)
    with pytest.raises(ValueError):
        right_ideal_witness(0)
    with pytest.raises(ValueError):
        left_ideal_witness(1)
    with pytest.raises(ValueError):
        two_sided_ideal_witness(1)


@pytest.mark.parametrize("kind", list(WitnessClass))
@pytest.mark.parametrize("n", range(2, 10))
def test_witnesses_are_minimal(kind, n):
    assert quotient_complexity(witness(kind, n)) == n


@pytest.mark.parametrize("n", range(3, 8))
def test_predicate_chain(n):
    # over a unary alphabet the n<3 right witnesses are also left ideals,
    # so the exclusive chain starts at n=3
    regular = regular_witness(n)
    assert not is_right_ideal(regular) and not is_left_ideal(regular)
    right = right_ideal_witness(n)
    assert is_right_ideal(right) and not is_left_ideal(right)
    left = left_ideal_witness(n)
    assert is_left_ideal(left) and not is_right_ideal(left)
    assert is_two_sided_ideal(two_sided_ideal_witness(n))


def test_witness_dispatcher():
    assert witness(WitnessClass.REGULAR, 3) == regular_witness(3)
    assert witness(WitnessClass.RIGHT_IDEAL, 3) == right_ideal_witness(3)
    assert witness(WitnessClass.LEFT_IDEAL, 3) == left_ideal_witness(3)
    assert witness(WitnessClass.TWO_SIDED_IDEAL, 3) == two_sided_ideal_witness(3)


TIGHTNESS_CELLS = [(WitnessClass.REGULAR, n) for n in range(2, 9)] + [
    (kind, n)
    for kind in (WitnessClass.RIGHT_IDEAL, WitnessClass.LEFT_IDEAL, WitnessClass.TWO_SIDED_IDEAL)
    for n in range(1 if kind is WitnessClass.RIGHT_IDEAL else 2, 10)
]


@pytest.mark.parametrize(
    "kind, n", TIGHTNESS_CELLS, ids=[f"{kind.value}-{n}" for kind, n in TIGHTNESS_CELLS]
)
def test_every_witness_atom_attains_its_bound(kind, n):
    d = witness(kind, n)
    sink = accepting_sink(d) or n
    report = enumerate_atoms(d)
    assert report.count > 0
    for info in report.atoms:
        assert info.complexity == bound_for_basis(kind, n, info.basis, sink=sink), sorted(
            info.basis
        )


# Regular n = 12 takes about 5 s; every other case at most about 2 s.
LARGE_CELLS = [
    pytest.param(
        kind, n, id=f"{kind.value}-{n}",
        marks=[pytest.mark.slow] if (kind, n) == (WitnessClass.REGULAR, 12) else [],
    )
    for n in (10, 11, 12)
    for kind in WitnessClass
]


@pytest.mark.parametrize("kind, n", LARGE_CELLS)
def test_witness_at_n10_to_n12_attains_every_bound_and_the_atom_count(kind, n):
    d = witness(kind, n)
    sink = accepting_sink(d) or n
    report = enumerate_atoms(d)
    assert report.count == max_atom_count(kind, n)
    # ``enumerate_atoms`` takes the orbit route here; the general route
    # must give the same atoms, so both meet the closed forms below.
    assert type(atoms._counter(d)) is _OrbitCounter
    engine = atoms._QuotientEngine(d)
    general = {
        frozenset(q for q in range(1, n + 1) if col >> (q - 1) & 1): count
        for col, count in engine.complexities().items()
    }
    assert general == {info.basis: info.complexity for info in report.atoms}
    maxima = [None] * (n + 1)
    for info in report.atoms:
        assert info.complexity == bound_for_basis(kind, n, info.basis, sink=sink), sorted(
            info.basis
        )
        size = len(info.basis)
        maxima[size] = max(maxima[size] or 0, info.complexity)
    assert tuple(maxima) == build_table(kind, 12)[n - 1].rows


# The paper's table from computation at n = 13..16, past the golden file's
# n <= 9: the orbit route enumerates each witness in under a second.  The
# complement's report, which flips every basis, is a second count on it.
TABLE_CELLS = [
    pytest.param(
        kind, n, id=f"{kind.value}-{n}",
        marks=[pytest.mark.slow] if n == 16 and kind is not WitnessClass.TWO_SIDED_IDEAL else [],
    )
    for n in (13, 14, 15, 16)
    for kind in WitnessClass
]


@pytest.mark.parametrize("kind, n", TABLE_CELLS)
def test_witness_at_n13_to_n16_attains_the_table_and_its_complement_agrees(kind, n):
    d = witness(kind, n)
    sink = accepting_sink(d) or n
    report = enumerate_atoms(d)
    assert report.count == max_atom_count(kind, n)
    maxima = [None] * (n + 1)
    for info in report.atoms:
        assert info.complexity == bound_for_basis(kind, n, info.basis, sink=sink), sorted(
            info.basis
        )
        size = len(info.basis)
        maxima[size] = max(maxima[size] or 0, info.complexity)
    assert maxima == [atom_complexity_bound(kind, n, size) for size in range(n + 1)]
    full = frozenset(range(1, n + 1))
    flipped = enumerate_atoms(Dfa(n, d.alphabet, d.delta, d.initial, full - d.finals))
    assert flipped.count == report.count
    assert {(full - info.basis, info.complexity) for info in flipped.atoms} == {
        (info.basis, info.complexity) for info in report.atoms
    }


# The paper's bounds past n = 16, and past the 20-state limit of the atom
# functions, where ``_counter`` does not go: the orbit counter, built
# directly, names each column vector c by one basis, the first c_O states of
# each state orbit O.  The vector stands for the product over O of
# C(|O|, c_O) columns, all of one complexity, since the columns and the keys
# are invariant under the group.  Each case takes under half a second, n = 64
# included, so none is marked slow.
PAST_16 = [
    pytest.param(kind, n, id=f"{kind.value}-{n}")
    for n in (17, 20, 24, 32, 48, 64)
    for kind in WitnessClass
]


@pytest.mark.parametrize("kind, n", PAST_16)
def test_orbit_counter_attains_the_bounds_past_n16(kind, n):
    d = witness(kind, n)
    counter = _OrbitCounter(d, atoms._symmetric_orbits(d))
    states = [[q for q in range(n) if o >> q & 1] for o in counter.orbits]
    atom_count = 0
    maxima = {}
    for vector in counter.vectors:
        atom_count += prod(comb(size, c) for size, c in zip(counter.sizes, vector))
        basis = sum(1 << q for orbit, c in zip(states, vector) for q in orbit[:c])
        size = sum(vector)
        maxima[size] = max(maxima.get(size, 0), counter.complexity(basis))
    assert atom_count == max_atom_count(kind, n)
    bounds = {size: atom_complexity_bound(kind, n, size) for size in range(n + 1)}
    assert maxima == {size: bound for size, bound in bounds.items() if bound is not None}
