import pytest

from dfatoms import (
    WitnessClass,
    accepting_sink,
    bound_for_basis,
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


@pytest.mark.parametrize("kind", list(WitnessClass), ids=lambda kind: f"{kind.value}-10")
def test_witness_at_n10_attains_every_bound_and_the_atom_count(kind):
    n = 10
    d = witness(kind, n)
    sink = accepting_sink(d) or n
    report = enumerate_atoms(d)
    assert report.count == max_atom_count(kind, n)
    for info in report.atoms:
        assert info.complexity == bound_for_basis(kind, n, info.basis, sink=sink), sorted(
            info.basis
        )
