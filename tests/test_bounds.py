from itertools import combinations

import pytest

from dfatoms import (
    InvalidBasisError,
    WitnessClass,
    atom_complexity_bound,
    bound_for_basis,
    build_table,
    max_atom_count,
    symmetry_check,
)
from oracles import paper_atom_complexity_bound, paper_max_atom_count

TS = WitnessClass.TWO_SIDED_IDEAL
LEFT = WitnessClass.LEFT_IDEAL
RIGHT = WitnessClass.RIGHT_IDEAL
REG = WitnessClass.REGULAR

# max rows of the three-way table, n = 1..9
MAX_ROW = {
    TS: [1, 2, 4, 8, 20, 64, 182, 584, 1710],
    LEFT: [1, 2, 5, 16, 53, 166, 542, 1646, 5245],
    REG: [1, 3, 10, 43, 141, 501, 1548, 5083, 15361],
}


def test_max_atom_count_values():
    assert max_atom_count(REG, 5) == 32
    assert max_atom_count(TS, 4) == 5
    assert max_atom_count(RIGHT, 6) == 32
    assert max_atom_count(LEFT, 6) == 33
    for kind in WitnessClass:
        assert max_atom_count(kind, 1) == 1


def test_bound_spot_values():
    assert atom_complexity_bound(REG, 4, 2) == 43
    assert atom_complexity_bound(LEFT, 5, 2) == 53
    assert atom_complexity_bound(TS, 6, 3) == 64
    assert atom_complexity_bound(TS, 4, 3) == 7
    assert atom_complexity_bound(RIGHT, 4, 2) == 16
    assert atom_complexity_bound(LEFT, 4, 1) == 13
    for n in (2, 5, 9):
        assert atom_complexity_bound(LEFT, n, n) == n
        assert atom_complexity_bound(TS, n, n) == n
        assert atom_complexity_bound(REG, n, 0) == (1 << n) - 1
        assert atom_complexity_bound(REG, n, n) == (1 << n) - 1
        assert atom_complexity_bound(LEFT, n, 0) == 1 << (n - 1)
        assert atom_complexity_bound(RIGHT, n, n) == 1 << (n - 1)


def test_undefined_cells():
    for n in (1, 3, 7):
        assert atom_complexity_bound(RIGHT, n, 0) is None
        assert atom_complexity_bound(TS, n, 0) is None


def test_degenerate_complexity_one():
    assert atom_complexity_bound(REG, 1, 0) == 1
    assert atom_complexity_bound(REG, 1, 1) == 1
    assert atom_complexity_bound(LEFT, 1, 0) == 1
    assert atom_complexity_bound(TS, 1, 1) == 1


@pytest.mark.parametrize("kind", [TS, LEFT, REG])
def test_max_rows_match_reference_tables(kind):
    for n in range(1, 10):
        values = [atom_complexity_bound(kind, n, s) for s in range(n + 1)]
        assert max(v for v in values if v is not None) == MAX_ROW[kind][n - 1]


def test_two_sided_near_full_basis():
    for n in range(2, 10):
        assert atom_complexity_bound(TS, n, n - 1) == (1 << (n - 2)) + n - 1


def test_symmetry_right_left():
    assert atom_complexity_bound(RIGHT, 4, 2) == atom_complexity_bound(LEFT, 4, 2) == 16
    for n in range(2, 13):
        assert symmetry_check(n)


def test_bounds_are_exact_integers():
    for kind in WitnessClass:
        for n in range(1, 13):
            for s in range(n + 1):
                value = atom_complexity_bound(kind, n, s)
                assert value is None or isinstance(value, int)


def test_bound_argument_validation():
    with pytest.raises(ValueError):
        atom_complexity_bound(REG, 0, 0)
    with pytest.raises(ValueError):
        atom_complexity_bound(REG, 3, 4)
    with pytest.raises(ValueError):
        symmetry_check(1)
    with pytest.raises(ValueError):
        build_table(REG, 13)


def test_bound_for_basis_special_cases():
    assert bound_for_basis(LEFT, 4, {1, 3}) is None
    assert bound_for_basis(LEFT, 4, {1, 2, 3, 4}) == 4
    assert bound_for_basis(LEFT, 4, {2, 3}) == atom_complexity_bound(LEFT, 4, 2)
    assert bound_for_basis(RIGHT, 4, {1, 2}) is None
    assert bound_for_basis(RIGHT, 4, {1, 4}) == 16
    assert bound_for_basis(TS, 5, {2, 3, 4, 5}) == 12
    assert bound_for_basis(TS, 5, {1, 2, 5}) is None
    assert bound_for_basis(TS, 5, frozenset(range(1, 6))) == 5
    # explicit sink relabeling
    assert bound_for_basis(RIGHT, 4, {1, 2}, sink=2) == 16


@pytest.mark.parametrize(
    "kind, basis",
    [(REG, {99}), (LEFT, {0}), (REG, [[1]]), (TS, {"4"}), (RIGHT, {1.0, 4})],
)
def test_bound_for_basis_refuses_ids_that_are_not_states(kind, basis):
    with pytest.raises(InvalidBasisError):
        bound_for_basis(kind, 4, basis)


@pytest.mark.parametrize("kind", list(WitnessClass))
@pytest.mark.parametrize("sink", [9, 0, "4", [1]])
def test_bound_for_basis_refuses_a_sink_that_is_not_a_state(kind, sink):
    with pytest.raises(InvalidBasisError, match="sink"):
        bound_for_basis(kind, 4, {1, 4}, sink=sink)


def test_build_table_rows_and_ratios():
    tables = build_table(REG, 5)
    assert [t.max_value for t in tables] == [1, 3, 10, 43, 141]
    assert tables[0].ratio is None
    assert f"{tables[3].ratio:.2f}" == "4.30"
    ts_tables = build_table(TS, 9)
    assert ts_tables[8].max_value == 1710
    assert ts_tables[3].rows == (None, 5, 8, 7, 4)


@pytest.mark.parametrize("kind", list(WitnessClass))
def test_bounds_equal_the_per_class_double_sums(kind):
    for n in range(1, 41):
        assert max_atom_count(kind, n) == paper_max_atom_count(kind.value, n), n
        for s in range(n + 1):
            assert atom_complexity_bound(kind, n, s) == paper_atom_complexity_bound(
                kind.value, n, s
            ), (n, s)


@pytest.mark.parametrize("kind", list(WitnessClass))
def test_bound_for_basis_equals_brute_admissibility(kind):
    """A basis is admissible when it holds the accepting sink (right and
    two-sided ideals) and, unless it is the full set, avoids the initial
    state 1 (left and two-sided ideals)."""
    needs_sink = kind.value in ("right", "two-sided")
    avoids_initial = kind.value in ("left", "two-sided")
    for n in range(1, 8):
        states = range(1, n + 1)
        for size in range(n + 1):
            for basis in combinations(states, size):
                for sink in (None, *states):
                    admissible = not (
                        (needs_sink and (n if sink is None else sink) not in basis)
                        or (avoids_initial and 1 in basis and size < n)
                    )
                    expected = (
                        paper_atom_complexity_bound(kind.value, n, size)
                        if admissible else None
                    )
                    assert bound_for_basis(kind, n, basis, sink=sink) == expected, (
                        n, basis, sink,
                    )
