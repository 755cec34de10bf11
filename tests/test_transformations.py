import random

import pytest

from dfatoms import InvalidDfaError, SizeMismatchError, Transformation, compose, regular_witness


def test_identity_fixes_everything():
    t = Transformation.identity(5)
    assert t.image == (1, 2, 3, 4, 5)
    assert t.is_identity()


def test_cycle_image():
    assert Transformation.cycle(4, (1, 2, 3, 4)).image == (2, 3, 4, 1)
    assert Transformation.cycle(4, (1, 2)).image == (2, 1, 3, 4)
    assert Transformation.cycle(5, range(2, 6)).image == (1, 3, 4, 5, 2)


def test_unitary_and_constant():
    assert Transformation.unitary(4, 4, 1).image == (1, 2, 3, 1)
    assert Transformation.constant(3, 2).image == (2, 2, 2)


def test_cycle_rejects_repeats():
    with pytest.raises(InvalidDfaError):
        Transformation.cycle(3, (1, 1))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Transformation.unitary(3, 0, 1),
        lambda: Transformation.unitary(3, -1, 1),
        lambda: Transformation.unitary(3, True, 2),
        lambda: Transformation.unitary(3, 4, 1),
        lambda: Transformation.cycle(3, (4,)),
        lambda: Transformation.cycle(3, (1.0, 2)),
    ],
    ids=["unitary-0", "unitary-negative", "unitary-bool", "unitary-past-n", "cycle-past-n",
         "cycle-float"],
)
def test_constructors_refuse_bad_state_ids(make):
    with pytest.raises(InvalidDfaError):
        make()


@pytest.mark.parametrize("state", [0, -1, 4, True, 1.0, "1", None])
def test_applying_refuses_bad_state_ids(state):
    t = Transformation((2, 3, 1))
    with pytest.raises(InvalidDfaError):
        t(state)
    with pytest.raises(InvalidDfaError):
        regular_witness(3).step(state, "a")


def test_valid_state_ids_apply_as_before():
    t = Transformation((2, 3, 1))
    assert [t(q) for q in (1, 2, 3)] == [2, 3, 1]
    assert Transformation.unitary(3, 1, 3).image == (3, 2, 3)
    assert Transformation.cycle(3, ()).image == (1, 2, 3)
    d = regular_witness(3)
    assert [d.step(q, "a") for q in (1, 2, 3)] == [d.delta["a"].image[q - 1] for q in (1, 2, 3)]
    assert d.accepts("ab") == (d.step(d.step(1, "a"), "b") in d.finals)


def test_image_entries_validated():
    with pytest.raises(InvalidDfaError):
        Transformation((1, 4, 2))
    with pytest.raises(InvalidDfaError):
        Transformation((0, 1))
    with pytest.raises(InvalidDfaError):
        Transformation(())


def test_compose_identity_is_neutral():
    one = Transformation.identity(4)
    t = Transformation((2, 2, 4, 1))
    assert compose(one, t) == t
    assert compose(t, one) == t


def test_compose_three_cycle_squared():
    c = Transformation.cycle(3, (1, 2, 3))
    assert compose(c, c).image == (3, 1, 2)


def test_compose_constant_absorbs():
    swap = Transformation.cycle(3, (1, 2))
    const = Transformation.constant(3, 1)
    assert compose(swap, const) == const


def test_compose_applies_left_argument_first():
    t = Transformation((2, 3, 3))
    u = Transformation((1, 1, 2))
    # i -> u(t(i))
    assert compose(t, u).image == (1, 2, 2)


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatchError):
        compose(Transformation.identity(3), Transformation.identity(4))


def test_compose_associative_and_identity_neutral():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 8)
        ts = [
            Transformation(tuple(rng.randint(1, n) for _ in range(n)))
            for _ in range(3)
        ]
        a, b, c = ts
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        one = Transformation.identity(n)
        assert compose(one, a) == a
        assert compose(a, one) == a
