"""The value-type contract: the package's result and input records are
immutable, compared and hashed by value, and survive copy and pickle."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from dfatoms import (
    AtomInfo,
    AtomReport,
    BasisCheck,
    BoundsTable,
    CrossCheckReport,
    Dfa,
    InvalidBasisError,
    InvalidDfaError,
    PairState,
    RandomSpec,
    SweepReport,
    Transformation,
    WitnessClass,
    bound_for_basis,
    dfa_to_dot,
    is_atom,
    left_ideal_witness,
    random_dfa,
    regular_witness,
    render_dfa,
    state_language_contains,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# One keyword construction per value type.
CASES = [
    (Transformation, dict(image=(2, 1, 3))),
    (
        Dfa,
        dict(
            state_count=2,
            alphabet=("a",),
            delta={"a": Transformation((2, 1))},
            initial=1,
            finals=frozenset({2}),
        ),
    ),
    (PairState, dict(x=frozenset({1}), y=frozenset({2}), is_bottom=False)),
    (AtomInfo, dict(basis=frozenset({1, 2}), complexity=3)),
    (AtomReport, dict(state_count=2, atoms=(AtomInfo(frozenset({1}), None),))),
    (
        BoundsTable,
        dict(kind=WitnessClass.LEFT_IDEAL, n=2, rows=(None, 2, 1), max_value=2, ratio=1.0),
    ),
    (RandomSpec, dict(state_count=3, letters=2, seed=1, final_density=0.25)),
    (BasisCheck, dict(basis=frozenset({1}), pair_route=2, oracle_route=2)),
    (
        CrossCheckReport,
        dict(
            description="d",
            basis_checks=(BasisCheck(frozenset({1}), 2, 2),),
            routes_agree=True,
            atom_count=1,
            reversal_complexity=1,
        ),
    ),
    (
        SweepReport,
        dict(
            kind=WitnessClass.REGULAR,
            n=3,
            samples=2,
            seed=5,
            checked=3,
            max_observed=((1, 4),),
            violations=(),
            witness_attains=True,
            skipped=("seed=6: empty language",),
        ),
    ),
]
IDS = [cls.__name__ for cls, _ in CASES]


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_equal_values_make_equal_objects(cls, fields):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_values_of_other_classes_are_never_equal(cls, fields):
    twin = type("Twin", (cls,), {})
    value = cls(**fields)
    assert value != twin(**fields)
    assert twin(**fields) != value
    assert value != tuple(fields.values())


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    value = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert cls(**fields) == value


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
@pytest.mark.parametrize(
    "build",
    [
        lambda cls, fields: cls(**dict(list(fields.items())[1:])),
        lambda cls, fields: cls(*fields.values(), 0),
        lambda cls, fields: cls(**fields, unknown=0),
        lambda cls, fields: cls(next(iter(fields.values())), **fields),
    ],
    ids=["missing", "extra", "unknown", "repeated"],
)
def test_misfit_fields_raise_type_error(cls, fields, build):
    with pytest.raises(TypeError):
        build(cls, fields)


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_fields_read_back(cls, fields):
    value = cls(**fields)
    for name, expected in fields.items():
        assert getattr(value, name) == expected


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_round_trip(cls, fields, round_trip):
    value = cls(**fields)
    again = round_trip(value)
    assert type(again) is cls
    assert again == value
    assert hash(again) == hash(value)


@pytest.mark.parametrize("dfa", [regular_witness(5), left_ideal_witness(4)])
def test_witness_dfa_deepcopies_and_pickles(dfa):
    for again in (copy.deepcopy(dfa), pickle.loads(pickle.dumps(dfa))):
        assert again == dfa
        assert hash(again) == hash(dfa)
        with pytest.raises(TypeError):
            again.delta["a"] = again.delta["a"]


def test_random_spec_default_density():
    assert RandomSpec(3, 2, 1).final_density == 0.5


def test_pinned_reprs():
    assert repr(Transformation((2, 1, 3))) == "Transformation(image=(2, 1, 3))"
    assert repr(PairState({1}, {2})) == "PairState({1}, {2})"
    assert repr(PairState.bottom()) == "PairState.bottom()"
    assert repr(RandomSpec(3, 2, 1)) == (
        "RandomSpec(state_count=3, letters=2, seed=1, final_density=0.5)"
    )
    assert repr(AtomInfo(frozenset({1}), None)) == (
        "AtomInfo(basis=frozenset({1}), complexity=None)"
    )


def test_cli_import_skips_dataclasses_and_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys, dfatoms.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


# ``True`` and ``False`` are ints to Python, but neither is a state id or a
# count: each raises the error, and the message, an id or count of the wrong
# type gets.  Accepted, they rendered files such as ``states True`` that the
# parser refuses.
BOOL_CASES = {
    "is_atom": (lambda: is_atom(regular_witness(4), {True}),
                InvalidBasisError, "basis ids [True] not within 1..4"),
    "bound_for_basis": (lambda: bound_for_basis(WitnessClass.REGULAR, 4, {True}),
                        InvalidBasisError, "basis ids [True] not within 1..4"),
    "bound_for_basis-sink": (lambda: bound_for_basis(WitnessClass.RIGHT_IDEAL, 4, {4}, sink=True),
                             InvalidBasisError, "sink True not within 1..4"),
    "state_language_contains": (lambda: state_language_contains(regular_witness(4), True, 1),
                                InvalidDfaError, "state True not in 1..4"),
    "transformation": (lambda: Transformation((True, 2)),
                       InvalidDfaError, "image of state 1 is True, not in 1..2"),
    "dfa-state-count": (lambda: Dfa(True, ("a",), {"a": Transformation((1,))}, 1, {1}),
                        InvalidDfaError, "state count must be a positive int, got True"),
    "dfa-initial": (lambda: Dfa(2, ("a",), {"a": Transformation((1, 2))}, True, {2}),
                    InvalidDfaError, "initial state True not in 1..2"),
    "dfa-finals": (lambda: Dfa(2, ("a",), {"a": Transformation((1, 2))}, 1, {True}),
                   InvalidDfaError, "final states [True] not within 1..2"),
    "render-random": (lambda: render_dfa(random_dfa(RandomSpec(True, 2, 1))),
                      ValueError, "state_count must be an int, got True"),
    "render": (lambda: render_dfa(Dfa(2, ("a",), {"a": Transformation((True, 2))}, True, {2})),
               InvalidDfaError, "image of state 1 is True, not in 1..2"),
    "dot": (lambda: dfa_to_dot(Dfa(2, ("a",), {"a": Transformation((True, 2))}, True, {2})),
            InvalidDfaError, "image of state 1 is True, not in 1..2"),
    "random-state-count": (lambda: RandomSpec(True, 2, 1),
                           ValueError, "state_count must be an int, got True"),
    "random-letters": (lambda: RandomSpec(3, True, 1),
                       ValueError, "letters must be an int, got True"),
    "random-seed": (lambda: RandomSpec(3, 2, False),
                    ValueError, "seed must be an int, got False"),
}


@pytest.mark.parametrize("call, error, message", BOOL_CASES.values(), ids=BOOL_CASES)
def test_a_bool_is_refused_where_an_int_is_required(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
