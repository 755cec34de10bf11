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
    PairState,
    RandomSpec,
    SweepReport,
    Transformation,
    WitnessClass,
    left_ideal_witness,
    regular_witness,
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
