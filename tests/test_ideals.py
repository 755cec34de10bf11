import itertools

import pytest

from dfatoms import ideals
from dfatoms.cli import main
from dfatoms import (
    CapExceededError,
    Dfa,
    EmptyLanguageError,
    NotAnIdealError,
    RandomSpec,
    Transformation,
    WitnessClass,
    accepting_sink,
    atom_complexity,
    is_atom,
    idealize,
    is_left_ideal,
    is_right_ideal,
    is_two_sided_ideal,
    left_ideal_witness,
    minimize,
    random_dfa,
    refined_two_sided_bound,
    regular_witness,
    render_dfa,
    right_ideal_witness,
    successor_sets,
    two_sided_ideal_witness,
)


def accept_all(n=1):
    return Dfa(n, ("a",), {"a": Transformation.identity(n)}, 1,
               frozenset(range(1, n + 1)))


def test_right_ideal_predicate():
    assert is_right_ideal(right_ideal_witness(5))
    assert not is_right_ideal(regular_witness(3))
    assert is_right_ideal(accept_all())


def test_left_ideal_predicate():
    assert is_left_ideal(left_ideal_witness(6))
    assert not is_left_ideal(right_ideal_witness(4))
    assert is_left_ideal(accept_all())


def test_two_sided_predicate():
    assert is_two_sided_ideal(two_sided_ideal_witness(5))
    assert not is_two_sided_ideal(left_ideal_witness(4))
    assert is_two_sided_ideal(accept_all())


def test_empty_language_rejected():
    no_finals = Dfa(2, ("a",), {"a": Transformation((2, 1))}, 1, frozenset())
    unreachable_final = Dfa(
        2, ("a",), {"a": Transformation((1, 2))}, 1, frozenset({2})
    )
    for dead in (no_finals, unreachable_final):
        for predicate in (is_right_ideal, is_left_ideal, is_two_sided_ideal):
            with pytest.raises(EmptyLanguageError):
                predicate(dead)


def test_right_idealize_fixes_right_ideals():
    d = right_ideal_witness(5)
    assert minimize(idealize(d, WitnessClass.RIGHT_IDEAL)) == minimize(d)
    # the regular class fixes neither state, so its closure is the input
    assert idealize(d, WitnessClass.REGULAR) is d


def test_idealize_rejects_a_kind_that_is_not_a_class():
    # a class's value is not the class: no closure is picked for it
    d = random_dfa(RandomSpec(5, 2, 3))
    for kind in ("left", "right", None):
        with pytest.raises(KeyError):
            idealize(d, kind)


def language_is_empty(d):
    return not minimize(d).finals


# The ids here and in test_determinization_cap_is_exact are pinned, so
# recorded test runs keep matching these cases by name.
@pytest.mark.parametrize(
    "kind,predicate",
    [
        (WitnessClass.RIGHT_IDEAL, is_right_ideal),
        (WitnessClass.LEFT_IDEAL, is_left_ideal),
        (WitnessClass.TWO_SIDED_IDEAL, is_two_sided_ideal),
    ],
    ids=[
        "IdealKind.RIGHT-is_right_ideal",
        "IdealKind.LEFT-is_left_ideal",
        "IdealKind.TWO_SIDED-is_two_sided_ideal",
    ],
)
def test_idealize_satisfies_predicate(kind, predicate):
    # the predicates reject the empty language, which is its own closure
    checked = 0
    for seed in range(250):
        d = random_dfa(RandomSpec(2 + seed % 4, 2 + seed % 2, seed=2000 + seed))
        if language_is_empty(d):
            continue
        assert predicate(idealize(d, kind))
        checked += 1
    assert checked >= 200


def test_right_idealize_size():
    for seed in range(50):
        d = random_dfa(RandomSpec(5, 3, seed=900 + seed))
        closed = minimize(idealize(d, WitnessClass.RIGHT_IDEAL))
        assert closed.state_count <= d.state_count + 1


def test_successor_sets_of_two_sided_witness():
    assert successor_sets(two_sided_ideal_witness(5)) == {
        1: frozenset({2, 3, 4, 5}),
        2: frozenset({5}),
        3: frozenset({5}),
        4: frozenset({5}),
        5: frozenset(),
    }


@pytest.mark.parametrize("builder", [left_ideal_witness, two_sided_ideal_witness])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_initial_state_has_all_successors(builder, n):
    succ = successor_sets(builder(n))
    assert succ[1] == frozenset(range(2, n + 1))


def test_successors_form_strict_partial_order():
    for seed in range(40):
        d = minimize(random_dfa(RandomSpec(2 + seed % 5, 2, seed=5000 + seed)))
        succ = successor_sets(d)
        for p, targets in succ.items():
            assert p not in targets
            for q in targets:
                assert p not in succ[q]  # asymmetric
                assert succ[q] <= targets  # transitive


def test_two_sided_ideal_states_see_the_sink():
    for seed in range(30):
        d = random_dfa(RandomSpec(4, 2, seed=1500 + seed))
        if language_is_empty(d):
            continue
        closed = minimize(idealize(d, WitnessClass.TWO_SIDED_IDEAL))
        sink = accepting_sink(closed)
        assert sink is not None
        succ = successor_sets(closed)
        for p in range(1, closed.state_count + 1):
            if p != sink:
                assert sink in succ[p]


def test_accepting_sink_identification():
    assert accepting_sink(minimize(right_ideal_witness(5))) == 5
    assert accepting_sink(minimize(two_sided_ideal_witness(4))) == 4
    assert accepting_sink(accept_all()) == 1
    assert accepting_sink(left_ideal_witness(4)) is None


@pytest.mark.parametrize("n,expected", [(4, 7), (5, 12)])
def test_refined_bound_on_witness(n, expected):
    assert refined_two_sided_bound(two_sided_ideal_witness(n)) == expected
    assert expected == (1 << (n - 2)) + n - 1


def test_refined_bound_requires_two_sided():
    with pytest.raises(NotAnIdealError):
        refined_two_sided_bound(left_ideal_witness(4))


def test_refined_bound_brackets_the_atom():
    checked = 0
    for seed in range(100):
        d = random_dfa(RandomSpec(3 + seed % 3, 2, seed=6000 + seed))
        if language_is_empty(d):
            continue
        closed = minimize(idealize(d, WitnessClass.TWO_SIDED_IDEAL))
        n = closed.state_count
        bound = refined_two_sided_bound(closed)
        assert bound <= (1 << max(n - 2, 0)) + n - 1
        basis = frozenset(range(2, n + 1))
        if n > 1 and is_atom(closed, basis):
            assert bound >= atom_complexity(closed, basis)
            checked += 1
    assert checked >= 30


def test_one_state_two_sided_bound():
    assert refined_two_sided_bound(accept_all()) == 1


def test_each_dfa_is_minimized_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(dfa):
        calls.append(dfa)
        return minimize(dfa)

    monkeypatch.setattr(ideals, "minimize", counting)
    target = tmp_path / "ts6.dfa"
    target.write_text(render_dfa(two_sided_ideal_witness(6)))
    ideals._minimal_nonempty.cache_clear()
    assert main(["check-ideal", "--dfa", str(target)]) == 0
    assert capsys.readouterr().out == "right\ttrue\nleft\ttrue\ntwo-sided\ttrue\n"
    assert len(calls) == 1

    calls.clear()
    ideals._minimal_nonempty.cache_clear()
    assert refined_two_sided_bound(two_sided_ideal_witness(7)) == 38
    assert len(calls) == 1


# Random 14-state DFAs whose left and two-sided closures both determinize to
# more than one subset (96 to 213 before minimizing).
@pytest.mark.parametrize("seed", (3, 7, 9, 12))
@pytest.mark.parametrize(
    "kind",
    (WitnessClass.LEFT_IDEAL, WitnessClass.TWO_SIDED_IDEAL),
    ids=("IdealKind.LEFT", "IdealKind.TWO_SIDED"),
)
def test_determinization_cap_is_exact(seed, kind):
    dfa = random_dfa(RandomSpec(14, 2 + seed % 2, seed))
    for cap in itertools.count(1):
        try:
            closed = idealize(dfa, kind, cap=cap)
        except CapExceededError as error:
            assert error.partial == cap + 1
            assert str(error) == f"determinization exceeds cap {cap}"
        else:
            break
    assert cap > 1
    assert closed == idealize(dfa, kind)
