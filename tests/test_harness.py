import pytest

from dfatoms import (
    Dfa,
    InvalidBasisError,
    LimitExceededError,
    RandomSpec,
    Transformation,
    WitnessClass,
    atom_bases_by_reversal,
    atom_complexity,
    bound_sweep,
    cross_check,
    idealize,
    is_atom,
    minimize,
    oracle_atom_complexity,
    random_dfa,
    regular_witness,
    reversal_quotient_complexity,
    right_ideal_witness,
    witness,
)
from dfatoms import harness
from oracles import brute_semigroup


def test_random_dfa_is_deterministic():
    spec = RandomSpec(5, 3, seed=42)
    assert random_dfa(spec) == random_dfa(spec)
    assert random_dfa(spec) != random_dfa(RandomSpec(5, 3, seed=43))


def test_random_dfa_structure():
    for seed in range(100):
        spec = RandomSpec(2 + seed % 5, 1 + seed % 3, seed=seed)
        d = random_dfa(spec)
        assert d.state_count == spec.state_count
        assert len(d.alphabet) == spec.letters
        assert d.initial == 1
        assert d.finals
        assert len(d.finals) < d.state_count


def test_random_dfa_single_state():
    assert random_dfa(RandomSpec(1, 2, seed=7)).finals == frozenset({1})


def test_random_spec_validation():
    with pytest.raises(ValueError):
        RandomSpec(0, 1, seed=1)
    with pytest.raises(ValueError):
        RandomSpec(3, 0, seed=1)
    with pytest.raises(ValueError):
        RandomSpec(3, 1, seed=1, final_density=1.0)
    for density in ("x", None):
        with pytest.raises(ValueError, match="final_density"):
            RandomSpec(3, 2, 1, density)
    with pytest.raises(ValueError):
        RandomSpec(2.5, 3, seed=1)
    with pytest.raises(ValueError):
        RandomSpec(3, 2.0, seed=1)
    with pytest.raises(ValueError):
        RandomSpec(3, 2, seed=None)  # random.Random(None) would seed from the OS


def test_oracle_known_values():
    assert oracle_atom_complexity(regular_witness(3), {3}) == 10
    assert oracle_atom_complexity(regular_witness(4), {1, 2, 3, 4}) == 15


def test_oracle_flags_non_atoms():
    assert oracle_atom_complexity(right_ideal_witness(4), {1}) == 0


def test_oracle_state_limit():
    with pytest.raises(LimitExceededError):
        oracle_atom_complexity(regular_witness(7), {7})


@pytest.mark.parametrize("basis", [{"x"}, {None}, {1.0}, {"x", None, 9, 0}, [[1]]])
def test_oracle_rejects_basis_ids_that_are_not_states(basis):
    # Every route applies one rule: a basis holds int state ids in 1..n.
    dfa = regular_witness(3)
    for route in (oracle_atom_complexity, atom_complexity, is_atom):
        with pytest.raises(InvalidBasisError):
            route(dfa, basis)


def test_reversal_complexity_values():
    assert reversal_quotient_complexity(regular_witness(3)) == 8
    assert reversal_quotient_complexity(right_ideal_witness(4)) == 8


def test_reversal_complexity_counts_atoms():
    for seed in range(60):
        d = minimize(random_dfa(RandomSpec(2 + seed % 6, 2 + seed % 2, seed=seed)))
        assert reversal_quotient_complexity(d) == len(atom_bases_by_reversal(d))


@pytest.mark.parametrize("kind", list(WitnessClass))
def test_cross_check_witnesses(kind):
    report = cross_check(witness(kind, 4))
    assert report.passed
    assert report.routes_agree
    assert report.atom_count == report.reversal_complexity


def test_cross_check_random_dfas():
    for seed in range(30):
        d = random_dfa(RandomSpec(2 + seed % 4, 2 + seed % 2, seed=7700 + seed))
        assert cross_check(d).passed


def test_cross_check_idealized_random_dfas():
    for seed in range(10):
        d = random_dfa(RandomSpec(4, 2, seed=8800 + seed))
        closed = idealize(d, WitnessClass.TWO_SIDED_IDEAL)
        if closed.state_count <= 6:
            assert cross_check(closed).passed


def test_cross_check_rejects_large_inputs():
    with pytest.raises(LimitExceededError):
        cross_check(regular_witness(7))


def record_refined_states(monkeypatch):
    """Route the monoid oracle's Moore runs through a recorder of their state counts."""
    sizes = []
    moore = harness._moore_blocks

    def recording(rows, finals):
        sizes.append(len(finals))
        return moore(rows, finals)

    monkeypatch.setattr(harness, "_moore_blocks", recording)
    return sizes


# States that Moore refinement over the whole monoid, once per atom, visits.
UNTRIMMED_STATES = {3: 28_532, 13: 33_448}


@pytest.mark.parametrize("seed", sorted(UNTRIMMED_STATES))
def test_cross_check_refines_only_the_live_monoid(monkeypatch, seed):
    sizes = record_refined_states(monkeypatch)
    dfa = random_dfa(RandomSpec(6, 3, seed))
    assert cross_check(dfa).passed
    minimal = minimize(dfa)
    monoid = {tuple(range(1, minimal.state_count + 1))} | brute_semigroup(minimal)
    assert len(sizes) * len(monoid) == UNTRIMMED_STATES[seed]
    assert sum(sizes) <= 0.3 * UNTRIMMED_STATES[seed]


def test_oracle_refines_every_element_when_none_is_dead(monkeypatch):
    # The monoid is the symmetric group on three states, so every element
    # reaches every column of size 1 and no sink state is added.
    generators = {"a": Transformation.cycle(3, (1, 2, 3)), "b": Transformation.cycle(3, (1, 2))}
    dfa = Dfa(3, ("a", "b"), generators, 1, frozenset({1}))
    sizes = record_refined_states(monkeypatch)
    # The quotient after u depends only on where u sends state 1.
    assert [oracle_atom_complexity(dfa, {q}) for q in (1, 2, 3)] == [3, 3, 3]
    assert oracle_atom_complexity(dfa, {1, 2}) == 0
    assert sizes == [6, 6, 6]


def moore_rounds(rows, labels):
    """Rounds Moore refinement takes from ``labels``, the last confirming
    that the partition is stable; ``_moore_blocks``'s loop, counted."""
    block, count, rounds = list(labels), len(set(labels)), 0
    while True:
        rounds += 1
        maps = [[block[j] for j in row] for row in rows]
        ids = {}
        new = [ids.setdefault(sig, len(ids)) for sig in zip(block, *maps)]
        if len(ids) == count:
            return rounds
        block, count = new, len(ids)


# The crosscheck benchmark's pool: n = 6, 3 letters, seeds 3..32.
POOL_SEEDS = range(3, 33)


def test_cross_check_pool_passes_within_pinned_work(monkeypatch):
    rounds, explored = [], []
    moore, explore = harness._moore_blocks, harness._explore

    def recording_moore(rows, labels):
        rounds.append(moore_rounds(rows, labels))
        return moore(rows, labels)

    def recording_explore(dfa, basis_masks):
        pairs, rows, finals = explore(dfa, basis_masks)
        explored.append(len(pairs))
        return pairs, rows, finals

    monkeypatch.setattr(harness, "_moore_blocks", recording_moore)
    monkeypatch.setattr(harness, "_explore", recording_explore)
    for seed in POOL_SEEDS:
        assert cross_check(random_dfa(RandomSpec(6, 3, seed))).passed
    # One Moore run per atom; starting from the distances to the atom takes
    # 3,219 rounds where final/non-final flags take 4,709.
    assert len(rounds) == 793
    assert sum(rounds) <= 3_219
    # One pair exploration per DFA from all 64 start pairs: 5,467 pair
    # states, where one exploration per start pair finds 35,154.
    assert len(explored) == len(POOL_SEEDS)
    assert sum(explored) <= 5_467


def test_bound_sweep_two_sided():
    report = bound_sweep(WitnessClass.TWO_SIDED_IDEAL, 5, samples=20, seed=31)
    assert report.passed
    assert report.witness_attains
    assert all("empty language" in entry for entry in report.skipped)
    assert report.checked + len(report.skipped) == 21


def test_bound_sweep_regular_trivial_language():
    report = bound_sweep(WitnessClass.REGULAR, 1, samples=5, seed=3)
    assert report.passed
    assert report.max_observed == ((1, 1),)


def test_bound_sweep_right_ideals():
    report = bound_sweep(WitnessClass.RIGHT_IDEAL, 4, samples=25, seed=11)
    assert report.passed and report.witness_attains


def test_bound_sweep_rejects_large_n():
    with pytest.raises(ValueError):
        bound_sweep(WitnessClass.REGULAR, 8, samples=1, seed=0)


IDEAL_CLASSES = [WitnessClass.RIGHT_IDEAL, WitnessClass.LEFT_IDEAL, WitnessClass.TWO_SIDED_IDEAL]


@pytest.mark.parametrize("kind", IDEAL_CLASSES, ids=lambda kind: kind.value)
def test_bound_sweep_ideal_classes_at_n10(kind):
    report = bound_sweep(kind, 10, samples=20, seed=1)
    assert report.passed, report.violations
    assert report.witness_attains
    assert report.checked + len(report.skipped) == 21
    # Left closures can minimize past the subset-operation limit.
    assert all("minimized complexity" in entry for entry in report.skipped)


@pytest.mark.parametrize("kind", IDEAL_CLASSES, ids=lambda kind: kind.value)
def test_bound_sweep_rejects_ideal_n11(kind):
    with pytest.raises(ValueError, match="n <= 10"):
        bound_sweep(kind, 11, samples=1, seed=0)
