import itertools
import random
import tracemalloc

import pytest

from dfatoms import (
    CapExceededError,
    Dfa,
    InvalidDfaError,
    RandomSpec,
    Transformation,
    UnknownLetterError,
    atom_bases_by_reversal,
    compose,
    distinguishability_classes,
    induced_transformation,
    minimize,
    quotient_complexity,
    random_dfa,
    reachable,
    regular_witness,
    right_ideal_witness,
    state_language_contains,
    transition_semigroup,
    two_sided_ideal_witness,
    witness,
    WitnessClass,
    left_ideal_witness,
)
from dfatoms.dfa import _image_maps, _mask_map, _preimage_maps
from dfatoms.ideals import _containment_masks, idealize, is_left_ideal, is_two_sided_ideal
from oracles import (
    backward_containment,
    brute_columns,
    brute_partition,
    brute_semigroup,
    words_contains,
)


def one_state_accept_all():
    return Dfa(1, ("a",), {"a": Transformation.identity(1)}, 1, frozenset({1}))


def test_dfa_validation():
    t = Transformation.identity(2)
    with pytest.raises(InvalidDfaError):
        Dfa(2, (), {}, 1, frozenset())
    with pytest.raises(InvalidDfaError):
        Dfa(2, ("a", "a"), {"a": t}, 1, frozenset())
    with pytest.raises(InvalidDfaError):
        Dfa(2, ("a", "b"), {"a": t}, 1, frozenset())
    with pytest.raises(InvalidDfaError):
        Dfa(2, ("a",), {"a": Transformation.identity(3)}, 1, frozenset())
    with pytest.raises(InvalidDfaError):
        Dfa(2, ("a",), {"a": t}, 3, frozenset())
    with pytest.raises(InvalidDfaError):
        Dfa(2, ("a",), {"a": t}, 1, frozenset({5}))
    with pytest.raises(InvalidDfaError, match=r"extra \[1, 'b'\]"):
        Dfa(2, ("a",), {"a": t, 1: t, "b": t}, 1, {2})
    with pytest.raises(InvalidDfaError, match="final states"):
        Dfa(2, ("a",), {"a": t}, 1, 2)
    with pytest.raises(InvalidDfaError):
        Dfa(2, ("a b",), {"a b": t}, 1, frozenset())
    # Fields of the wrong type are refused up front, not by a later operation.
    for args in [
        (2, ("a",), {"a": t}, 1.0, {2}),
        (2, ("a",), {"a": t}, "1", {2}),
        (2, ("a",), {"a": t}, 1, {2.0}),
        (2, ("a",), {"a": (2, 1)}, 1, {2}),
        (2.0, ("a",), {"a": t}, 1, {2}),
        (2, (1,), {1: t}, 1, {2}),
        (2, 5, {"a": t}, 1, {2}),
        (2, ("a",), 5, 1, {2}),
        (2, ("a",), "ab", 1, {2}),
    ]:
        with pytest.raises(InvalidDfaError):
            Dfa(*args)


def test_equal_dfas_hash_equal():
    assert hash(regular_witness(5)) == hash(regular_witness(5))
    assert len({regular_witness(5), regular_witness(5), regular_witness(4)}) == 2


def test_dfa_delta_is_read_only():
    delta = {"a": Transformation((2, 1))}
    d = Dfa(2, ("a",), delta, 1, frozenset({1}))
    with pytest.raises(TypeError):
        d.delta["a"] = Transformation.identity(2)
    delta["a"] = Transformation.identity(2)
    assert d.delta["a"].image == (2, 1)


def test_induced_empty_word_is_identity():
    d = regular_witness(4)
    assert induced_transformation(d, "").is_identity()


def test_induced_single_letter():
    d = regular_witness(4)
    assert induced_transformation(d, "a").image == (2, 3, 4, 1)


def test_induced_two_letters():
    # a then c: the full cycle followed by sending 4 to 1
    d = regular_witness(4)
    assert induced_transformation(d, "ac").image == (2, 3, 1, 1)


def test_induced_unknown_letter():
    with pytest.raises(UnknownLetterError):
        induced_transformation(regular_witness(3), "az")


def test_induced_splits_over_concatenation():
    rng = random.Random(5)
    d = random_dfa(RandomSpec(5, 3, seed=99))
    letters = d.alphabet
    for _ in range(50):
        u = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        v = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        assert induced_transformation(d, u + v) == compose(
            induced_transformation(d, u), induced_transformation(d, v)
        )


def test_reachable_full_cycle():
    assert reachable(regular_witness(5)) == frozenset(range(1, 6))


def test_reachable_self_loops_only():
    d = Dfa(
        3,
        ("a", "b"),
        {"a": Transformation((1, 3, 2)), "b": Transformation((1, 1, 1))},
        1,
        frozenset({2}),
    )
    assert reachable(d) == frozenset({1})


def test_reachable_two_sided_witness():
    assert reachable(two_sided_ideal_witness(4)) == frozenset(range(1, 5))


@pytest.mark.parametrize("kind", list(WitnessClass))
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_witnesses_have_singleton_classes(kind, n):
    classes = distinguishability_classes(witness(kind, n))
    assert len(classes) == n
    assert all(len(cls) == 1 for cls in classes)


def test_identical_absorbing_finals_merge():
    # states 3 and 4 are absorbing and final, hence indistinguishable
    d = Dfa(
        4,
        ("a", "b"),
        {"a": Transformation((3, 4, 3, 4)), "b": Transformation((4, 3, 3, 4))},
        1,
        frozenset({3, 4}),
    )
    classes = distinguishability_classes(d)
    assert frozenset({3, 4}) in classes


def test_partition_matches_pairwise_oracle():
    for seed in range(60):
        d = random_dfa(RandomSpec(2 + seed % 5, 2 + seed % 2, seed=seed))
        assert set(distinguishability_classes(d)) == brute_partition(d)


def test_quotient_complexity_of_witnesses():
    assert quotient_complexity(regular_witness(7)) == 7
    assert quotient_complexity(one_state_accept_all()) == 1


def test_minimize_is_idempotent_on_random_dfas():
    for seed in range(100):
        d = random_dfa(RandomSpec(2 + seed % 6, 2 + seed % 2, seed=1000 + seed))
        m = minimize(d)
        assert quotient_complexity(m) == quotient_complexity(d)
        assert m.state_count == quotient_complexity(d)
        assert minimize(m) == m


def test_minimize_keeps_minimal_witness_size():
    for n in (2, 4, 6):
        d = regular_witness(n)
        m = minimize(d)
        assert m.state_count == n
        # same language as far as sampling goes
        rng = random.Random(3)
        for _ in range(100):
            w = [rng.choice(d.alphabet) for _ in range(rng.randint(0, 8))]
            assert d.accepts(w) == m.accepts(w)


def test_minimize_merges_duplicated_state():
    # two copies of a final absorbing state
    d = Dfa(
        4,
        ("a", "b"),
        {"a": Transformation((2, 3, 3, 4)), "b": Transformation((4, 3, 3, 4))},
        1,
        frozenset({3, 4}),
    )
    merged = minimize(d)
    assert merged.state_count < d.state_count


@pytest.mark.parametrize("n,size", [(3, 27), (4, 256)])
def test_semigroup_of_regular_witness_is_everything(n, size):
    assert len(transition_semigroup(regular_witness(n), size)) == size


def test_semigroup_of_left_witness():
    # all maps fixing 1 plus the constants: 4**3 + 3
    d = left_ideal_witness(4)
    elems = transition_semigroup(d, 1000)
    assert len(elems) == 67
    assert {t.image for t in elems} == brute_semigroup(d)


# Syntactic complexity (the size of the transition semigroup) of each ideal
# class's witness up to n = 7, cross-checked against the brute closure up to
# n = 5.  Two-sided n = 3 is left out because its reduced three-letter witness
# generates 5 elements, not because the formula fails: the largest 3-state
# two-sided ideal has 6, as the exhaustive test below pins.
SEMIGROUP_SIZES = {
    WitnessClass.RIGHT_IDEAL: (range(3, 8), lambda n: n ** (n - 1)),
    WitnessClass.LEFT_IDEAL: (range(3, 8), lambda n: n ** (n - 1) + n - 1),
    WitnessClass.TWO_SIDED_IDEAL: (
        range(4, 8), lambda n: n ** (n - 2) + (n - 2) * 2 ** (n - 2) + 1
    ),
}


@pytest.mark.parametrize(
    "kind, n", [(kind, n) for kind, (ns, _) in SEMIGROUP_SIZES.items() for n in ns]
)
def test_semigroup_size_of_ideal_witnesses(kind, n):
    d = witness(kind, n)
    elems = transition_semigroup(d, n**n)
    assert len(elems) == SEMIGROUP_SIZES[kind][1](n)
    if n <= 5:
        assert {t.image for t in elems} == brute_semigroup(d)


@pytest.mark.parametrize("letters, largest", [(1, 2), (2, 5), (3, 6)])
def test_largest_semigroup_of_a_three_state_two_sided_ideal(letters, largest):
    # Every minimal 3-state two-sided ideal, up to renaming: initial state 1,
    # the accepting sink 3 as the only final state, every letter fixing 3.
    maps = [Transformation((p, q, 3)) for p in (1, 2, 3) for q in (1, 2, 3)]
    alphabet = "abc"[:letters]
    sizes = []
    for images in itertools.product(maps, repeat=letters):
        d = Dfa(3, alphabet, dict(zip(alphabet, images)), 1, frozenset({3}))
        if minimize(d).state_count == 3 and is_two_sided_ideal(d):
            elems = transition_semigroup(d, 27)
            assert {t.image for t in elems} == brute_semigroup(d)
            sizes.append(len(elems))
    assert max(sizes) == largest
    if letters == 3:  # the formula holds at n = 3
        assert largest == SEMIGROUP_SIZES[WitnessClass.TWO_SIDED_IDEAL][1](3)


def test_semigroup_cap_carries_partial_count():
    with pytest.raises(CapExceededError) as info:
        transition_semigroup(regular_witness(4), 100)
    assert info.value.partial == 101
    with pytest.raises(ValueError, match="cap must be positive"):
        transition_semigroup(regular_witness(4), 0)


def test_semigroup_identity_only_when_induced():
    # a single constant letter never induces the identity
    d = Dfa(2, ("a",), {"a": Transformation.constant(2, 1)}, 1, frozenset({2}))
    assert all(not t.is_identity() for t in transition_semigroup(d, 10))
    # the regular witness induces it (a to the n-th power)
    assert any(t.is_identity() for t in transition_semigroup(regular_witness(3), 30))


def test_atom_bases_regular_witness_all_subsets():
    bases = atom_bases_by_reversal(regular_witness(3))
    assert len(bases) == 8


def test_atom_bases_right_witness_require_sink():
    bases = atom_bases_by_reversal(right_ideal_witness(4))
    assert len(bases) == 8
    assert all(4 in basis for basis in bases)


def test_atom_bases_one_state():
    assert atom_bases_by_reversal(one_state_accept_all()) == frozenset(
        {frozenset({1})}
    )


def test_atom_bases_match_brute_columns():
    for seed in range(40):
        d = random_dfa(RandomSpec(2 + seed % 5, 2 + seed % 2, seed=7000 + seed))
        assert atom_bases_by_reversal(d) == frozenset(brute_columns(d))


def test_contains_is_reflexive():
    d = regular_witness(4)
    assert all(state_language_contains(d, q, q) for q in range(1, 5))


@pytest.mark.parametrize("state", [0, 5, "1", 1.0, None], ids=repr)
@pytest.mark.parametrize("side", ["p", "q"])
def test_contains_refuses_a_state_that_is_not_an_int_id(side, state):
    p, q = (state, 1) if side == "p" else (1, state)
    with pytest.raises(InvalidDfaError) as info:
        state_language_contains(regular_witness(4), p, q)
    assert str(info.value) == f"state {state!r} not in 1..4"


def test_left_witness_initial_language_is_smallest():
    d = left_ideal_witness(4)
    assert all(state_language_contains(d, 1, q) for q in range(1, 5))


def test_regular_witness_no_containment():
    d = regular_witness(3)
    assert state_language_contains(d, 1, 3) is False
    assert state_language_contains(d, 1, 3) == words_contains(d, 1, 3, 9)


def test_contains_matches_word_oracle():
    for seed in range(25):
        d = random_dfa(RandomSpec(2 + seed % 3, 2, seed=300 + seed))
        n = d.state_count
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                assert state_language_contains(d, p, q) == words_contains(
                    d, p, q, 7
                )


@pytest.mark.parametrize("width", [4, 8])
def test_chunk_tables_map_a_mask_to_the_union_of_its_members(width):
    # Lengths 1..21 give every partial last chunk at both widths.
    rng = random.Random(width)
    for length in range(1, 22):
        bits = [rng.getrandbits(30) for _ in range(length)]
        image = _mask_map(bits, width)
        for _ in range(50):
            mask = rng.getrandbits(length)
            union = 0
            for i in range(length):
                if mask >> i & 1:
                    union |= bits[i]
            assert image(mask) == union


@pytest.mark.parametrize("width", [4, 8])
def test_preimage_tables_map_a_mask_to_the_states_sent_into_it(width):
    rng = random.Random(100 + width)
    for seed in range(20):
        d = random_dfa(RandomSpec(rng.randint(1, 19), 1 + seed % 3, seed=seed))
        for letter, preimage in zip(d.alphabet, _preimage_maps(d, width)):
            image = d.delta[letter].image
            for _ in range(20):
                mask = rng.getrandbits(d.state_count)
                want = sum(1 << p for p, r in enumerate(image) if mask >> (r - 1) & 1)
                assert preimage(mask) == want


def test_image_maps_send_a_subset_to_its_image_under_the_letter():
    rng = random.Random(7)
    for seed in range(20):
        d = random_dfa(RandomSpec(rng.randint(1, 19), 1 + seed % 3, seed=seed))
        for letter, image in zip(d.alphabet, _image_maps(d)):
            t = d.delta[letter]
            for _ in range(20):
                mask = rng.getrandbits(d.state_count)
                images = {t(q) for q in range(1, d.state_count + 1) if mask >> (q - 1) & 1}
                assert image(mask) == sum(1 << (r - 1) for r in images)


def test_pair_image_maps_send_a_packed_pair_to_the_packed_images():
    rng = random.Random(8)
    for seed in range(20):
        n = rng.randint(1, 19)
        d = random_dfa(RandomSpec(n, 1 + seed % 3, seed=seed))
        for image, pair_image in zip(_image_maps(d), _image_maps(d, 2)):
            for _ in range(20):
                x, y = rng.getrandbits(n), rng.getrandbits(n)
                assert pair_image(x | y << n) == image(x) | image(y) << n


def test_containment_on_a_580_state_closure_stays_small():
    # 4-bit preimage tables peak at about 0.65 MB here; 6-bit ones would
    # take 1.44 MB and 8-bit ones 4.14 MB.
    closed = idealize(random_dfa(RandomSpec(14, 3, 33, 0.1)), WitnessClass.LEFT_IDEAL)
    assert closed.state_count == 580
    _containment_masks.cache_clear()
    tracemalloc.start()
    try:
        _containment_masks(closed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert is_left_ideal(closed)


@pytest.mark.parametrize("seed, states", [(4, 157), (21, 220), (0, 294)])
def test_containment_matches_a_backward_pair_closure_on_large_closures(seed, states):
    # The left closures that ideal-check draws, past the 100-state DFAs that
    # the forward pair search checks: every pair against one backward search.
    closed = idealize(random_dfa(RandomSpec(14, 3, seed, 0.1)), WitnessClass.LEFT_IDEAL)
    assert closed.state_count == states
    n = closed.state_count
    contains = backward_containment(closed)
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            assert state_language_contains(closed, p, q) == ((p, q) in contains)
