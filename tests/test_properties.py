"""Property tests over random small DFAs, run deterministically.

The inputs are not minimized and may have unreachable states: the signature
route rests on the atoms of the state-language list, which every DFA has.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfatoms import (
    Dfa,
    NotAnAtomError,
    Transformation,
    atom_bases_by_reversal,
    atom_complexity,
    build_atom_dfa,
    oracle_atom_complexity,
    quotient_complexity,
)


@st.composite
def small_dfas(draw):
    n = draw(st.integers(1, 6))
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    images = st.lists(st.integers(1, n), min_size=n, max_size=n)
    delta = {letter: Transformation(tuple(draw(images))) for letter in alphabet}
    initial = draw(st.integers(1, n))
    finals = draw(st.frozensets(st.integers(1, n)))
    return Dfa(n, alphabet, delta, initial, finals)


# States 1 and 2 have the same language, so the DFA is not minimal.
DUPLICATED_STATE = Dfa(
    4,
    ("a", "b"),
    {"a": Transformation((3, 3, 4, 1)), "b": Transformation((2, 1, 4, 4))},
    1,
    frozenset({4}),
)
# No word leads from state 1 to states 3 or 4.
UNREACHABLE_STATES = Dfa(
    4,
    ("a", "b"),
    {"a": Transformation((2, 1, 4, 1)), "b": Transformation((1, 1, 2, 3))},
    1,
    frozenset({2, 3}),
)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@example(DUPLICATED_STATE)
@example(UNREACHABLE_STATES)
@given(small_dfas())
def test_signature_route_agrees_with_moore_and_monoid(dfa):
    columns = atom_bases_by_reversal(dfa)
    for mask in range(1 << dfa.state_count):
        basis = frozenset(q for q in range(1, dfa.state_count + 1) if mask >> (q - 1) & 1)
        if basis not in columns:
            with pytest.raises(NotAnAtomError):
                atom_complexity(dfa, basis)
            continue
        expected = oracle_atom_complexity(dfa, basis)
        assert quotient_complexity(build_atom_dfa(dfa, basis)) == expected
        assert atom_complexity(dfa, basis) == expected
