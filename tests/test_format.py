import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfatoms import (
    Dfa,
    DfatomsError,
    ParseError,
    RandomSpec,
    Transformation,
    build_atom_dfa,
    dfa_to_dot,
    parse_dfa,
    random_dfa,
    render_dfa,
    witness,
    WitnessClass,
    regular_witness,
    right_ideal_witness,
)

VALID_DOC = """\
dfa v1
states 3
alphabet a b
initial 1
final 3
trans a 2 3 1
trans b 1 1 3
"""


def test_parse_basic_document():
    d = parse_dfa(VALID_DOC)
    assert d.state_count == 3
    assert d.alphabet == ("a", "b")
    assert d.initial == 1
    assert d.finals == frozenset({3})
    assert d.delta["a"].image == (2, 3, 1)


def test_round_trip_is_identity():
    d = parse_dfa(VALID_DOC)
    assert render_dfa(d) == VALID_DOC
    assert parse_dfa(render_dfa(d)) == d


@pytest.mark.parametrize("kind", list(WitnessClass))
@pytest.mark.parametrize("n", range(2, 10))
def test_round_trip_witnesses(kind, n):
    d = witness(kind, n)
    assert parse_dfa(render_dfa(d)) == d


def test_round_trip_right_witness_n1():
    d = right_ideal_witness(1)
    assert parse_dfa(render_dfa(d)) == d


def test_round_trip_random_dfas():
    for seed in range(100):
        d = random_dfa(RandomSpec(1 + seed % 7, 1 + seed % 3, seed=seed))
        assert parse_dfa(render_dfa(d)) == d


def test_comments_and_blank_lines_ignored():
    doc = "\n# header comment\n" + VALID_DOC.replace(
        "initial 1", "initial 1  # start here\n"
    )
    assert parse_dfa(doc) == parse_dfa(VALID_DOC)


def test_missing_transition_names_letter():
    doc = "\n".join(VALID_DOC.splitlines()[:-1]) + "\n"
    with pytest.raises(ParseError) as info:
        parse_dfa(doc)
    assert "'b'" in str(info.value)


def test_state_out_of_range_reports_line():
    doc = VALID_DOC.replace("trans a 2 3 1", "trans a 2 4 1")
    with pytest.raises(ParseError) as info:
        parse_dfa(doc)
    assert info.value.line == 6
    assert "out of range" in str(info.value)
    doc = VALID_DOC.replace("trans a 2 3 1", "trans a 2 0 1")
    with pytest.raises(ParseError):
        parse_dfa(doc)


def test_bad_header_rejected():
    with pytest.raises(ParseError) as info:
        parse_dfa("dfa v2\nstates 1\n")
    assert info.value.line == 1


def test_duplicate_transition_rejected():
    doc = VALID_DOC.replace("trans b 1 1 3", "trans a 2 3 1")
    with pytest.raises(ParseError) as info:
        parse_dfa(doc)
    assert "duplicate" in str(info.value) or "'b'" in str(info.value)


def test_wrong_entry_count_rejected():
    doc = VALID_DOC.replace("trans a 2 3 1", "trans a 2 3")
    with pytest.raises(ParseError) as info:
        parse_dfa(doc)
    assert "expected 3" in str(info.value)


def test_trailing_content_rejected():
    with pytest.raises(ParseError):
        parse_dfa(VALID_DOC + "states 4\n")


def test_non_integer_state_rejected():
    with pytest.raises(ParseError):
        parse_dfa(VALID_DOC.replace("initial 1", "initial one"))


@pytest.mark.parametrize(
    "field, bad",
    [("states 3", "states \u0663"), ("initial 1", "initial +1"), ("final 3", "final 0_3")],
    ids=["arabic-indic-digit", "sign", "underscore"],
)
def test_integers_outside_ascii_digits_rejected(field, bad):
    # int() reads each of these as a valid number, but render_dfa would
    # write it back differently.
    with pytest.raises(ParseError) as info:
        parse_dfa(VALID_DOC.replace(field, bad))
    assert "must be an integer" in str(info.value)


def test_truncated_document():
    with pytest.raises(ParseError):
        parse_dfa("dfa v1\nstates 2\n")


def test_dot_export_structure():
    d = parse_dfa(VALID_DOC)
    dot = dfa_to_dot(d)
    assert dot.startswith("digraph dfa {")
    assert "3 [shape=doublecircle];" in dot
    assert "__start -> 1;" in dot
    assert '1 -> 2 [label="a"];' in dot
    assert '2 -> 1 [label="b"];' in dot
    assert dot == dfa_to_dot(d)  # byte-stable


def test_dot_merges_parallel_edges():
    d = regular_witness(2)  # a and c both send 2 to 1
    dot = dfa_to_dot(d)
    assert '2 -> 1 [label="a,c"];' in dot


def test_dot_with_labels():
    d = regular_witness(3)
    atom_dfa = build_atom_dfa(d, {3})
    labels = [str(i) for i in range(atom_dfa.state_count)]
    dot = dfa_to_dot(atom_dfa, labels)
    assert 'label="0"' in dot
    with pytest.raises(ValueError):
        dfa_to_dot(atom_dfa, ["just one"])


def test_render_with_empty_finals_round_trips():
    d = Dfa(2, ("a",), {"a": Transformation((2, 1))}, 1, frozenset())
    assert parse_dfa(render_dfa(d)) == d


# Characters that are likely to change a document's meaning: digits, field
# and line separators, the comment marker, a sign, letters of the witnesses'
# alphabets and of the keywords, and non-ASCII digits and letters.
MUTATION_CHARS = "0123456789 \t\n#-+_abcdefinalstr\u0663\u00e9\x00"


@st.composite
def mutated_documents(draw):
    """A rendered witness document with up to five character or line edits."""
    kind = draw(st.sampled_from(WitnessClass))
    text = render_dfa(witness(kind, draw(st.integers(2, 6))))
    for _ in range(draw(st.integers(1, 5))):
        lines = text.splitlines(keepends=True)
        edit = draw(st.sampled_from(["replace", "insert", "delete", "drop", "copy", "swap"]))
        if edit in ("replace", "insert", "delete"):
            at = draw(st.integers(0, len(text)))
            char = "" if edit == "delete" else draw(st.sampled_from(MUTATION_CHARS))
            text = text[:at] + char + text[at + (edit != "insert"):]
        elif lines:
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines) - 1))
            if edit == "drop":
                del lines[i]
            elif edit == "copy":
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
    return text


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(mutated_documents())
def test_mutated_documents_parse_or_raise_a_domain_error(text):
    try:
        assert isinstance(parse_dfa(text), Dfa)
    except DfatomsError:
        pass
