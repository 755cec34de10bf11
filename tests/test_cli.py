import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfatoms import atoms, parse_dfa, render_dfa, two_sided_ideal_witness, witness, WitnessClass
from dfatoms.cli import _COMMANDS, _keywords, _named_subcommand, _parse, build_parser, main
from test_cli_pins import commands as pinned_commands


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_witness_command_round_trips(capsys):
    code, out, err = run(capsys, "witness", "--class", "regular", "--n", "4")
    assert code == 0 and not err
    assert parse_dfa(out) == witness(WitnessClass.REGULAR, 4)


def test_witness_command_writes_file(tmp_path, capsys):
    target = tmp_path / "w.dfa"
    code, out, _ = run(
        capsys, "witness", "--class", "left", "--n", "2", "--out", str(target)
    )
    assert code == 0 and out == ""
    d = parse_dfa(target.read_text())
    assert d.alphabet == ("a", "b", "c")
    assert d.delta["b"].image == (2, 2)


def test_atoms_single_basis(tmp_path, capsys):
    target = tmp_path / "ts4.dfa"
    target.write_text(render_dfa(two_sided_ideal_witness(4)))
    code, out, _ = run(capsys, "atoms", "--dfa", str(target), "--basis", "2,3,4")
    assert code == 0
    assert out == "7\n"


def test_atoms_full_report(tmp_path, capsys):
    target = tmp_path / "l3.dfa"
    target.write_text(render_dfa(witness(WitnessClass.LEFT_IDEAL, 3)))
    code, out, _ = run(capsys, "atoms", "--dfa", str(target))
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "states 3"
    assert lines[1] == "atoms 5"
    assert len(lines) == 7


def test_atoms_tsv_report(tmp_path, capsys):
    target = tmp_path / "r3.dfa"
    target.write_text(render_dfa(witness(WitnessClass.RIGHT_IDEAL, 3)))
    code, out, _ = run(
        capsys, "atoms", "--dfa", str(target), "--basis", "-", "--report", "tsv"
    )
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "basis\tsize\tcomplexity"
    assert len(lines) == 1 + 4  # 2^(3-1) atoms


def test_atoms_non_atom_basis_fails(tmp_path, capsys):
    target = tmp_path / "r4.dfa"
    target.write_text(render_dfa(witness(WitnessClass.RIGHT_IDEAL, 4)))
    code, _, err = run(capsys, "atoms", "--dfa", str(target), "--basis", "1")
    assert code == 1
    assert "error" in err


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--class", "two-sided", "--n", "4")
    lines = out.splitlines()
    assert code == 0
    assert "class\ttwo-sided" in lines
    assert "max-atoms\t5" in lines
    assert "0\t*" in lines
    assert "3\t7" in lines
    assert "max\t8" in lines


def test_table_single_class(capsys):
    code, out, _ = run(capsys, "table", "--class", "regular", "--max-n", "5")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0] == ["n", "1", "2", "3", "4", "5"]
    max_row = next(r for r in rows if r[0] == "max")
    assert max_row[-1] == "141"
    ratio_row = next(r for r in rows if r[0] == "ratio")
    assert ratio_row[1] == "-" and ratio_row[4] == "4.30"


def test_table_compare_matches_golden(capsys):
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "table_compare_n9.tsv"
    code, out, _ = run(capsys, "table", "--compare", "--max-n", "9")
    assert code == 0
    assert out == golden.read_text()


def test_table_requires_a_mode(capsys):
    code, _, err = run(capsys, "table", "--max-n", "3")
    assert code == 1 and "error" in err


def test_check_ideal(tmp_path, capsys):
    target = tmp_path / "l4.dfa"
    target.write_text(render_dfa(witness(WitnessClass.LEFT_IDEAL, 4)))
    code, out, _ = run(capsys, "check-ideal", "--dfa", str(target))
    assert code == 0
    assert out == "right\tfalse\nleft\ttrue\ntwo-sided\tfalse\n"


def test_idealize_command(tmp_path, capsys):
    source = tmp_path / "reg.dfa"
    source.write_text(render_dfa(witness(WitnessClass.REGULAR, 3)))
    closed = tmp_path / "closed.dfa"
    code, _, _ = run(
        capsys, "idealize", "--dfa", str(source), "--kind", "two-sided",
        "--out", str(closed),
    )
    assert code == 0
    code, out, _ = run(capsys, "check-ideal", "--dfa", str(closed))
    assert code == 0
    assert out == "right\ttrue\nleft\ttrue\ntwo-sided\ttrue\n"


def test_crosscheck_command(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "--n", "4", "--letters", "2", "--samples", "3",
        "--seed", "12",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all("PASS" in line for line in lines[:3])
    assert lines[-1] == "passed 3/3"


def test_dot_command(tmp_path, capsys):
    target = tmp_path / "r2.dfa"
    target.write_text(render_dfa(witness(WitnessClass.REGULAR, 2)))
    code, out, _ = run(capsys, "dot", "--dfa", str(target))
    assert code == 0
    assert out.startswith("digraph dfa {")
    assert '2 -> 1 [label="a,c"];' in out


def test_dot_atom_command(tmp_path, capsys):
    target = tmp_path / "r3.dfa"
    target.write_text(render_dfa(witness(WitnessClass.REGULAR, 3)))
    code, out, _ = run(capsys, "dot", "--dfa", str(target), "--atom", "3")
    assert code == 0
    assert 'label="({3},{1,2})"' in out


def test_dot_atom_explores_the_pair_automaton_once(tmp_path, capsys, monkeypatch):
    target = tmp_path / "ts4.dfa"
    target.write_text(render_dfa(two_sided_ideal_witness(4)))
    # Another DFA's atom first, so no exploration is left over from earlier tests.
    atoms.build_atom_dfa(witness(WitnessClass.REGULAR, 3), {3})
    original, calls = atoms._explore, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(atoms, "_explore", counting)
    code, out, _ = run(capsys, "dot", "--dfa", str(target), "--atom", "2,3")
    assert code == 0 and 'label="({2,3},{1,4})"' in out
    assert len(calls) == 1


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "atoms", "--dfa", "/nonexistent.dfa")
    assert code == 1 and "error" in err


def test_parse_error_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.dfa"
    bad.write_text("dfa v1\nstates 0\n")
    code, _, err = run(capsys, "atoms", "--dfa", str(bad))
    assert code == 1 and "line 2" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["witness", "--class", "nonsense", "--n", "3"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_output_is_deterministic(capsys):
    first = run(capsys, "table", "--compare", "--max-n", "6")
    second = run(capsys, "table", "--compare", "--max-n", "6")
    assert first == second


def test_crosscheck_rejects_negative_samples(capsys):
    with pytest.raises(SystemExit) as info:
        main(["crosscheck", "--n", "3", "--letters", "2", "--samples", "-1", "--seed", "1"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""
    code, out, _ = run(
        capsys, "crosscheck", "--n", "3", "--letters", "2", "--samples", "0", "--seed", "1",
    )
    assert (code, out) == (0, "passed 0/0\n")


@pytest.mark.parametrize("n", ["0", "-3"])
def test_bounds_with_bad_n_writes_nothing_to_stdout(capsys, n):
    code, out, err = run(capsys, "bounds", "--class", "regular", "--n", n)
    assert code == 1
    assert out == ""
    assert err == "error: complexity n must be at least 1\n"


SUBCOMMANDS = [
    "witness", "atoms", "bounds", "table", "check-ideal", "idealize", "crosscheck", "dot",
]
CROSSCHECK = ["crosscheck", "--n", "3", "--letters", "2", "--seed", "1", "--samples"]


def parse_outcome(capsys, parser, argv):
    """What ``parser`` makes of ``argv``: exit code, stdout, stderr, namespace."""
    try:
        namespace, code = parser.parse_args(argv), 0
    except SystemExit as exit:
        namespace, code = None, exit.code
    out, err = capsys.readouterr()
    return code, out, err, namespace


# Help, usage errors and one valid command line of each subcommand.
PARSER_CORPUS = [
    ["--help"], [], ["nope"], ["-h", "atoms"], ["--bogus", "atoms", "--dfa", "x"],
    *([name, "--help"] for name in SUBCOMMANDS),
    ["witness", "--class", "nonsense", "--n", "3"],
    ["atoms"],
    ["dot", "--dfa", "x", "extra"],
    [*CROSSCHECK, "-1"],
    ["witness", "--class", "left", "--n", "3"],
    ["atoms", "--dfa", "x", "--basis", "1,2", "--report", "tsv"],
    ["bounds", "--class", "two-sided", "--n", "4"],
    ["table", "--compare", "--max-n", "5"],
    ["check-ideal", "--dfa", "x"],
    ["idealize", "--dfa", "x", "--kind", "right", "--out", "y"],
    [*CROSSCHECK, "2"],
    ["dot", "--dfa", "x", "--atom", "{}"],
]


@pytest.mark.parametrize("argv", PARSER_CORPUS)
def test_parser_of_the_named_subcommand_says_what_the_full_parser_says(
    capsys, monkeypatch, argv
):
    monkeypatch.setenv("COLUMNS", "80")
    full = parse_outcome(capsys, build_parser(), argv)
    assert parse_outcome(capsys, build_parser(_named_subcommand(argv)), argv) == full


# The command lines of the benchmark's operations, one of each shape; its
# start-up probe, ``--help``, is in PARSER_CORPUS.
BENCHMARK_ARGVS = [
    ["witness", "--class", "regular", "--n", "10", "--out", "w.dfa"],
    ["atoms", "--dfa", "w.dfa"],
    ["atoms", "--dfa", "w.dfa", "--basis", "1,4,7"],
    ["atoms", "--dfa", "w.dfa", "--basis", "{}"],
    ["crosscheck", "--n", "6", "--letters", "3", "--samples", "3", "--seed", "7"],
    ["idealize", "--dfa", "w.dfa", "--kind", "two-sided"],
    ["check-ideal", "--dfa", "w.dfa"],
]
PINNED_ARGVS = [
    [arg.replace("<dfa>", "p.dfa") for arg in argv] for _, _, argv in pinned_commands()
]


def assert_parsers_agree(argv):
    """The table's parser reads ``argv`` as argparse does, or leaves it to it."""
    args = _parse(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv)), argv


@pytest.mark.parametrize("argv", PARSER_CORPUS)
def test_the_table_parser_reads_argv_as_argparse_does(argv):
    assert_parsers_agree(argv)


def test_the_table_parser_reads_every_benchmark_and_pinned_command_line():
    for argv in BENCHMARK_ARGVS + PINNED_ARGVS:
        assert _parse(argv) is not None, argv
        assert_parsers_agree(argv)


FLAGS = sorted({flag for _, _, options in _COMMANDS.values() for flag, _ in options})
VALUES = st.one_of(
    st.sampled_from(["-", "-h", "--", "--dfa", "-1"]),
    st.sampled_from([
        "{}", "x", "1,2", "3.5", "nonsense", "regular", "right", "left", "two-sided", "tsv",
        "text",
    ]),
    st.integers(-3, 12).map(str),
)
NOISE = st.one_of(
    st.sampled_from(["-h", "--help", "--", *SUBCOMMANDS, *FLAGS]),
    st.sampled_from(FLAGS).map(lambda flag: flag[:4]),
    st.tuples(st.sampled_from(FLAGS), VALUES).map("=".join),
    VALUES,
)


@st.composite
def command_lines(draw):
    """A well-formed command line, or one with up to two changes: an option
    dropped, repeated, abbreviated or given a value of another type or
    choice, or a noise token (help, an abbreviation, ``--flag=value``, a
    stray value) put in."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    groups = []
    for flag, spec in _COMMANDS[command][2]:
        choices = _keywords(spec).get("choices")
        fitting = st.sampled_from(choices) if choices else st.integers(0, 9).map(str)
        if spec.get("required") or draw(st.booleans()):
            groups.append([flag] if spec.get("action") == "store_true" else [flag, draw(fitting)])
    groups = draw(st.permutations(groups))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(groups)))
        change = draw(st.sampled_from(["noise", "drop", "repeat", "abbreviate", "value"]))
        if change == "noise":
            groups.insert(at, [draw(NOISE)])
        elif at < len(groups):
            group = groups.pop(at)
            flag = group[0]
            if change == "repeat":
                groups[at:at] = [group, [flag, draw(VALUES)]]
            elif change == "value":
                groups.insert(at, [flag, draw(VALUES)])
            elif change == "abbreviate":  # to its first letter or two
                groups.insert(at, [flag[:draw(st.sampled_from([3, 4]))], *group[1:]])
    return [command, *(token for group in groups for token in group)]


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(command_lines())
# Forms a parser that reads flags and values naively gets wrong: a value
# argparse reads as an option, an ambiguous abbreviation, a store-true flag
# given a value, a repeated option.
@example(["atoms", "--dfa", "-h"])
@example(["table", "--c", "left", "--max-n", "3"])
@example(["table", "--compare", "3", "--max-n", "3"])
@example(["witness", "--class", "left", "--class", "right", "--n", "3"])
def test_the_table_parser_agrees_with_argparse_on_any_tokens(argv):
    assert_parsers_agree(argv)
