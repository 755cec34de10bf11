"""The package's lazy start-up: every public name and submodule stays where it
was, a CLI process executes only the modules its subcommand calls, and a
function rebound on its submodule (as the benchmark's tracer does) is the one
the CLI calls."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dfatoms
from dfatoms import RandomSpec, cli, minimize, random_dfa, render_dfa, witness, WitnessClass
from test_orbits import REFUSED

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = sorted(dfatoms._EXPORTS)


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


def test_every_public_name_is_named_once_and_is_its_submodules_object():
    names = [name for names in dfatoms._EXPORTS.values() for name in names]
    assert dfatoms.__all__ == sorted(set(names)) and len(names) == len(set(names))
    for sub, names in dfatoms._EXPORTS.items():
        module = sys.modules[f"dfatoms.{sub}"]
        for name in names:
            value = getattr(dfatoms, name)
            assert value is getattr(module, name), name
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == f"dfatoms.{sub}", name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dfatoms import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == dfatoms.__all__


def test_dir_lists_every_public_name_and_submodule():
    listed = set(dir(dfatoms))
    assert set(dfatoms.__all__) <= listed
    assert set(SUBMODULES) <= listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dfatoms.no_such_name


# Runs in a fresh process: which submodules are registered and which have run
# after a bare ``import dfatoms``.  A LazyLoader module is exactly
# ``types.ModuleType`` once it has run, and ``type()`` reads that without
# loading it.
FRESH_IMPORT = """
import json, sys, types
import dfatoms
subs = sorted(dfatoms._EXPORTS)
print(json.dumps({
    "registered": [s for s in subs if sys.modules.get("dfatoms." + s) is getattr(dfatoms, s)],
    "executed": [s for s in subs if type(sys.modules["dfatoms." + s]) is types.ModuleType],
}))
"""


def test_bare_import_registers_every_submodule_and_runs_none():
    state = json.loads(run_python("-c", FRESH_IMPORT).stdout)
    assert state == {"registered": SUBMODULES, "executed": []}


# Runs ``cli.main`` on its command-line arguments in a fresh process and
# prints its exit code, which submodules have executed and whether argparse
# and gettext have been imported.
CLI_PROBE = """
import contextlib, io, json, sys, types
from dfatoms import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exit:
        code = exit.code
print(json.dumps([code, sorted(
    name.split(".")[1] for name, module in sys.modules.items()
    if name.startswith("dfatoms.") and type(module) is types.ModuleType
), [name in sys.modules for name in ("argparse", "gettext")]]))
"""
EVERY_SUBMODULE = set(SUBMODULES)


@pytest.mark.parametrize(
    "argv, code, called, skipped",
    [
        (["--help"], 0, {"errors"}, EVERY_SUBMODULE - {"errors"}),
        (["atoms"], 2, {"errors"}, EVERY_SUBMODULE - {"errors"}),
        (["witness", "--class", "left", "--n", "3"], 0, {"witnesses", "dfa", "dfaformat"},
         {"atoms", "harness", "bounds", "ideals"}),
        (["atoms", "--dfa", "{dfa}"], 0, {"dfaformat", "dfa", "atoms", "_orbits"},
         {"harness", "bounds", "ideals", "witnesses"}),
        # No letter of the random DFA is a permutation: the orbit route is
        # not taken, and its module does not run.
        (["atoms", "--dfa", "{random}", "--basis", "4,5,6"], 0, {"dfaformat", "dfa", "atoms"},
         {"_orbits", "harness", "bounds", "ideals", "witnesses"}),
        # Two moving permutation letters generate the dihedral group of the
        # square, no symmetric product: the orbit test refuses it, and the
        # orbit route's module does not run.
        (["atoms", "--dfa", "{dihedral}"], 0, {"dfaformat", "dfa", "atoms"},
         {"_orbits", "harness", "bounds", "ideals", "witnesses"}),
        (["bounds", "--class", "left", "--n", "4"], 0, {"bounds", "witnesses"},
         {"atoms", "harness", "ideals", "dfaformat", "dfa"}),
        (["table", "--compare", "--max-n", "4"], 0, {"bounds", "witnesses"},
         {"atoms", "harness", "ideals", "dfaformat", "dfa"}),
        (["check-ideal", "--dfa", "{dfa}"], 0, {"dfaformat", "ideals"},
         {"atoms", "harness", "bounds", "witnesses"}),
        (["idealize", "--dfa", "{dfa}", "--kind", "left"], 0, {"dfaformat", "ideals"},
         {"atoms", "harness", "bounds"}),
        (["crosscheck", "--n", "3", "--letters", "2", "--samples", "2", "--seed", "1"], 0,
         {"harness", "atoms", "dfa"}, {"bounds", "ideals", "witnesses", "dfaformat"}),
        # The minimal DFA's one moving permutation letter is (1 3)(2 5 4):
        # its cyclic group is no symmetric product, so the orbit route is
        # not taken.
        (["crosscheck", "--n", "6", "--letters", "3", "--samples", "1", "--seed", "7"], 0,
         {"harness", "atoms", "dfa"}, {"_orbits", "bounds", "ideals", "witnesses", "dfaformat"}),
        (["dot", "--dfa", "{dfa}"], 0, {"dfaformat", "dfa"},
         {"atoms", "harness", "bounds", "ideals", "witnesses"}),
    ],
    ids=[
        "help", "usage-error", "witness", "atoms", "atoms-basis", "atoms-dihedral", "bounds",
        "table", "check-ideal", "idealize", "crosscheck", "crosscheck-cyclic", "dot",
    ],
)
def test_cli_executes_only_the_modules_its_subcommand_calls(
    tmp_path, argv, code, called, skipped
):
    path = tmp_path / "l4.dfa"
    path.write_text(render_dfa(witness(WitnessClass.LEFT_IDEAL, 4)))
    random_path = tmp_path / "random.dfa"
    random_path.write_text(render_dfa(minimize(random_dfa(RandomSpec(6, 3, 1)))))
    dihedral_path = tmp_path / "dihedral.dfa"
    dihedral_path.write_text(render_dfa(REFUSED["dihedral-4"]))
    argv = [arg.format(dfa=path, random=random_path, dihedral=dihedral_path) for arg in argv]
    exit_code, executed, imported = json.loads(run_python("-c", CLI_PROBE, *argv).stdout)
    assert exit_code == code
    assert called <= set(executed)
    assert not skipped & set(executed)
    # Only help and usage errors are read by argparse.
    by_argparse = argv[0].startswith("-") or code == 2
    assert imported == [by_argparse, by_argparse]


def test_cli_module_run_emits_no_warning():
    result = run_python("-W", "error", "-m", "dfatoms.cli", "--help")
    assert result.stdout.startswith("usage: dfatoms")
    assert result.stderr == ""


@pytest.mark.parametrize(
    "subcommand, module, name",
    [
        ("check-ideal", "ideals", "is_left_ideal"),
        ("atoms", "atoms", "enumerate_atoms"),
    ],
)
def test_cli_calls_functions_rebound_on_their_submodule(
    tmp_path, capsys, monkeypatch, subcommand, module, name
):
    path = tmp_path / "t5.dfa"
    path.write_text(render_dfa(witness(WitnessClass.TWO_SIDED_IDEAL, 5)))
    argv = [subcommand, "--dfa", str(path)]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    module = sys.modules[f"dfatoms.{module}"]
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    assert cli.main(argv) == 0
    assert calls
    assert capsys.readouterr().out == plain
