"""Byte-level pins of the CLI's output.

Each command runs in-process through ``cli.main``; the sha256 of its stdout,
the sha256 of its stderr and its exit code must equal the values pinned in
``data/cli_pins.json``.  The DFA file a command reads is named ``<dfa>`` in
the pin labels.  Running this file as a script rewrites the pins from the
current tree, which is only right when the output is meant to change.
"""

import contextlib
import hashlib
import io
import json
import pathlib

from dfatoms import RandomSpec, WitnessClass, random_dfa, render_dfa, witness
from dfatoms.cli import main

PINS = pathlib.Path(__file__).parent / "data" / "cli_pins.json"
RANDOM_SEEDS = range(1, 11)


def _bases(n):
    """A few bases of an n-state DFA: atoms and non-atoms alike."""
    everything = ",".join(str(q) for q in range(1, n + 1))
    all_but_first = ",".join(str(q) for q in range(2, n + 1))
    return ["{}", "1", str(n), "1,3", all_but_first, everything]


def _inputs():
    """Name -> DFA text of every input file the pinned commands read."""
    inputs = {}
    for kind in WitnessClass:
        for n in range(3, 7):
            inputs[f"{kind.value}-{n}"] = render_dfa(witness(kind, n))
    for seed in RANDOM_SEEDS:
        spec = RandomSpec(9, 2 + seed % 2, seed)
        inputs[f"random-{seed}"] = render_dfa(random_dfa(spec))
    return inputs


def commands():
    """(label, input name or None, argv with '<dfa>' for the input path)."""
    result = []

    def add(name, *argv):
        label = " ".join(argv) if name is None else f"{name}: {' '.join(argv)}"
        result.append((label, name, list(argv)))

    for kind in WitnessClass:
        for n in range(3, 7):
            name = f"{kind.value}-{n}"
            add(name, "atoms", "--dfa", "<dfa>")
            add(name, "atoms", "--dfa", "<dfa>", "--report", "tsv")
            add(name, "dot", "--dfa", "<dfa>")
            for basis in _bases(n):
                add(name, "atoms", "--dfa", "<dfa>", "--basis", basis)
                add(name, "dot", "--dfa", "<dfa>", "--atom", basis)
    for seed in RANDOM_SEEDS:
        name = f"random-{seed}"
        add(name, "atoms", "--dfa", "<dfa>")
        add(name, "atoms", "--dfa", "<dfa>", "--report", "tsv")
        for kind in ("right", "left", "two-sided"):
            add(name, "idealize", "--dfa", "<dfa>", "--kind", kind)
        add(name, "check-ideal", "--dfa", "<dfa>")
    add(None, "crosscheck", "--n", "4", "--letters", "2", "--samples", "3", "--seed", "5")
    return result


def run_all(directory):
    """Label -> [stdout sha256, stderr sha256, exit code] for every command."""
    paths = {}
    for name, text in _inputs().items():
        path = pathlib.Path(directory) / f"{name}.dfa"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    observed = {}
    for label, name, argv in commands():
        argv = [paths[name] if arg == "<dfa>" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        observed[label] = [
            hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest(),
            code,
        ]
    return observed


def test_cli_output_matches_pins(tmp_path):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    observed = run_all(tmp_path)
    assert sorted(observed) == sorted(pinned)
    changed = [label for label in observed if observed[label] != pinned[label]]
    assert not changed, f"{len(changed)} commands changed output, first: {changed[:5]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        pins = run_all(directory)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pins)} pins to {PINS}")
