"""Seeded rounds of CLI operations, one builder per workload.

A round is the unit of balanced work: every run measures whole rounds, so a
run's mix of operations does not depend on where the clock stopped.  Each
operation carries its own output check, computed by ``reference`` and never
by the package under test.

Every round holds a number of operations that is 5 modulo 10 (5, 15 or 25).
A run repeats the round R times, so each operation contributes R samples to
the pooled wall times.  With m such operations, the pooled median falls on
the middle sample of the ((m+1)/2)-th cheapest operation and the 90th
percentile on the middle sample of the (0.9m+0.5)-th: each lands inside one
operation's samples, never on the gap between two operations of different
cost, where the host's noise would decide the value.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref

# Witness classes and sizes of the full-enumeration workload: the largest
# sizes at which one operation stays under a second, so a run holds many
# rounds and its median is not at the mercy of one slow stretch of the host.
# The small left witness makes the round five operations long.
ENUM_WITNESSES = (("regular", 6), ("right", 7), ("left", 7), ("two-sided", 8), ("left", 6))
# Single-basis queries: the regular witness on 10 states, one basis of each
# size in QUERY_WITNESS_SIZES with seeded members (the witness is symmetric, so
# a size fixes the cost), plus random minimal DFAs on 12 states over 3
# letters, each queried with one atom and one uniform subset.  Random atoms
# range from 2 to ~10^4 classes, so only those within QUERY_ATOM_BAND are
# kept, and subsets that are atoms must stay below its top.
QUERY_WITNESS_N = 10
QUERY_WITNESS_SIZES = (1, 2, 8, 9, 10)
QUERY_RANDOM_N = 12
QUERY_RANDOM_DFAS = 10
QUERY_ATOM_BAND = (500, 2000)
QUERY_DRAWS = 20
# Randomized oracle runs.  The program draws these DFAs itself and one
# instance costs from 5 ms to 7 s, so the pool of instance seeds is fixed and
# the benchmark seed only orders it.  Instances 1 and 2 are left out: together
# they take 2 s, over a third of a round, which would leave a run few rounds.
CROSSCHECK_OPS = 15
CROSSCHECK_FIRST_SEED = 3
CROSSCHECK_SAMPLES = 2
# Ideal closures: random 14-state 3-letter DFAs with sparse finals.  The cost
# of check-ideal is set by the state pairs its containment searches visit
# (``reference.containment_pairs``; about 1 µs each on a 2.1 GHz Xeon), which
# closures of one size can differ in by half.  So the DFAs are drawn until each
# (kind, pair count within 5 %) slot is filled.  Each is idealized and its
# closure checked, except the one of slot 0, the empty language: it is checked
# directly, since idealizing it changes nothing, and that makes the round 25
# operations long.  The three slots of 180k pairs are the 22nd to 24th
# operations by cost, so the 90th percentile falls amid three operations'
# samples, far from the 80k and 300k operations on either side.
IDEAL_N = 14
IDEAL_FINAL_P = 0.1
IDEAL_SLOTS = tuple(
    ("left", w) for w in (2_000, 10_000, 30_000, 80_000, 180_000, 180_000, 180_000, 300_000)
) + tuple(("two-sided", w) for w in (5_000, 15_000, 30_000, 50_000)) + (("left", 0),)
IDEAL_MAX_DRAWS = 50_000


@dataclass
class Op:
    """One CLI invocation and the check its result must pass."""

    name: str
    argv: list[str]
    check: Callable[[int, str, str], bool]
    # Where the operation's stdout is saved for a later operation to read.
    stdout_to: Path | None = None
    inputs: list[Path] = field(default_factory=list)


def _format_basis(basis) -> str:
    return "{" + ",".join(str(q) for q in sorted(basis)) + "}"


def _expect_stdout(expected: str) -> Callable[[int, str, str], bool]:
    return lambda rc, out, err: rc == 0 and out == expected


def _expect_refusal(rc: int, out: str, err: str) -> bool:
    return rc == 1 and out == "" and err.startswith("error:")


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def enum_witness(rng: random.Random, work: Path, witness_file) -> list[Op]:
    ops = []
    for kind, n in ENUM_WITNESSES:
        path = witness_file(kind, n)
        minimal = ref.minimize(ref.parse(path.read_text(encoding="utf-8")))
        atoms = ref.witness_atoms(kind, minimal)
        if len(atoms) != ref.max_atom_count(kind, n) or minimal[0] != n:
            raise RuntimeError(f"{kind} witness on {n} states is not minimal")
        lines = [f"states {n}", f"atoms {len(atoms)}"]
        for basis in sorted(atoms, key=lambda b: (len(b), sorted(b))):
            lines.append(f"{_format_basis(basis)}\t{atoms[basis]}")
        ops.append(Op(f"atoms-{kind}-{n}", ["atoms", "--dfa", str(path)],
                      _expect_stdout("\n".join(lines) + "\n"), inputs=[path]))
    rng.shuffle(ops)
    return ops


def _basis_arg(basis) -> str:
    return ",".join(str(q) for q in sorted(basis)) or "{}"


def _word_column(rng: random.Random, dfa: tuple) -> int:
    """The column {q : w sends q into the finals} of a random word w: an atom basis."""
    n, _, delta, finals = dfa
    images = list(range(n))
    for _ in range(rng.randrange(21)):
        row = delta[rng.randrange(len(delta))]
        images = [row[q] for q in images]
    return sum(1 << q for q in range(n) if finals >> images[q] & 1)


def _draw_query(dfa: tuple, draw, accept) -> tuple[int, int] | None:
    """A drawn basis mask whose complexity ``accept`` admits, with that complexity."""
    for _ in range(QUERY_DRAWS):
        mask = draw()
        complexity = ref.atom_complexity(dfa, mask, cap=2 * QUERY_ATOM_BAND[1])
        if complexity is not None and accept(complexity):
            return mask, complexity
    return None


def atom_query(rng: random.Random, work: Path, witness_file) -> list[Op]:
    ops = []
    n = QUERY_WITNESS_N
    path = witness_file("regular", n)
    if ref.minimize(ref.parse(path.read_text(encoding="utf-8")))[0] != n:
        raise RuntimeError("regular witness is not minimal")
    for size in QUERY_WITNESS_SIZES:
        basis = rng.sample(range(1, n + 1), size)
        expected = f"{ref.size_bound('regular', n, size)}\n"
        ops.append(Op(f"witness-size{size}", ["atoms", "--dfa", str(path), "--basis", _basis_arg(basis)],
                      _expect_stdout(expected), inputs=[path]))
    m = QUERY_RANDOM_N
    low, high = QUERY_ATOM_BAND
    made = 0
    while made < QUERY_RANDOM_DFAS:
        dfa = ref.minimize(ref.random_dfa(rng, m, 3, 0.5))
        if dfa[0] != m:
            continue
        atom = _draw_query(dfa, lambda: _word_column(rng, dfa), lambda c: low <= c <= high)
        subset = _draw_query(dfa, lambda: rng.randrange(1 << m), lambda c: c <= high)
        if atom is None or subset is None:
            continue
        path = _write(work / f"query-{made}.dfa", ref.render(dfa))
        for tag, (mask, complexity) in (("atom", atom), ("subset", subset)):
            basis = [q + 1 for q in range(m) if mask >> q & 1]
            check = _expect_stdout(f"{complexity}\n") if complexity else _expect_refusal
            ops.append(Op(f"random{made}-{tag}", ["atoms", "--dfa", str(path), "--basis", _basis_arg(basis)],
                          check, inputs=[path]))
        made += 1
    rng.shuffle(ops)
    return ops


_INSTANCE = re.compile(r"instance (\d+)\tseed=(\d+)\tatoms (\d+)\tPASS")


def _crosscheck_check(first_seed: int, samples: int) -> Callable[[int, str, str], bool]:
    def check(rc: int, out: str, err: str) -> bool:
        lines = out.splitlines()
        if rc != 0 or len(lines) != samples + 1 or lines[-1] != f"passed {samples}/{samples}":
            return False
        for i, line in enumerate(lines[:-1]):
            match = _INSTANCE.fullmatch(line)
            if not match or int(match[1]) != i or int(match[2]) != first_seed + i:
                return False
        return True
    return check


def crosscheck(rng: random.Random, work: Path, witness_file) -> list[Op]:
    ops = []
    for i in range(CROSSCHECK_OPS):
        seed = CROSSCHECK_FIRST_SEED + i * CROSSCHECK_SAMPLES
        argv = ["crosscheck", "--n", "6", "--letters", "3",
                "--samples", str(CROSSCHECK_SAMPLES), "--seed", str(seed)]
        ops.append(Op(f"crosscheck-{seed}", argv, _crosscheck_check(seed, CROSSCHECK_SAMPLES)))
    rng.shuffle(ops)
    return ops


def _idealized_check(closure: tuple) -> Callable[[int, str, str], bool]:
    def check(rc: int, out: str, err: str) -> bool:
        try:
            return rc == 0 and ref.minimize(ref.parse(out)) == closure
        except (ValueError, KeyError, IndexError):
            return False
    return check


def _slot_for(closure: tuple, kind: str, open_slots: list) -> tuple | None:
    slots = [slot for slot in open_slots if slot[0] == kind]
    if not closure[3]:
        return next((slot for slot in slots if slot[1] == 0), None)
    n = closure[0]
    # The pair count is at least n², and on these inputs at most about 6 n²;
    # count only where a slot is within that reach and an estimate is near it.
    slots = [slot for slot in slots if n * n <= slot[1] * 1.05 and slot[1] * 0.95 <= 8 * n * n]
    if slots:
        estimate = ref.containment_pairs(closure, every=max(1, n // 12))
        slots = [slot for slot in slots if abs(estimate - slot[1]) <= slot[1] / 4]
    if not slots:
        return None
    pairs = ref.containment_pairs(closure)
    return next((slot for slot in slots if abs(pairs - slot[1]) <= slot[1] / 20), None)


def ideal_check(rng: random.Random, work: Path, witness_file) -> list[Op]:
    open_slots = list(IDEAL_SLOTS)
    chosen = []
    for _ in range(IDEAL_MAX_DRAWS):
        if not open_slots:
            break
        dfa = ref.random_dfa(rng, IDEAL_N, 3, IDEAL_FINAL_P)
        for kind in ("left", "two-sided"):
            closure = ref.ideal_closure(dfa, kind)
            slot = _slot_for(closure, kind, open_slots)
            if slot is not None:
                open_slots.remove(slot)
                chosen.append((dfa, kind, closure))
                break
    if open_slots:
        raise RuntimeError(f"no inputs found for closure slots {open_slots}")
    rng.shuffle(chosen)
    ops = []
    for i, (dfa, kind, closure) in enumerate(chosen):
        source = _write(work / f"ideal-{i}.dfa", ref.render(dfa))
        if not closure[3]:
            ops.append(Op(f"check-ideal-{i}-empty", ["check-ideal", "--dfa", str(source)],
                          _expect_refusal, inputs=[source]))
            continue
        closed = work / f"ideal-{i}-closed.dfa"
        ops.append(Op(f"idealize-{i}-{kind}-{closure[0]}",
                      ["idealize", "--dfa", str(source), "--kind", kind],
                      _idealized_check(closure), stdout_to=closed, inputs=[source]))
        right = str(ref.is_right_ideal(closure)).lower()
        check = _expect_stdout(f"right\t{right}\nleft\ttrue\ntwo-sided\t{right}\n")
        ops.append(Op(f"check-ideal-{i}", ["check-ideal", "--dfa", str(closed)], check,
                      inputs=[closed]))
    return ops


BUILDERS = {
    "enum-witness": enum_witness,
    "atom-query": atom_query,
    "crosscheck": crosscheck,
    "ideal-check": ideal_check,
}
