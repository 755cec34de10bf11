"""Acceptance suite: every criterion runs at its stated tolerance (exact
unless noted) and prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import functools
import sys
from pathlib import Path

from dfatoms import (
    Dfa,
    RandomSpec,
    Transformation,
    WitnessClass,
    atom_bases_by_reversal,
    atom_complexity,
    atom_complexity_bound,
    bound_sweep,
    cross_check,
    enumerate_atoms,
    idealize,
    induced_transformation,
    is_atom,
    is_left_ideal,
    is_right_ideal,
    is_two_sided_ideal,
    minimize,
    parse_dfa,
    random_dfa,
    refined_two_sided_bound,
    regular_witness,
    render_dfa,
    reversal_quotient_complexity,
    right_ideal_witness,
    symmetry_check,
    transition_semigroup,
    witness,
)
from dfatoms.cli import main

GOLDEN_TABLE = Path(__file__).parent / "data" / "table_compare_n9.tsv"

TS = WitnessClass.TWO_SIDED_IDEAL
LEFT = WitnessClass.LEFT_IDEAL
RIGHT = WitnessClass.RIGHT_IDEAL
REG = WitnessClass.REGULAR


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL", file=sys.__stdout__, flush=True)
                raise
            print(f"ACCEPTANCE {label}: PASS", file=sys.__stdout__, flush=True)

        return run

    return wrap


def one_state_accept_all():
    return Dfa(1, ("a",), {"a": Transformation.identity(1)}, 1, frozenset({1}))


def sample_basis(kind, n, size):
    """A valid atom basis of the requested size for the class witness."""
    if size == 0:
        return frozenset()
    if kind is REG:
        return frozenset(range(1, size + 1))
    if kind is RIGHT:
        return frozenset({n} | set(range(1, size)))
    if kind is LEFT:
        if size == n:
            return frozenset(range(1, n + 1))
        return frozenset(range(2, size + 2))
    if size == n:
        return frozenset(range(1, n + 1))
    return frozenset({n} | set(range(2, size + 1)))


@functools.lru_cache(maxsize=None)
def witness_complexity(kind, n, size):
    """Atom complexity of the class witness at one basis of the given size."""
    if n == 1:
        return atom_complexity(one_state_accept_all(), {1})
    return atom_complexity(witness(kind, n), sample_basis(kind, n, size))


def parsed_golden_cells():
    """(class, n, size) -> printed value or None for an asterisk."""
    rows = [line.split("\t") for line in GOLDEN_TABLE.read_text().splitlines()]
    kinds = [TS, LEFT, REG]
    cells = {}
    for row in rows:
        if not row[0].startswith("|S|="):
            continue
        size = int(row[0][4:])
        for n, cell in enumerate(row[1:], start=1):
            if not cell:
                continue
            for kind, part in zip(kinds, cell.split("/")):
                cells[kind, n, size] = None if part == "*" else int(part)
    return cells


@criterion("1 table reproduction")
def test_criterion_1_table_reproduction():
    cells = parsed_golden_cells()
    assert len(cells) == 3 * sum(n + 1 for n in range(1, 10))
    for (kind, n, size), printed in sorted(
        cells.items(), key=lambda item: (item[0][1], item[0][2])
    ):
        if printed is None:
            # the class admits no atom with a basis of this size
            assert size == 0 and kind is TS
            continue
        if n == 1 and size == 0:
            # printed as a formula value; the only language of complexity 1
            # has a single atom, whose basis has size 1
            assert not is_atom(one_state_accept_all(), frozenset())
            continue
        assert witness_complexity(kind, n, size) == printed, (kind, n, size)
    # every basis of equal size gives the same value on the small witnesses
    for kind in (TS, LEFT, REG):
        for n in range(2, 6):
            w = witness(kind, n)
            for mask in range(1 << n):
                basis = frozenset(
                    q for q in range(1, n + 1) if mask & (1 << (q - 1))
                )
                if not is_atom(w, basis):
                    continue
                assert atom_complexity(w, basis) == cells[kind, n, len(basis)]


@criterion("2 atom counts")
def test_criterion_2_atom_counts():
    for n in range(2, 10):
        assert len(atom_bases_by_reversal(regular_witness(n))) == 2**n
    for n in range(1, 10):
        assert len(atom_bases_by_reversal(right_ideal_witness(n))) == 2 ** (n - 1)
    for n in range(2, 10):
        assert len(atom_bases_by_reversal(witness(LEFT, n))) == 2 ** (n - 1) + 1
        assert len(atom_bases_by_reversal(witness(TS, n))) == 2 ** (n - 2) + 1


@criterion("3 bound-formula consistency")
def test_criterion_3_bound_consistency():
    for kind in WitnessClass:
        # complexity 1: the single atom of the one non-empty language
        assert witness_complexity(kind, 1, 1) == atom_complexity_bound(kind, 1, 1)
        for n in range(2, 10):
            for size in range(n + 1):
                bound = atom_complexity_bound(kind, n, size)
                if bound is None:
                    continue
                assert witness_complexity(kind, n, size) == bound, (kind, n, size)
    for n in range(2, 13):
        assert symmetry_check(n)


@criterion("4 oracle equivalence")
def test_criterion_4_oracle_equivalence():
    reports = []
    for kind in WitnessClass:
        start = 1 if kind is RIGHT else 2
        for n in range(start, 6):
            reports.append(cross_check(witness(kind, n), f"{kind.value} n={n}"))
    for i in range(100):
        spec = RandomSpec(2 + i % 4, 2 + i % 2, seed=9000 + i)
        reports.append(cross_check(random_dfa(spec), f"seed={spec.seed}"))
    assert len(reports) == 117  # 17 witnesses plus 100 random instances
    for report in reports:
        assert report.passed, report.description
        assert report.routes_agree, report.description


@criterion("5 reversal identity")
def test_criterion_5_reversal_identity():
    for i in range(200):
        spec = RandomSpec(2 + i % 6, 2 + i % 2, seed=20000 + i)
        d = random_dfa(spec)
        count = enumerate_atoms(d).count
        assert count == reversal_quotient_complexity(d), spec


@criterion("6 ideal closure soundness")
def test_criterion_6_ideal_closure_soundness():
    checks = [
        (RIGHT, is_right_ideal),
        (LEFT, is_left_ideal),
        (TS, is_two_sided_ideal),
    ]
    for kind, predicate in checks:
        checked = 0
        for i in range(250):
            d = random_dfa(RandomSpec(2 + i % 4, 2 + i % 2, seed=30000 + i))
            if not minimize(d).finals:
                continue
            assert predicate(idealize(d, kind))
            checked += 1
        assert checked >= 200
    # atom complexities of idealized DFAs respect the class bounds
    for kind, n, samples in ((RIGHT, 5, 70), (LEFT, 4, 70), (TS, 4, 70)):
        report = bound_sweep(kind, n, samples=samples, seed=40000)
        assert report.passed, report.violations
        assert report.witness_attains
    # successor-set refinement brackets the near-full atom
    compared = 0
    for i in range(80):
        d = random_dfa(RandomSpec(3 + i % 3, 2, seed=50000 + i))
        if not minimize(d).finals:
            continue
        closed = minimize(idealize(d, TS))
        m = closed.state_count
        refined = refined_two_sided_bound(closed)
        assert refined <= (1 << max(m - 2, 0)) + m - 1
        basis = frozenset(range(2, m + 1))
        if m > 1 and is_atom(closed, basis):
            assert refined >= atom_complexity(closed, basis)
            compared += 1
    assert compared >= 25


@criterion("7 semigroup size")
def test_criterion_7_semigroup_size():
    for n in range(2, 7):
        assert len(transition_semigroup(regular_witness(n), n**n)) == n**n
    for n in range(4, 10):
        t = induced_transformation(witness(TS, n), "ef")
        assert t.image == tuple(n for _ in range(n))


@criterion("8 serialization")
def test_criterion_8_serialization(capsys):
    for kind in WitnessClass:
        start = 1 if kind is RIGHT else 2
        for n in range(start, 10):
            d = witness(kind, n)
            assert parse_dfa(render_dfa(d)) == d
    for i in range(100):
        d = random_dfa(RandomSpec(1 + i % 7, 1 + i % 3, seed=60000 + i))
        assert parse_dfa(render_dfa(d)) == d
    assert main(["table", "--compare", "--max-n", "9"]) == 0
    assert capsys.readouterr().out == GOLDEN_TABLE.read_text()
