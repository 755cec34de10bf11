"""Command-line front end.

Subcommands: witness, atoms, bounds, table, check-ideal, idealize,
crosscheck, dot.  Exit code 0 on success, 1 on domain errors, 2 on usage
errors.  All output is deterministic given the flags.

Each subcommand's options are written once, in ``_COMMANDS``.  A
well-formed command line is read from that table without argparse;
``--help``, usage errors and every other form go to the argparse parser
built from the same table, which writes all help and error text.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

# The package registers its submodules lazily: binding them here runs none
# of them, and each runs on a subcommand's first call into it, so a process
# compiles only the modules its subcommand calls.  Calls are module-qualified
# and looked up when they run, so a function rebound on its submodule is the
# one called.
from . import atoms, bounds, dfa, dfaformat, harness, ideals, witnesses
from .errors import DfatomsError


def _load_dfa(path: str) -> dfa.Dfa:
    with open(path, "r", encoding="utf-8") as handle:
        return dfaformat.parse_dfa(handle.read())


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_basis(arg: str) -> frozenset[int]:
    arg = arg.strip()
    if arg in ("", "{}"):
        return frozenset()
    try:
        return frozenset(int(part) for part in arg.split(","))
    except ValueError:
        raise DfatomsError(f"basis must be comma-separated state ids, got {arg!r}") from None


def _format_basis(basis: frozenset[int]) -> str:
    return "{" + ",".join(str(q) for q in sorted(basis)) + "}"


def _cmd_witness(args: SimpleNamespace) -> int:
    automaton = witnesses.witness(witnesses.WitnessClass(args.cls), args.n)
    _write(dfaformat.render_dfa(automaton), args.out)
    return 0


def _cmd_atoms(args: SimpleNamespace) -> int:
    minimal = dfa.minimize(_load_dfa(args.dfa))
    if args.basis is not None and args.basis != "-":
        basis = _parse_basis(args.basis)
        complexity = atoms.atom_complexity(minimal, basis)
        if args.report == "tsv":
            print("basis\tsize\tcomplexity")
            print(f"{_format_basis(basis)}\t{len(basis)}\t{complexity}")
        else:
            print(complexity)
        return 0
    report = atoms.enumerate_atoms(minimal)
    if args.report == "tsv":
        print("basis\tsize\tcomplexity")
        for info in report.atoms:
            print(f"{_format_basis(info.basis)}\t{len(info.basis)}\t{info.complexity}")
    else:
        print(f"states {report.state_count}")
        print(f"atoms {report.count}")
        for info in report.atoms:
            print(f"{_format_basis(info.basis)}\t{info.complexity}")
    return 0


def _cmd_bounds(args: SimpleNamespace) -> int:
    kind = witnesses.WitnessClass(args.cls)
    count = bounds.max_atom_count(kind, args.n)
    values = [bounds.atom_complexity_bound(kind, args.n, s) for s in range(args.n + 1)]
    print(f"class\t{kind.value}")
    print(f"n\t{args.n}")
    print(f"max-atoms\t{count}")
    for s, value in enumerate(values):
        print(f"{s}\t{'*' if value is None else value}")
    print(f"max\t{max(v for v in values if v is not None)}")
    return 0


def _ratio_cell(ratio: float | None) -> str:
    return "-" if ratio is None else f"{ratio:.2f}"


def _cmd_table(args: SimpleNamespace) -> int:
    n_max = args.max_n
    if args.compare:
        kinds = [
            witnesses.WitnessClass.TWO_SIDED_IDEAL,
            witnesses.WitnessClass.LEFT_IDEAL,
            witnesses.WitnessClass.REGULAR,
        ]
    elif args.cls is not None:
        kinds = [witnesses.WitnessClass(args.cls)]
    else:
        raise DfatomsError("table requires --class or --compare")
    columns = [bounds.build_table(kind, n_max) for kind in kinds]

    def cell(n: int, s: int) -> str:
        if s > n:
            return ""
        parts = [
            "*" if col[n - 1].rows[s] is None else str(col[n - 1].rows[s])
            for col in columns
        ]
        return "/".join(parts)

    print("n\t" + "\t".join(str(n) for n in range(1, n_max + 1)))
    for s in range(n_max + 1):
        print(f"|S|={s}\t" + "\t".join(cell(n, s) for n in range(1, n_max + 1)))
    print("max\t" + "\t".join(
        "/".join(str(col[n - 1].max_value) for col in columns)
        for n in range(1, n_max + 1)
    ))
    print("ratio\t" + "\t".join(
        "-" if n == 1 else "/".join(_ratio_cell(col[n - 1].ratio) for col in columns)
        for n in range(1, n_max + 1)
    ))
    return 0


def _cmd_check_ideal(args: SimpleNamespace) -> int:
    automaton = _load_dfa(args.dfa)
    right = ideals.is_right_ideal(automaton)
    left = ideals.is_left_ideal(automaton)
    print(f"right\t{str(right).lower()}")
    print(f"left\t{str(left).lower()}")
    print(f"two-sided\t{str(right and left).lower()}")
    return 0


def _cmd_idealize(args: SimpleNamespace) -> int:
    closed = ideals.idealize(_load_dfa(args.dfa), witnesses.WitnessClass(args.kind))
    _write(dfaformat.render_dfa(closed), args.out)
    return 0


def _count(arg: str) -> int:
    """A non-negative int for argparse, which turns a bad one into exit 2."""
    try:
        value = int(arg)
    except ValueError:
        value = None
    if value is not None and value >= 0:
        return value
    import argparse

    raise argparse.ArgumentTypeError(
        f"invalid int value: {arg!r}" if value is None else f"must be at least 0, got {value}"
    )


def _cmd_crosscheck(args: SimpleNamespace) -> int:
    failures = 0
    for i in range(args.samples):
        seed = args.seed + i
        spec = harness.RandomSpec(args.n, args.letters, seed)
        report = harness.cross_check(harness.random_dfa(spec), description=f"seed={seed}")
        status = "PASS" if report.passed else "FAIL"
        if not report.passed:
            failures += 1
        print(f"instance {i}\t{report.description}\tatoms {report.atom_count}\t{status}")
    print(f"passed {args.samples - failures}/{args.samples}")
    return 1 if failures else 0


def _cmd_dot(args: SimpleNamespace) -> int:
    automaton = _load_dfa(args.dfa)
    if args.atom is not None:
        basis = _parse_basis(args.atom)
        atom_dfa = atoms.build_atom_dfa(automaton, basis)
        labels = []
        for pair in atoms.reachable_pair_states(automaton, basis):
            if pair.is_bottom:
                labels.append("⊥")
            else:
                labels.append(f"({_format_basis(pair.x)},{_format_basis(pair.y)})")
        sys.stdout.write(dfaformat.dfa_to_dot(atom_dfa, labels))
    else:
        sys.stdout.write(dfaformat.dfa_to_dot(automaton))
    return 0


def _class_names(*, ideals_only: bool = False) -> list[str]:
    """The language classes' names in enum order, for ``--class`` and ``--kind``."""
    return [
        kind.value for kind in witnesses.WitnessClass
        if not (ideals_only and kind is witnesses.WitnessClass.REGULAR)
    ]


# Each subcommand's help, handler and options, in the order ``--help`` lists
# them.  An option is its flag and the keywords ``add_argument`` takes, but
# ``choices`` may be a function, called only when its subcommand is parsed.
_COMMANDS = {
    "witness": ("emit a witness DFA", _cmd_witness, (
        ("--class", {"dest": "cls", "required": True, "choices": _class_names}),
        ("--n", {"type": int, "required": True}),
        ("--out", {}),
    )),
    "atoms": ("atom report for a DFA file", _cmd_atoms, (
        ("--dfa", {"required": True}),
        ("--basis", {"help": "comma-separated ids, '{}' for empty, '-' for all"}),
        ("--report", {"choices": ["tsv", "text"], "default": "text"}),
    )),
    "bounds": ("per-size complexity bounds for one class", _cmd_bounds, (
        ("--class", {"dest": "cls", "required": True, "choices": _class_names}),
        ("--n", {"type": int, "required": True}),
    )),
    "table": ("bound tables as TSV", _cmd_table, (
        ("--class", {"dest": "cls", "choices": _class_names}),
        ("--compare", {"action": "store_true", "default": False,
                       "help": "three-way two-sided/left/regular table"}),
        ("--max-n", {"dest": "max_n", "type": int, "required": True}),
    )),
    "check-ideal": ("test ideal membership of a DFA file", _cmd_check_ideal, (
        ("--dfa", {"required": True}),
    )),
    "idealize": ("close a DFA's language into an ideal", _cmd_idealize, (
        ("--dfa", {"required": True}),
        ("--kind", {"required": True, "choices": lambda: _class_names(ideals_only=True)}),
        ("--out", {}),
    )),
    "crosscheck": ("randomized oracle agreement run", _cmd_crosscheck, (
        ("--n", {"type": int, "required": True}),
        ("--letters", {"type": int, "required": True}),
        ("--samples", {"type": _count, "required": True}),
        ("--seed", {"type": int, "required": True}),
    )),
    "dot": ("Graphviz export of a DFA or one of its atoms", _cmd_dot, (
        ("--dfa", {"required": True}),
        ("--atom", {"help": "basis of the atom DFA to draw"}),
    )),
}


def _keywords(spec: dict) -> dict:
    """``add_argument``'s keywords for an option of the table."""
    choices = spec.get("choices")
    return dict(spec, choices=choices()) if callable(choices) else spec


def build_parser(command: str | None = None):
    """The argparse parser of every subcommand.  Each is listed, but only the
    one named ``command`` gets its arguments, or every one when ``command``
    is None."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="dfatoms",
        description="Atoms of regular languages: witnesses, bounds, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if command in (None, name):
            for flag, spec in options:
                p.add_argument(flag, **_keywords(spec))
            p.set_defaults(func=func)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """What argparse makes of a well-formed ``argv``, read from the table;
    None for any other.  Well-formed is a subcommand, then its options by
    their exact flags, each at most once and every required one given: a
    store-true flag alone, any other followed by a value of its type and
    choices that does not start with "-" (argparse might read an option)."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    specs = dict(options)
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = specs.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except Exception:  # argparse words the error
            return None
        choices = _keywords(spec).get("choices")
        if choices is not None and value not in choices:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, spec in options:
        if flag not in given and spec.get("required"):
            return None
        setattr(args, spec.get("dest", flag[2:]), given.get(flag, spec.get("default")))
    return args


def _named_subcommand(argv: list[str]) -> str:
    """The subcommand ``argv`` names, or "" for none: its first argument that
    is not an option, since the parser takes no option before it but -h."""
    return next((arg for arg in argv if not arg.startswith("-")), "")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        args = build_parser(_named_subcommand(argv)).parse_args(argv, SimpleNamespace())
    try:
        return args.func(args)
    except (DfatomsError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
