"""Atoms of regular languages: quotient complexity, ideal classes, witnesses.

The core objects are complete DFAs over states 1..n given as one
transformation per letter.  On top of them the package computes atoms
(non-empty intersections of complemented and uncomplemented state languages),
their quotient complexities, closed-form worst-case bounds per language class
(regular, right/left/two-sided ideal), witness families attaining those
bounds, and independent oracles for cross-checking all of it.

Every submodule is in ``sys.modules`` and bound here as soon as the package
is imported, but runs only on its first attribute access, so a CLI process
compiles just the modules its subcommand calls.  A public name is resolved
from its submodule on first use and cached here.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Each public name once, under the submodule that defines it.
_EXPORTS = {
    "atoms": (
        "AtomInfo", "AtomReport", "PairState", "atom_complexity", "build_atom_dfa",
        "enumerate_atoms", "is_atom", "reachable_pair_states",
    ),
    "bounds": (
        "BoundsTable", "atom_complexity_bound", "bound_for_basis", "build_table",
        "max_atom_count", "symmetry_check",
    ),
    "dfa": (
        "SUBSET_OP_LIMIT", "Dfa", "Transformation", "atom_bases_by_reversal", "compose",
        "distinguishability_classes", "induced_transformation", "minimize",
        "quotient_complexity", "reachable", "transition_semigroup",
    ),
    "dfaformat": ("dfa_to_dot", "parse_dfa", "render_dfa"),
    "errors": (
        "CapExceededError", "DfatomsError", "EmptyLanguageError", "InvalidBasisError",
        "InvalidDfaError", "LimitExceededError", "NotAnAtomError", "NotAnIdealError",
        "ParseError", "SizeMismatchError", "UnknownLetterError",
    ),
    "harness": (
        "BasisCheck", "CrossCheckReport", "RandomSpec", "SweepReport", "bound_sweep",
        "cross_check", "oracle_atom_complexity", "random_dfa",
        "reversal_quotient_complexity",
    ),
    "ideals": (
        "accepting_sink", "idealize", "is_left_ideal", "is_right_ideal",
        "is_two_sided_ideal", "refined_two_sided_bound", "state_language_contains",
        "successor_sets",
    ),
    "witnesses": (
        "WitnessClass", "left_ideal_witness", "regular_witness", "right_ideal_witness",
        "two_sided_ideal_witness", "witness",
    ),
}
_OWNER = {name: sub for sub, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)

# The stdlib's lazy-import recipe.  Until Python 3.13 (3.10, 3.11 and at
# least 3.12.1) LazyLoader takes no lock, so two threads that first touch the
# same submodule at once can see it half run; the package starts no threads,
# and README.md tells callers to make the first call from one thread.
# ``cli`` is not registered: ``python -m dfatoms.cli`` would warn that it is
# already in sys.modules.
for _sub in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_sub}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    globals()[_sub] = _module
del _sub, _spec, _module


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_OWNER[name]], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
