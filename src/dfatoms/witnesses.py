"""Witness DFA families attaining the worst-case atom bounds per language class.

Each family is emitted exactly as defined, including the reduced alphabets of
the small-n special cases.  All witnesses are minimal, use states 1..n with
initial state 1 and final state n, and letters named a, b, c, ... in order.
"""

from __future__ import annotations

from enum import Enum

from . import dfa


class WitnessClass(Enum):
    REGULAR = "regular"
    RIGHT_IDEAL = "right"
    LEFT_IDEAL = "left"
    TWO_SIDED_IDEAL = "two-sided"


# Per class, the two fixed states that set it apart from the regular
# languages, as 0 or 1: whether the accepting sink lies in every atom's basis
# (L = LΣ*), and whether the initial state (state 1) lies in no basis except Q
# (L = Σ*L).  The bounds count with them and the ideal closures apply them.
_FIXED = {
    WitnessClass.REGULAR: (0, 0),
    WitnessClass.RIGHT_IDEAL: (1, 0),
    WitnessClass.LEFT_IDEAL: (0, 1),
    WitnessClass.TWO_SIDED_IDEAL: (1, 1),
}


def _dfa(n: int, **letters: dfa.Transformation) -> dfa.Dfa:
    """The witness on states 1..n with initial state 1, final state n, and
    ``letters`` in the order given."""
    return dfa.Dfa(n, tuple(letters), letters, 1, frozenset({n}))


def regular_witness(n: int) -> dfa.Dfa:
    """Most complex regular language on n states: a=(1..n), b=(1,2), c=(n->1).

    For n=2 the letters a and b coincide, so the alphabet is {a, c}.
    """
    if n < 2:
        raise ValueError("regular witness requires n >= 2")
    letters = {
        "a": dfa.Transformation.cycle(n, range(1, n + 1)),
        "b": dfa.Transformation.cycle(n, (1, 2)),
        "c": dfa.Transformation.unitary(n, n, 1),
    }
    if n == 2:
        del letters["b"]
    return _dfa(n, **letters)


def right_ideal_witness(n: int) -> dfa.Dfa:
    """Most complex right ideal: a=(1..n-1), b=(2..n-1), c=(n-1->1), d=(n-1->n).

    Small cases: n=3 drops b; n=2 recognizes aa*; n=1 recognizes a*.
    """
    if n < 1:
        raise ValueError("right ideal witness requires n >= 1")
    if n == 1:
        return _dfa(1, a=dfa.Transformation.identity(1))
    if n == 2:
        return _dfa(2, a=dfa.Transformation((2, 2)))
    letters = {
        "a": dfa.Transformation.cycle(n, range(1, n)),
        "b": dfa.Transformation.cycle(n, range(2, n)),
        "c": dfa.Transformation.unitary(n, n - 1, 1),
        "d": dfa.Transformation.unitary(n, n - 1, n),
    }
    if n == 3:
        del letters["b"]
    return _dfa(n, **letters)


def left_ideal_witness(n: int) -> dfa.Dfa:
    """Most complex left ideal: a=(2..n), b=(2,3), c=(n->2), d=(n->1), e=(Q->2).

    Small cases: n=3 drops b; n=2 is the three-letter DFA with a the identity,
    b constant to 2, c constant to 1.
    """
    if n < 2:
        raise ValueError("left ideal witness requires n >= 2")
    if n == 2:
        return _dfa(
            2,
            a=dfa.Transformation.identity(2),
            b=dfa.Transformation.constant(2, 2),
            c=dfa.Transformation.constant(2, 1),
        )
    letters = {
        "a": dfa.Transformation.cycle(n, range(2, n + 1)),
        "b": dfa.Transformation.cycle(n, (2, 3)),
        "c": dfa.Transformation.unitary(n, n, 2),
        "d": dfa.Transformation.unitary(n, n, 1),
        "e": dfa.Transformation.constant(n, 2),
    }
    if n == 3:
        del letters["b"]
    return _dfa(n, **letters)


def two_sided_ideal_witness(n: int) -> dfa.Dfa:
    """Most complex two-sided ideal: a=(2..n-1), b=(2,3), c=(n-1->2),
    d=(n-1->1), e=(Q_{n-1}->2), f=(2->n).

    For n=4 the letters a and b coincide but both are kept.  The small cases
    keep the three letters that stay distinct when the middle cycle empties:
    n=3 uses a=(2->1), b sending {1,2} to 2, and c=(2->3); n=2 degenerates
    further, with a and c the identity and b constant to 2.
    """
    if n < 2:
        raise ValueError("two-sided ideal witness requires n >= 2")
    if n == 2:
        return _dfa(
            2,
            a=dfa.Transformation.identity(2),
            b=dfa.Transformation.constant(2, 2),
            c=dfa.Transformation.identity(2),
        )
    if n == 3:
        return _dfa(
            3,
            a=dfa.Transformation.unitary(3, 2, 1),
            b=dfa.Transformation((2, 2, 3)),
            c=dfa.Transformation.unitary(3, 2, 3),
        )
    return _dfa(
        n,
        a=dfa.Transformation.cycle(n, range(2, n)),
        b=dfa.Transformation.cycle(n, (2, 3)),
        c=dfa.Transformation.unitary(n, n - 1, 2),
        d=dfa.Transformation.unitary(n, n - 1, 1),
        e=dfa.Transformation(tuple(2 if q < n else q for q in range(1, n + 1))),
        f=dfa.Transformation.unitary(n, 2, n),
    )


_BUILDERS = {
    WitnessClass.REGULAR: regular_witness,
    WitnessClass.RIGHT_IDEAL: right_ideal_witness,
    WitnessClass.LEFT_IDEAL: left_ideal_witness,
    WitnessClass.TWO_SIDED_IDEAL: two_sided_ideal_witness,
}


def witness(kind: WitnessClass, n: int) -> dfa.Dfa:
    """The witness DFA of the given class and complexity."""
    return _BUILDERS[kind](n)
