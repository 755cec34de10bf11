"""Line-oriented DFA documents and Graphviz export.

Document grammar (states are 1-based, fields whitespace-separated, ``#``
starts a comment, blank lines are ignored)::

    dfa v1
    states <n>
    alphabet <l1> <l2> ...
    initial <q>
    final <q> [<q> ...]
    trans <letter> <img1> <img2> ... <imgn>    # one line per letter

Rendering then reparsing yields a structurally equal DFA.
"""

from __future__ import annotations

from collections.abc import Sequence

from .dfa import Dfa, Transformation
from .errors import ParseError


def _tokens(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line.split()


def _int_field(token: str, what: str, line: int) -> int:
    # ``int`` alone would also take signs, underscores and non-ASCII digits,
    # which ``render_dfa`` never writes back.
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"{what} must be an integer, got {token!r}", line)
    return int(token)


def _state_field(token: str, n: int, what: str, line: int) -> int:
    value = _int_field(token, what, line)
    if not 1 <= value <= n:
        raise ParseError(f"{what} {value} out of range 1..{n}", line)
    return value


def parse_dfa(text: str) -> Dfa:
    """Parse a DFA document; raises ``ParseError`` with the offending line."""
    stream = _tokens(text)
    last_line = 0

    def next_tokens(expected: str):
        nonlocal last_line
        try:
            line, tokens = next(stream)
        except StopIteration:
            raise ParseError(f"unexpected end of input, expected {expected}",
                             last_line + 1) from None
        last_line = line
        return line, tokens

    line, tokens = next_tokens("header 'dfa v1'")
    if tokens != ["dfa", "v1"]:
        raise ParseError(f"expected header 'dfa v1', got {' '.join(tokens)!r}", line)

    line, tokens = next_tokens("'states <n>'")
    if len(tokens) != 2 or tokens[0] != "states":
        raise ParseError("expected 'states <n>'", line)
    n = _int_field(tokens[1], "state count", line)
    if n < 1:
        raise ParseError(f"state count must be positive, got {n}", line)

    line, tokens = next_tokens("'alphabet <letters>'")
    if len(tokens) < 2 or tokens[0] != "alphabet":
        raise ParseError("expected 'alphabet <l1> [<l2> ...]'", line)
    alphabet = tuple(tokens[1:])
    if len(set(alphabet)) != len(alphabet):
        raise ParseError("alphabet letters must be distinct", line)

    line, tokens = next_tokens("'initial <q>'")
    if len(tokens) != 2 or tokens[0] != "initial":
        raise ParseError("expected 'initial <q>'", line)
    initial = _state_field(tokens[1], n, "initial state", line)

    line, tokens = next_tokens("'final <q> ...'")
    if not tokens or tokens[0] != "final":
        raise ParseError("expected 'final <q> [<q> ...]'", line)
    finals = frozenset(
        _state_field(tok, n, "final state", line) for tok in tokens[1:]
    )

    delta: dict[str, Transformation] = {}
    while len(delta) < len(alphabet):
        missing = [letter for letter in alphabet if letter not in delta]
        line, tokens = next_tokens(f"'trans' line for letter {missing[0]!r}")
        if tokens[0] != "trans":
            raise ParseError(
                f"expected a 'trans' line for letter {missing[0]!r}, got {tokens[0]!r}",
                line,
            )
        if len(tokens) < 2:
            raise ParseError("expected 'trans <letter> <img1> ...'", line)
        letter = tokens[1]
        if letter not in alphabet:
            raise ParseError(f"transition letter {letter!r} not in alphabet", line)
        if letter in delta:
            raise ParseError(f"duplicate transition row for letter {letter!r}", line)
        images = tokens[2:]
        if len(images) != n:
            raise ParseError(
                f"transition row for {letter!r} has {len(images)} entries, expected {n}",
                line,
            )
        delta[letter] = Transformation(
            tuple(_state_field(tok, n, f"image under {letter!r}", line)
                  for tok in images)
        )

    for line, tokens in stream:
        raise ParseError(f"unexpected content after DFA: {' '.join(tokens)!r}", line)

    return Dfa(n, alphabet, delta, initial, finals)


def render_dfa(dfa: Dfa) -> str:
    """Canonical document for a DFA; finals ascending, letters in alphabet order."""
    lines = [
        "dfa v1",
        f"states {dfa.state_count}",
        "alphabet " + " ".join(dfa.alphabet),
        f"initial {dfa.initial}",
        ("final " + " ".join(str(q) for q in sorted(dfa.finals))).rstrip(),
    ]
    for letter in dfa.alphabet:
        images = " ".join(str(q) for q in dfa.delta[letter].image)
        lines.append(f"trans {letter} {images}")
    return "\n".join(lines) + "\n"


def dfa_to_dot(dfa: Dfa, labels: Sequence[str] | None = None) -> str:
    """Graphviz digraph text for a DFA.

    ``labels`` optionally replaces the displayed name of each state (index
    i-1 labels state i).  Edges between the same pair of states are merged
    into one arrow listing the letters.
    """
    if labels is not None and len(labels) != dfa.state_count:
        raise ValueError("labels must name every state")
    out = ["digraph dfa {", "  rankdir=LR;", "  node [shape=circle];"]
    out.append('  __start [shape=none, label=""];')
    for q in range(1, dfa.state_count + 1):
        attrs = []
        if labels is not None:
            attrs.append(f'label="{labels[q - 1]}"')
        if q in dfa.finals:
            attrs.append("shape=doublecircle")
        if attrs:
            out.append(f"  {q} [{', '.join(attrs)}];")
    out.append(f"  __start -> {dfa.initial};")
    edges: dict[tuple[int, int], list[str]] = {}
    for letter in dfa.alphabet:
        t = dfa.delta[letter]
        for q in range(1, dfa.state_count + 1):
            edges.setdefault((q, t(q)), []).append(letter)
    for (source, target), letters in sorted(edges.items()):
        out.append(f'  {source} -> {target} [label="{",".join(letters)}"];')
    out.append("}")
    return "\n".join(out) + "\n"
