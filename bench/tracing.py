"""Spans and counters recorded around the package's public functions.

Tracing is installed from outside: each traced function is replaced, in every
``dfatoms`` module that refers to it, by a wrapper that records a span and
updates counters.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    op: str
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """The spans of one run, and counters that count only while ``counting``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = ""
        self.counting = True
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span.id

    def close(self, span_id: int) -> float:
        span = self.spans[span_id]
        span.end = time.perf_counter()
        self._stack.pop()
        return span.end - span.start

    def count(self, name: str, amount: int = 1) -> None:
        if self.counting:
            self.counts[name] += amount

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - child_time[span.id]
        return out


def _wrap(tracer: Tracer, name: str, fn, on_result, errors):
    def traced(*args, **kwargs):
        span_id = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as error:
            counter = errors.get(type(error).__name__)
            if counter:
                tracer.count(counter)
            raise
        finally:
            tracer.close(span_id)
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    return traced


def _on_minimize(tracer, args, result):
    tracer.count("dfa.minimize.states_in", args[0].state_count)
    tracer.count("dfa.minimize.states_out", result.state_count)


def _on_is_atom(tracer, args, result):
    tracer.count("atoms.is_atom.calls")
    tracer.count("atoms.is_atom.hits", int(result))


def _on_idealize(tracer, args, result):
    tracer.count("ideals.closure_states", result.state_count)


# (module, function, result hook, {exception class name: counter}).
TRACED = (
    ("dfaformat", "parse_dfa", None, {}),
    ("dfaformat", "render_dfa", None, {}),
    ("dfa", "minimize", _on_minimize, {}),
    ("dfa", "atom_bases_by_reversal", lambda t, a, r: t.count("dfa.columns", len(r)), {}),
    ("dfa", "transition_semigroup", lambda t, a, r: t.count("dfa.semigroup_elements", len(r)), {}),
    ("atoms", "enumerate_atoms", None, {}),
    ("atoms", "atom_complexity", None, {"NotAnAtomError": "atoms.not_an_atom"}),
    ("atoms", "is_atom", _on_is_atom, {}),
    ("ideals", "idealize", _on_idealize, {}),
    ("ideals", "is_left_ideal", None, {"EmptyLanguageError": "ideals.empty_language"}),
    ("ideals", "is_right_ideal", None, {"EmptyLanguageError": "ideals.empty_language"}),
    ("harness", "cross_check", None, {}),
    ("harness", "reversal_quotient_complexity", None, {}),
)


def install(tracer: Tracer, record_atom_call) -> None:
    """Wrap every function of ``TRACED`` wherever a dfatoms module binds it.

    ``record_atom_call(dfa, basis, complexity)`` sees each successful
    ``atom_complexity`` call while the tracer is counting.
    """
    def on_atom_complexity(tracer, args, result):
        if tracer.counting:
            tracer.count("atoms.atom_complexity.calls")
            record_atom_call(args[0], frozenset(args[1]), result)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dfatoms"]
    for module_name, func_name, on_result, errors in TRACED:
        original = getattr(sys.modules[f"dfatoms.{module_name}"], func_name)
        if func_name == "atom_complexity":
            on_result = on_atom_complexity
        wrapped = _wrap(tracer, f"{module_name}.{func_name}", original, on_result, errors)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def span_cost(samples: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function."""
    tracer = Tracer()
    traced = _wrap(tracer, "noop", lambda: None, None, {})
    plain = lambda: None  # noqa: E731
    start = time.perf_counter()
    for _ in range(samples):
        plain()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        traced()
    return max(0.0, (time.perf_counter() - start - bare) / samples)
