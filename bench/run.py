#!/usr/bin/env python3
"""Benchmark of the dfatoms CLI: one client, one operation at a time.

    python3 bench/run.py --workload enum-witness --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Every operation is one CLI process, from
spawn to exit, built from ``src/`` and checked against the benchmark's own
references.  A run measures whole rounds of operations until ``--seconds``
have passed.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
replays each operation in-process with spans around the package's public
functions and reports per-layer metrics, writing every span to
``.bench_out/``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
# Fresh-process probes of set-up time: a few before the measured rounds, then
# one after every PROBE_EVERY operations, so that they sample the whole run.
SETUP_PROBES = 3
PROBE_EVERY = 5
# Host speed.  Other tenants of the host slow it by up to 1.5x, for seconds
# to minutes at a time, and every wall time moves with them.  So the
# benchmark times a fixed pure-Python loop of LOOP_ITERATIONS in its own
# process before the first timed process and after each one.  The mean of
# the two loop times around a process, over REFERENCE_LOOP_S (about the
# loop's time on an idle 2.1 GHz Xeon), is the host's slowdown, and the wall
# time is divided by the slowdown to the power SLOWDOWN_EXPONENT: times are
# reported in seconds of a host on which the loop takes REFERENCE_LOOP_S.
# The exponent is fitted: across 45 runs of all workloads, the package's
# compute-bound operations slowed as about the 1.25th power of the loop's
# slowdown, and process start-up as about the 1st.
LOOP_ITERATIONS = 100_000
REFERENCE_LOOP_S = 0.007
SLOWDOWN_EXPONENT = 1.25
# The body of the installed ``dfatoms`` console script.
ENTRY = "import sys; from dfatoms.cli import main; sys.exit(main())"
PINS = HERE / "pins.json"
# Spans reported as seconds per operation, and counters reported per round.
BUSY_LAYERS = (
    "dfaformat.parse_dfa", "dfaformat.render_dfa", "dfa.minimize",
    "dfa.atom_bases_by_reversal", "dfa.transition_semigroup", "atoms.enumerate_atoms",
    "atoms.atom_complexity", "atoms.is_atom", "ideals.idealize", "ideals.is_left_ideal",
    "ideals.is_right_ideal", "harness.cross_check", "harness.reversal_quotient_complexity",
)
COUNTERS = (
    "dfa.minimize.states_in", "dfa.minimize.states_out", "dfa.columns",
    "dfa.semigroup_elements", "atoms.atom_complexity.calls", "atoms.is_atom.calls",
    "atoms.not_an_atom", "ideals.closure_states", "ideals.empty_language",
)


def time_loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class Cli:
    """Runs the CLI of the checkout at ``root`` as child processes.

    With ``scaled``, wall times are scaled to the reference host speed, and
    ``slowdowns`` records the host's slowdown around each process.
    """

    def __init__(self, root: Path, work: Path, scaled: bool = False):
        self.work = work
        self.scaled = scaled
        self.slowdowns: list[float] = []
        self._loop_s = None
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self.env = env

    def run(self, argv: list[str]) -> tuple[float, int, str, str, int]:
        """(wall seconds, exit code, stdout, stderr, peak RSS in KiB)."""
        if self.scaled and self._loop_s is None:
            self._loop_s = time_loop()
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if self.scaled:
            after = time_loop()
            slowdown = (self._loop_s + after) / (2 * REFERENCE_LOOP_S)
            self._loop_s = after
            self.slowdowns.append(slowdown)
            wall /= slowdown ** SLOWDOWN_EXPONENT
        return (wall, proc.returncode, out_path.read_text(encoding="utf-8"),
                err_path.read_text(encoding="utf-8"), usage.ru_maxrss)

    def witness_file(self, kind: str, n: int) -> Path:
        path = self.work / f"witness-{kind}-{n}.dfa"
        if not path.exists():
            _, rc, _, err, _ = self.run(["witness", "--class", kind, "--n", str(n),
                                         "--out", str(path)])
            if rc != 0:
                raise RuntimeError(f"dfatoms witness failed: {err.strip()}")
        return path


def pin_key(op: workloads.Op) -> str:
    """Digest naming an operation by its flags and the contents of its inputs."""
    digest = hashlib.sha256()
    for arg in op.argv:
        path = Path(arg)
        if path in op.inputs:
            arg = hashlib.sha256(path.read_bytes()).hexdigest()
        digest.update(arg.encode() + b"\0")
    return digest.hexdigest()


def result_digest(rc: int, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


def run_round(cli: Cli, ops: list[workloads.Op], results: list, after_op=None,
              probes: list | None = None) -> None:
    """One operation after another; with ``probes``, a set-up probe every PROBE_EVERY."""
    for i, op in enumerate(ops, 1):
        key = pin_key(op)
        wall, rc, out, err, rss = cli.run(op.argv)
        if op.stdout_to is not None:
            op.stdout_to.write_text(out, encoding="utf-8")
        results.append((op, key, wall, rc, out, err, rss))
        if after_op is not None:
            after_op(op, wall, rc, out, err)
        if probes is not None and i % PROBE_EVERY == 0:
            probes.extend(setup_probes(cli, 1))


def check_results(results: list, pins: dict[str, str]) -> list[str]:
    """Names of the operations whose result fails its check or its pin."""
    failed = []
    for op, key, _, rc, out, err, _ in results:
        pinned = pins.get(key)
        if not op.check(rc, out, err) or (pinned is not None and pinned != result_digest(rc, out)):
            failed.append(op.name)
    return failed


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probes(cli: Cli, count: int) -> list[float]:
    """Wall times of fresh CLI processes that only print their usage."""
    walls = []
    for _ in range(count):
        wall, rc, out, _, _ = cli.run(["--help"])
        if rc != 0 or "usage: dfatoms" not in out:
            raise RuntimeError("dfatoms --help failed")
        walls.append(wall)
    return walls


def run_rounds(cli: Cli, ops, seconds: float, results: list, after_op=None, after_round=None,
               probes: list | None = None):
    """Whole rounds, as many as bring the run closest to ``seconds``, at least one.

    Returns (rounds, elapsed seconds).
    """
    rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_round(cli, ops, results, after_op, probes)
        rounds += 1
        if after_round is not None:
            after_round()
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            return rounds, now - start


def measure(cli: Cli, ops, seconds: float, pins) -> tuple[dict, int, int]:
    cli.run(["--help"])  # compile and cache the package before timing
    setup = setup_probes(cli, SETUP_PROBES)
    results: list = []
    rounds, elapsed = run_rounds(cli, ops, seconds, results, probes=setup)
    failed = check_results(results, pins)
    walls = [r[2] for r in results]
    by_op: dict[str, list[float]] = {}
    for op, _, wall, *_ in results:
        by_op.setdefault(op.name, []).append(wall)
    # A round's operations over the sum of their median wall times: the rate of
    # the closed loop at each operation's typical speed, which a slow stretch of
    # the host moves only if it covers half of that operation's samples.
    round_s = sum(statistics.median(w) for w in by_op.values())
    attempted = len(results)
    print(f"{attempted} operations in {rounds} rounds over {elapsed:.3f} s; "
          f"p50 and p90 from {attempted} samples, {rounds} per operation; "
          f"setup_s from {len(setup)} probes; host slowdown median "
          f"{statistics.median(cli.slowdowns):.3f}, range {min(cli.slowdowns):.3f}-"
          f"{max(cli.slowdowns):.3f}; failed: {failed[:5]}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(ops) / round_s, "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_p90_s": (quantile(walls, 90), "s"),
        "peak_rss_mb": (max(r[6] for r in results) / 1024, "MB"),
        "ok_ratio": ((attempted - len(failed)) / attempted, "ratio"),
    }
    return metrics, attempted, len(failed)


def measure_traced(cli: Cli, ops, seconds: float, pins, trace_path: Path) -> tuple[dict, int, int]:
    import dfatoms.cli
    from dfatoms.atoms import build_atom_dfa
    from dfatoms.dfa import quotient_complexity

    tracer = tracing.Tracer()
    atom_calls: list = []
    tracing.install(tracer, lambda dfa, basis, c: atom_calls.append((dfa, basis, c)))
    overheads: list[float] = []
    mismatched: list[str] = []

    def replay(op, wall, rc, out, err):
        tracer.op = op.name
        stdout, stderr = io.StringIO(), io.StringIO()
        span = tracer.open("op")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = dfatoms.cli.main(op.argv)
        overheads.append(wall - tracer.close(span))
        if code != rc or stdout.getvalue() != out:
            mismatched.append(op.name)

    results: list = []
    start = time.perf_counter()
    rounds, elapsed = run_rounds(cli, ops, seconds, results, replay,
                                 lambda: setattr(tracer, "counting", False))
    op_spans = len(tracer.spans)
    cost = tracing.span_cost()

    # Attribution pass over the first round's atom_complexity calls: the
    # pair-state exploration and the quotient classification, timed apart.
    tracer.op = "attribution"
    pair_states = pair_states_max = complexity_sum = 0
    for dfa, basis, complexity in atom_calls:
        span = tracer.open("atoms.explore")
        atom_dfa = build_atom_dfa(dfa, basis)
        tracer.close(span)
        span = tracer.open("atoms.classify")
        classes = quotient_complexity(atom_dfa)
        tracer.close(span)
        if classes != complexity:
            mismatched.append(f"attribution of {sorted(basis)}")
        pair_states += atom_dfa.state_count
        pair_states_max = max(pair_states_max, atom_dfa.state_count)
        complexity_sum += complexity

    failed = check_results(results, pins) + mismatched
    attempted = len(results)
    layers = tracer.layers()
    counts = tracer.counts
    round_ops = len(ops)

    def busy(name: str, per: int = attempted) -> float:
        return layers.get(name, {}).get("busy_s", 0.0) / per

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    op_wall = sum(r[2] for r in results)
    values = {f"{name}.busy_s": (busy(name), "s") for name in BUSY_LAYERS}
    values.update({name: (counts[name], "count") for name in COUNTERS})
    values.update({
        "cli.overhead_s": (statistics.fmean(overheads), "s"),
        "atoms.explore.busy_s": (busy("atoms.explore", round_ops), "s"),
        "atoms.classify.busy_s": (busy("atoms.classify", round_ops), "s"),
        "atoms.pair_states": (pair_states, "count"),
        "atoms.pair_states_max": (pair_states_max, "count"),
        "atoms.complexity_sum": (complexity_sum, "count"),
        "atoms.distinct_ratio": (ratio(complexity_sum, pair_states), "ratio"),
        "atoms.is_atom.hit_ratio": (ratio(counts["atoms.is_atom.hits"], counts["atoms.is_atom.calls"]), "ratio"),
        "harness.cross_check.self_s": (layers.get("harness.cross_check", {}).get("self_s", 0.0) / attempted, "s"),
        "trace.overhead_share": (op_spans * cost / op_wall, "ratio"),
    })
    in_process = layers["op"]["busy_s"]
    trace = {
        "workload_ops": [op.name for op in ops],
        "rounds": rounds,
        "operations": attempted,
        "elapsed_s": elapsed,
        "untraced_op_wall_s": op_wall,
        "in_process_op_s": in_process,
        "span_cost_s": cost,
        "tracing_overhead_s": op_spans * cost,
        "tracing_overhead_share": op_spans * cost / op_wall,
        "counters_per_round": {k: v for k, v in values.items() if v[1] == "count"},
        "layers": {
            name: dict(entry, busy_share=entry["busy_s"] / in_process)
            for name, entry in sorted(layers.items())
        },
        "metrics": {k: v[0] for k, v in values.items()},
        "spans": [[s.id, s.parent, s.op, s.name, s.start - start, s.end - start]
                  for s in tracer.spans],
    }
    trace_path.write_text(json.dumps(trace) + "\n", encoding="utf-8")
    print(f"{attempted} operations in {rounds} rounds; {len(tracer.spans)} spans; "
          f"tracing overhead {trace['tracing_overhead_share']:.2e} of untraced op time; "
          f"trace written to {trace_path}; failed: {failed[:5]}", file=sys.stderr)
    return values, attempted, len(failed)


def build_ops(cli: Cli, workload: str, seed: int) -> list[workloads.Op]:
    rng = random.Random(f"{workload}:{seed}")
    ops = workloads.BUILDERS[workload](rng, cli.work, cli.witness_file)
    if len({op.name for op in ops}) != len(ops):
        raise RuntimeError(f"{workload}: operation names repeat")
    return ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dfatoms" / "cli.py").is_file():
        print("error: run from the root of a dfatoms checkout (src/dfatoms is missing)",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cli = Cli(root, work, scaled=not args.trace)
        ops = build_ops(cli, args.workload, args.seed)
        pins = json.loads(PINS.read_text(encoding="utf-8")).get(args.workload, {})
        if args.trace:
            sys.path.insert(0, str(root / "src"))
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed = measure_traced(cli, ops, args.seconds, pins, trace_path)
        else:
            metrics, attempted, failed = measure(cli, ops, args.seconds, pins)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
