#!/usr/bin/env python3
"""Pin the digests of every operation's result for the default seed.

    python3 bench/pin.py

Run from the root of a checkout whose outputs are trusted.  It runs one round
of each workload, refuses to pin a result that fails its reference check, and
rewrites ``bench/pins.json``.  The CLI's stdout is meant never to change, so
this is run once, when the benchmark gains or changes a workload.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_out" / f"pin-{os.getpid()}"
    work.mkdir(parents=True)
    pins = {}
    try:
        cli = run.Cli(root, work)
        for workload in sorted(workloads.BUILDERS):
            results: list = []
            run.run_round(cli, run.build_ops(cli, workload, run.DEFAULT_SEED), results)
            failed = run.check_results(results, {})
            if failed:
                print(f"error: {workload}: {failed} fail their checks", file=sys.stderr)
                return 1
            pins[workload] = {key: run.result_digest(rc, out)
                              for _, key, _, rc, out, _, _ in results}
            print(f"{workload}: {len(results)} results pinned", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
