#!/usr/bin/env python3
"""End-to-end exploration benchmark for the ADL-generated engines.

Run from the repository root::

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload kernels --seed 7
    python3 benchmarks/e2e/run.py --workload long-path --trace

Each workload runs in a fresh child process, one after another, so at
most one process does work at a time; ``measure.py`` says what a
workload process does.  Every line names its workload, metric and unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with several
workloads the metric names are prefixed with ``<workload>.``.  The exit
code is 0 only when every check passed, and 2 without a result when the
checkout has no engine sources.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

#: Seconds one workload run measures; ``run_seconds`` in BENCHMARK.json
#: is the same number, and two commits are compared at that length.
MEASURED_S = 20

#: A child still running after this long is stopped (a run must end
#: within 180 s).
CHILD_TIMEOUT_S = 170


def use_checkout_sources() -> bool:
    """Put this checkout's ``src`` first on the import path.

    False when the checkout has no sources: the benchmark must then fail
    rather than measure some other installed copy of the engine.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro
    return Path(repro.__file__).resolve().is_relative_to(SRC)


def _parser(workload_names) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="End-to-end exploration benchmark (see README.md).")
    parser.add_argument("--workload", action="append",
                        choices=workload_names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed the programs are generated from")
    # The benchmark harness passes --seconds and --trace 0|1 on every run,
    # so both stay; comparisons always use the default run length.
    parser.add_argument("--seconds", type=float, default=MEASURED_S,
                        help="measured time per workload (default %d, "
                        "BENCHMARK.json's run_seconds)" % MEASURED_S)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="print per-layer metrics from a traced pass "
                        "instead of end-to-end metrics (--trace is "
                        "--trace 1)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _run_child(name: str, args) -> tuple:
    """Run one workload in a child process; (exit code, JSON or None)."""
    command = [sys.executable, str(HERE / "run.py"), "--child",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds)]
    if args.trace:
        command.append("--trace")
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: workload %s ran past %d s" % (name, CHILD_TIMEOUT_S),
              file=sys.stderr)
        return 2, None
    lines = child.stdout.splitlines()
    try:
        payload = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(child.stdout)
        print("error: workload %s printed no result (exit %d)"
              % (name, child.returncode), file=sys.stderr)
        return child.returncode or 2, None
    print("\n".join(lines[:-1]), flush=True)
    return child.returncode, payload


def main(argv=None) -> int:
    if not use_checkout_sources():
        print("error: no engine sources at %s" % SRC, file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    args = _parser(sorted(WORKLOADS)).parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if args.child:
        from measure import run_workload
        return run_workload(names[0], args.seed, args.seconds,
                            bool(args.trace))
    # Stopped from outside, exit through subprocess.run, which then
    # kills the running child and waits for it.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    results = []
    for name in names:
        code, payload = _run_child(name, args)
        if payload is None:
            return code
        results.append((name, code, payload))
    if len(results) == 1:
        _name, code, payload = results[0]
        print(json.dumps(payload))
        return code
    print(json.dumps({
        "correct": all(payload["correct"] for _n, _c, payload in results),
        "attempted": sum(payload["attempted"] for _n, _c, payload in results),
        "failed": sum(payload["failed"] for _n, _c, payload in results),
        "metrics": {"%s.%s" % (name, metric): value
                    for name, _c, payload in results
                    for metric, value in payload["metrics"].items()},
    }))
    return max(code for _n, code, _p in results)


if __name__ == "__main__":
    sys.exit(main())
