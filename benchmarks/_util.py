"""Shared helpers for the benchmark harness.

Every ``bench_*.py`` module regenerates one table or figure of the
reconstructed evaluation (see DESIGN.md §4).  Each module works two ways:

* ``pytest benchmarks/ --benchmark-only`` — timed via pytest-benchmark;
  the paper-style rows are printed (visible with ``-s``).
* ``python benchmarks/bench_<x>.py`` — prints the full table directly.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

from repro.core import Engine, EngineConfig
from repro.programs import build_kernel

ALL_TARGETS = ["rv32", "mips32", "armlite", "vlx", "pred32"]

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src", "repro")


def source_lines(path: str) -> int:
    """Non-blank, non-comment line count of one file."""
    count = 0
    with open(path) as handle:
        for line in handle:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                count += 1
    return count


def python_loc(*subpackages: str) -> int:
    """Summed source lines of the given repro subpackages."""
    total = 0
    for subpackage in subpackages:
        root = os.path.join(_SRC, subpackage)
        for dirpath, _dirnames, filenames in os.walk(root):
            for filename in filenames:
                if filename.endswith(".py"):
                    total += source_lines(os.path.join(dirpath, filename))
    return total


def adl_spec_loc(name: str) -> int:
    from repro.adl import builtin_spec_path
    return source_lines(builtin_spec_path(name))


def explore_kernel(target: str, kernel: str, config: Optional[EngineConfig]
                   = None, strategy: str = "dfs", **params):
    """Build + explore one kernel; returns (engine, result)."""
    model, image = build_kernel(kernel, target, **params)
    engine = Engine(model, config=config, strategy=strategy)
    engine.load_image(image)
    result = engine.explore()
    return engine, result


def print_table(title: str, headers: List[str], rows: List[List]) -> None:
    print("\n== %s ==" % title)
    widths = [max(len(str(headers[i])),
                  max((len(str(row[i])) for row in rows), default=0))
              for i in range(len(headers))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


# -- telemetry sidecars --------------------------------------------------------
#
# When run as scripts, the table/figure benchmarks dump a machine-readable
# ``<bench>.telemetry.json`` next to the module: per-run phase breakdowns
# (decode / eval / solver / memory / strategy) plus counters, so a future
# perf PR can attribute a speedup to a specific phase instead of guessing.

def telemetry_sidecar_path(bench_file: str) -> str:
    """``benchmarks/bench_x.py`` -> ``benchmarks/bench_x.telemetry.json``."""
    root, _ext = os.path.splitext(os.path.abspath(bench_file))
    return root + ".telemetry.json"


def write_telemetry_sidecar(bench_file: str, runs: List[Dict],
                            **extra) -> str:
    """Write the sidecar for ``bench_file``; returns the sidecar path.

    ``runs`` is a list of records, typically
    ``{"label": ..., "telemetry": result.telemetry}`` or
    ``{"label": ..., "phases": {...}}``.  Keyword extras land at the top
    level of the payload (e.g. ``reproduction_rate=...``).
    """
    path = telemetry_sidecar_path(bench_file)
    payload = {
        "benchmark": os.path.basename(bench_file),
        "generated_unix": round(time.time(), 3),
        "runs": runs,
    }
    payload.update(extra)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def merge_phase_snapshots(into: Dict[str, Dict[str, float]],
                          phases: Dict[str, Dict[str, float]]) -> None:
    """Accumulate one ``PhaseProfiler.snapshot()`` into ``into`` in place."""
    for name, row in phases.items():
        slot = into.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        slot["calls"] += row["calls"]
        slot["total_s"] = round(slot["total_s"] + row["total_s"], 6)
        slot["self_s"] = round(slot["self_s"] + row["self_s"], 6)
