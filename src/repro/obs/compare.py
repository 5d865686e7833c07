"""Metric extraction for ``repro diffstats``.

``repro diffstats A.jsonl B.jsonl`` compares two recorded telemetry
runs: A is the *baseline*, B the *candidate*.  This module only reads
the numbers; it judges nothing.  :func:`extract_metrics` turns one
sidecar into a one-sample report in the shape
:func:`repro.bench.compare_reports` reads, and the CLI hands both
reports to that comparator, so diffstats and ``repro bench compare``
share one rule, one table and one JSON format.

Metric sources, in order of preference:

* the ``health`` event series (PR 4's live sampler): mean and final
  steps/sec, peak frontier, solver share;
* the ``run_summary`` meta record: wall time, instructions (and the
  derived instructions/sec), paths, defects, solver stats, phase
  totals;
* event counts per kind (informational).

Every metric carries a *direction*: ``higher`` is better (throughput,
cache hit ratios), ``lower`` is better (wall time, solver time), or
``info`` (counts that signal behavior change rather than a perf
regression — a defect-count difference is surfaced as ``changed``,
never as a regression).

Works on sidecars of every schema version: anything a file does not
carry is simply not compared.
"""

from __future__ import annotations

from typing import Dict, List

from ..smt.solver import cache_hit_ratio
from .events import HEALTH
from .sinks import RunFile

__all__ = ["extract_metrics"]

HIGHER = "higher"      # bigger is better (steps/sec, hit ratio)
LOWER = "lower"        # smaller is better (wall time, solve time)
INFO = "info"          # differences matter, but are not a perf axis


def extract_metrics(run: RunFile) -> Dict[str, object]:
    """Every comparable metric a run file carries, as a report with one
    ``{"id", "direction", "samples": [{"value"}]}`` result per metric."""
    results: List[Dict[str, object]] = []

    def put(name: str, value, direction: str) -> None:
        try:
            sample = {"value": float(value)}
        except (TypeError, ValueError):
            return
        results.append({"id": name, "direction": direction,
                        "samples": [sample]})

    # -- health series (live sampler) -----------------------------------
    health_events = run.events_of(HEALTH)
    samples = [event.data.get("sample") for event in health_events]
    samples = [s for s in samples if isinstance(s, dict)]
    rates = [s.get("steps_per_sec") for s in samples
             if isinstance(s.get("steps_per_sec"), (int, float))]
    if rates:
        put("health.steps_per_sec.mean", sum(rates) / len(rates), HIGHER)
        put("health.steps_per_sec.final", rates[-1], HIGHER)
    frontiers = [s.get("frontier") for s in samples
                 if isinstance(s.get("frontier"), (int, float))]
    if frontiers:
        put("health.frontier.peak", max(frontiers), LOWER)
    shares = [(s.get("solver") or {}).get("share") for s in samples]
    shares = [v for v in shares if isinstance(v, (int, float))]
    if shares:
        put("health.solver_share.mean", sum(shares) / len(shares), LOWER)

    # -- run summary ------------------------------------------------------
    summary = run.run_summary() or {}
    wall = summary.get("wall_time")
    instructions = summary.get("instructions")
    if isinstance(wall, (int, float)) and wall > 0:
        put("run.wall_time_s", wall, LOWER)
        if isinstance(instructions, (int, float)):
            put("run.instructions_per_sec", instructions / wall, HIGHER)
    if isinstance(instructions, (int, float)):
        put("run.instructions", instructions, INFO)
    for key in ("paths", "defects"):
        if isinstance(summary.get(key), (int, float)):
            put("run.%s" % key, summary[key], INFO)
    telemetry = summary.get("telemetry") or {}
    solver = telemetry.get("solver") or {}
    phases = telemetry.get("phases") or {}
    if isinstance(solver.get("checks"), (int, float)):
        put("solver.checks", solver["checks"], LOWER)
    # The solver stats' solve time and the ``solver`` phase read one
    # clock: a profiled sidecar reports it once, as the phase.
    if (isinstance(solver.get("solve_time"), (int, float))
            and "solver" not in phases):
        put("solver.solve_time_s", solver["solve_time"], LOWER)
    if solver.get("checks"):
        try:
            put("solver.cache_hit_ratio", cache_hit_ratio(solver), HIGHER)
        except TypeError:
            pass        # a malformed count: no ratio, never a traceback
    for name, stats in phases.items():
        total = (stats or {}).get("total_s")
        if isinstance(total, (int, float)):
            put("phase.%s.total_s" % name, total, LOWER)

    # -- event counts (informational) ------------------------------------
    by_kind: Dict[str, int] = {}
    for event in run.events:
        by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
    for kind, count in by_kind.items():
        put("events.%s" % kind, count, INFO)
    return {"results": results}
