"""Run comparison: diff two recorded telemetry runs, flag regressions.

``repro diffstats A.telemetry.json B.telemetry.json`` makes the
benchmark sidecars actionable: A is the *baseline*, B the *candidate*,
and any throughput/latency metric that moved in the bad direction by
more than ``threshold`` (default 20%) is flagged as a regression.

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
never as a regression percentage).

Works on sidecars of every schema version: anything a file does not
carry is simply not compared.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..smt.solver import cache_hit_ratio
from .events import HEALTH
from .sinks import RunFile

__all__ = ["MetricValue", "DiffRow", "RunComparison", "extract_metrics",
           "compare_runs", "DEFAULT_THRESHOLD"]

DEFAULT_THRESHOLD = 0.20

HIGHER = "higher"      # bigger is better (steps/sec, hit ratio)
LOWER = "lower"        # smaller is better (wall time, solve time)
INFO = "info"          # differences matter, but are not a perf axis


class MetricValue:
    """One comparable number plus its goodness direction."""

    __slots__ = ("name", "value", "direction")

    def __init__(self, name: str, value: float, direction: str):
        self.name = name
        self.value = value
        self.direction = direction

    def __repr__(self):
        return "<MetricValue %s=%s (%s)>" % (self.name, self.value,
                                             self.direction)


class DiffRow:
    """One compared metric across the two runs."""

    __slots__ = ("name", "a", "b", "direction", "delta_ratio", "flag")

    def __init__(self, name: str, a: float, b: float, direction: str,
                 delta_ratio: Optional[float], flag: str):
        self.name = name
        self.a = a
        self.b = b
        self.direction = direction
        # Relative change of B against A, signed toward "worse":
        # positive = B regressed, negative = B improved, None = no
        # baseline to compare against (A == 0) or info-only.
        self.delta_ratio = delta_ratio
        self.flag = flag        # "ok" | "regression" | "improvement"
        #                       | "changed" | "new" | "gone"

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "a": self.a, "b": self.b,
                "direction": self.direction,
                "delta_ratio": self.delta_ratio, "flag": self.flag}


def _summary(run: RunFile) -> Dict[str, object]:
    return run.run_summary() or {}


def extract_metrics(run: RunFile) -> Dict[str, MetricValue]:
    """Pull every comparable metric a run file carries."""
    metrics: Dict[str, MetricValue] = {}

    def put(name: str, value, direction: str) -> None:
        try:
            metrics[name] = MetricValue(name, float(value), direction)
        except (TypeError, ValueError):
            pass

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
    summary = _summary(run)
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
    if isinstance(solver.get("checks"), (int, float)):
        put("solver.checks", solver["checks"], LOWER)
    if isinstance(solver.get("solve_time"), (int, float)):
        put("solver.solve_time_s", solver["solve_time"], LOWER)
    if solver.get("checks"):
        try:
            put("solver.cache_hit_ratio", cache_hit_ratio(solver), HIGHER)
        except TypeError:
            pass        # a malformed count: no ratio, never a traceback
    phases = telemetry.get("phases") or {}
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
    return metrics


class RunComparison:
    """The diff of two runs' metric sets."""

    def __init__(self, path_a: str, path_b: str, rows: List[DiffRow],
                 threshold: float):
        self.path_a = path_a
        self.path_b = path_b
        self.rows = rows
        self.threshold = threshold

    @property
    def regressions(self) -> List[DiffRow]:
        return [row for row in self.rows if row.flag == "regression"]

    @property
    def improvements(self) -> List[DiffRow]:
        return [row for row in self.rows if row.flag == "improvement"]

    def to_dict(self) -> Dict[str, object]:
        """The exact payload the exit-code logic sees — ``repro
        diffstats --json`` and CI consume this one format."""
        return {
            "baseline": self.path_a,
            "candidate": self.path_b,
            "threshold": self.threshold,
            "rows": [row.to_dict() for row in self.rows],
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
        }

    def report(self) -> str:
        """Human-readable comparison table."""
        lines = ["run comparison (threshold %.0f%%)"
                 % (100 * self.threshold),
                 "  A: %s" % self.path_a,
                 "  B: %s" % self.path_b,
                 "",
                 "  %-32s %14s %14s %9s  %s"
                 % ("metric", "A", "B", "delta", "flag"),
                 "  " + "-" * 78]
        for row in self.rows:
            if row.delta_ratio is None:
                delta = "-"
            else:
                # Render as raw relative change of B vs A (signed by
                # value, not by badness) for readability.
                raw = (row.b - row.a) / row.a if row.a else 0.0
                delta = "%+.1f%%" % (100 * raw)
            flag = "" if row.flag == "ok" else row.flag.upper()
            lines.append("  %-32s %14.6g %14.6g %9s  %s"
                         % (row.name, row.a, row.b, delta, flag))
        lines.append("")
        lines.append("  regressions: %d   improvements: %d   compared: %d"
                     % (len(self.regressions), len(self.improvements),
                        len(self.rows)))
        return "\n".join(lines)


def compare_runs(run_a: RunFile, run_b: RunFile,
                 threshold: float = DEFAULT_THRESHOLD) -> RunComparison:
    """Diff the metric sets of two loaded runs (A = baseline)."""
    metrics_a = extract_metrics(run_a)
    metrics_b = extract_metrics(run_b)
    rows: List[DiffRow] = []
    for name in sorted(set(metrics_a) | set(metrics_b)):
        in_a, in_b = metrics_a.get(name), metrics_b.get(name)
        if in_a is None:
            rows.append(DiffRow(name, 0.0, in_b.value, in_b.direction,
                                None, "new"))
            continue
        if in_b is None:
            rows.append(DiffRow(name, in_a.value, 0.0, in_a.direction,
                                None, "gone"))
            continue
        direction = in_a.direction
        a, b = in_a.value, in_b.value
        if direction == INFO:
            flag = "ok" if a == b else "changed"
            rows.append(DiffRow(name, a, b, direction, None, flag))
            continue
        if a == 0:
            rows.append(DiffRow(name, a, b, direction, None,
                                "ok" if b == 0 else "changed"))
            continue
        raw = (b - a) / a
        # Signed toward "worse": positive means B is worse than A.
        worse = -raw if direction == HIGHER else raw
        if worse >= threshold:
            flag = "regression"
        elif worse <= -threshold:
            flag = "improvement"
        else:
            flag = "ok"
        rows.append(DiffRow(name, a, b, direction, worse, flag))
    return RunComparison(run_a.path, run_b.path, rows, threshold)
