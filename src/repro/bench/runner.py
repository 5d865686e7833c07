"""Benchmark runner + machine-readable result schema + A/B comparison.

One ``repro bench run`` produces a **report**::

    {
      "schema": "repro-bench/1",
      "generated_unix": ...,
      "suite": "quick",
      "env": { ...environment_snapshot()... },
      "env_digest": "sha256:...",
      "wall_s": 12.3,
      "results": [
        {
          "id": "solver_cache.repeated_speedup",
          "title": "...", "suite": "quick", "isas": ["rv32"],
          "workload": "...", "unit": "x", "direction": "higher",
          "reps": 3, "warmup": 1,
          "samples": [{"value": 1.91, "wall_s": ...,
                       "solver_time_s": ..., "steps_per_sec": ...}, ...],
          "median": 1.89, "mad": 0.02, "wall_s": 4.1,
          "expectations": [{"kind": "min", "threshold": 1.2,
                            "observed": 1.89, "passed": true}]
        }, ...
      ]
    }

The report is written as ``BENCH_<n>.json`` at the repo root (the
machine-readable perf snapshot this PR sequence tracks) and appended,
entry per benchmark, to the perf-history ledger
(:mod:`repro.bench.history`).

:func:`compare_reports` is the statistical regression gate: for every
benchmark present in both reports it runs :func:`repro.bench.stats.classify`
over the raw sample sets (median + MAD noise bands, direction-aware)
and re-evaluates the candidate's declarative expectations.  ``repro
bench compare`` exits 3 when anything regresses, and so does ``repro
diffstats``, which feeds it two telemetry sidecars as one-sample
reports (:func:`repro.obs.compare.extract_metrics`).
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..runstore.provenance import environment_snapshot
from . import stats
from .history import env_digest
from .registry import Benchmark, BenchError, Sample, benchmarks_dir

__all__ = ["REPORT_SCHEMA", "REPORT_BASENAME", "run_benchmarks",
           "default_report_path", "write_report", "load_report",
           "evaluate_expectations", "compare_reports", "ReportComparison",
           "BenchDiffRow", "render_report", "render_comparison"]

REPORT_SCHEMA = "repro-bench/1"

#: The checked-in perf snapshot of this PR (ISSUE 9's observatory).
REPORT_BASENAME = "BENCH_9.json"


def default_report_path(bench_dir: Optional[str] = None) -> str:
    """``BENCH_9.json`` next to the benchmarks directory (the repo
    root); falls back to the current directory."""
    try:
        directory = benchmarks_dir(bench_dir)
        return os.path.join(os.path.dirname(directory), REPORT_BASENAME)
    except BenchError:
        return os.path.join(os.getcwd(), REPORT_BASENAME)


def evaluate_expectations(bench: Benchmark, observed: float
                          ) -> List[Dict[str, object]]:
    """Declarative absolute expectations on the median (the migrated
    CI speedup guards).  Empty when the benchmark declares none."""
    rows: List[Dict[str, object]] = []
    if bench.expect_min is not None:
        rows.append({"kind": "min", "threshold": bench.expect_min,
                     "observed": observed,
                     "passed": observed >= bench.expect_min})
    if bench.expect_max is not None:
        rows.append({"kind": "max", "threshold": bench.expect_max,
                     "observed": observed,
                     "passed": observed <= bench.expect_max})
    return rows


def run_benchmarks(benches: Sequence[Benchmark], suite: str = "full",
                   reps: Optional[int] = None,
                   warmup: Optional[int] = None,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> Dict[str, object]:
    """Run ``benches`` and build the report dict.

    ``reps`` / ``warmup`` override every benchmark's declared defaults
    (CI uses this to trade accuracy for time).  Per benchmark: warmup
    repetitions are executed and discarded, then ``reps`` timed
    repetitions each produce one :class:`Sample`; the headline number
    is the sample **median**, with the MAD recorded beside it.
    """
    say = progress or (lambda _line: None)
    started = time.perf_counter()
    results: List[Dict[str, object]] = []
    for bench in benches:
        bench_reps = reps if reps is not None else bench.reps
        bench_warm = warmup if warmup is not None else bench.warmup
        say("%s (%d warmup, %d reps)..."
            % (bench.id, bench_warm, bench_reps))
        bench_start = time.perf_counter()
        for _ in range(bench_warm):
            bench.fn()
        samples: List[Sample] = []
        for _ in range(max(1, bench_reps)):
            samples.append(Sample.of(bench.fn()))
        values = [sample.value for sample in samples]
        med = stats.median(values)
        row = bench.metadata()
        row.update({
            "reps": len(samples),
            "warmup": bench_warm,
            "samples": [sample.to_dict() for sample in samples],
            "median": round(med, 9),
            "mad": round(stats.mad(values), 9),
            "wall_s": round(time.perf_counter() - bench_start, 4),
            "expectations": evaluate_expectations(bench, med),
        })
        results.append(row)
        say("  %s = %.6g %s" % (bench.id, med, bench.unit))
    env = environment_snapshot()
    return {
        "schema": REPORT_SCHEMA,
        "generated_unix": round(time.time(), 3),
        "suite": suite,
        "env": env,
        "env_digest": env_digest(env),
        "wall_s": round(time.perf_counter() - started, 4),
        "results": results,
    }


def write_report(report: Dict[str, object], path: str) -> str:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path: str) -> Dict[str, object]:
    """Load + validate a report file; raises :class:`BenchError` with a
    one-line story on anything unusable."""
    try:
        with open(path) as handle:
            report = json.load(handle)
    except OSError as exc:
        raise BenchError("cannot read %s: %s"
                         % (path, exc.strerror or exc))
    except ValueError as exc:
        raise BenchError("%s is not valid JSON: %s" % (path, exc))
    if not isinstance(report, dict):
        raise BenchError("%s is not a bench report (not an object)"
                         % path)
    if report.get("schema") != REPORT_SCHEMA:
        raise BenchError("%s has schema %r; this build reads %r"
                         % (path, report.get("schema"), REPORT_SCHEMA))
    if not isinstance(report.get("results"), list):
        raise BenchError("%s carries no results list" % path)
    return report


# -- comparison ---------------------------------------------------------------

class BenchDiffRow:
    """One benchmark across baseline (A) and candidate (B)."""

    __slots__ = ("bench_id", "unit", "verdict", "expectations", "flag")

    def __init__(self, bench_id: str, unit: str, verdict: stats.Verdict,
                 expectations: List[Dict[str, object]]):
        self.bench_id = bench_id
        self.unit = unit
        self.verdict = verdict
        self.expectations = expectations
        failed = any(not e.get("passed") for e in expectations)
        self.flag = stats.REGRESSION if failed else verdict.flag

    def to_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {"id": self.bench_id, "unit": self.unit,
                                  "expectations": self.expectations}
        row.update(self.verdict.to_dict())
        row["flag"] = self.flag
        return row


class ReportComparison:
    """The statistical diff of two bench reports."""

    def __init__(self, path_a: str, path_b: str,
                 rows: List[BenchDiffRow], k: float, min_rel: float,
                 env_match: bool):
        self.path_a = path_a
        self.path_b = path_b
        self.rows = rows
        self.k = k
        self.min_rel = min_rel
        self.env_match = env_match

    @property
    def regressions(self) -> List[BenchDiffRow]:
        return [row for row in self.rows
                if row.flag == stats.REGRESSION]

    @property
    def improvements(self) -> List[BenchDiffRow]:
        return [row for row in self.rows
                if row.flag == stats.IMPROVEMENT]

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": REPORT_SCHEMA,
            "baseline": self.path_a,
            "candidate": self.path_b,
            "k": self.k,
            "min_rel": self.min_rel,
            "env_match": self.env_match,
            "rows": [row.to_dict() for row in self.rows],
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
        }


def _values(result: Optional[Dict[str, object]]) -> List[float]:
    return [s.get("value") for s in (result or {}).get("samples") or []
            if isinstance(s.get("value"), (int, float))]


def compare_reports(report_a: Dict[str, object],
                    report_b: Dict[str, object],
                    path_a: str = "A", path_b: str = "B",
                    k: float = stats.DEFAULT_K,
                    min_rel: float = stats.DEFAULT_MIN_REL
                    ) -> ReportComparison:
    """Statistical A (baseline) vs B (candidate) gate.

    Per benchmark measured in both reports: classify B's samples
    against A's noise band.  A benchmark measured by one side only is
    ``new`` (B only) or ``gone`` (A only), with that side's median and
    no band; a B-only benchmark still gates on its expectations.
    Differing env digests don't block the comparison — they're
    surfaced so a cross-machine diff reads as advisory.
    """
    results_a = {r.get("id"): r for r in report_a.get("results") or []}
    results_b = {r.get("id"): r for r in report_b.get("results") or []}
    rows: List[BenchDiffRow] = []
    for bench_id in sorted(set(results_a) | set(results_b)):
        in_a, in_b = results_a.get(bench_id), results_b.get(bench_id)
        current = in_b if in_b is not None else in_a
        direction = str(current.get("direction", stats.LOWER))
        samples_a, samples_b = _values(in_a), _values(in_b)
        if samples_a and samples_b:
            verdict = stats.classify(samples_a, samples_b,
                                     direction=direction, k=k,
                                     min_rel=min_rel)
        else:
            verdict = stats.Verdict(
                stats.NEW if samples_b else stats.GONE,
                stats.median(samples_a) if samples_a else None,
                stats.median(samples_b) if samples_b else None,
                direction, None, None, None)
        rows.append(BenchDiffRow(
            str(bench_id), str(current.get("unit", "")), verdict,
            list((in_b or {}).get("expectations") or [])))
    env_match = (report_a.get("env_digest") == report_b.get("env_digest"))
    return ReportComparison(path_a, path_b, rows, k, min_rel, env_match)


# -- rendering ----------------------------------------------------------------

def _fmt(value: Optional[float]) -> str:
    return "%.6g" % value if isinstance(value, (int, float)) else "-"


def render_report(report: Dict[str, object]) -> str:
    """Human-readable run table (stdout of ``repro bench run``)."""
    lines = ["bench report (%s suite, %d benchmark%s, %.1fs)"
             % (report.get("suite", "?"),
                len(report.get("results") or []),
                "s" if len(report.get("results") or []) != 1 else "",
                report.get("wall_s") or 0.0),
             "",
             "  %-34s %12s %10s %6s %-9s %s"
             % ("benchmark", "median", "mad", "reps", "unit",
                "expectations"),
             "  " + "-" * 88]
    for result in report.get("results") or []:
        checks = []
        for exp in result.get("expectations") or []:
            checks.append("%s %s %.4g"
                          % ("PASS" if exp.get("passed") else "FAIL",
                             ">=" if exp.get("kind") == "min" else "<=",
                             exp.get("threshold", 0.0)))
        lines.append("  %-34s %12s %10s %6s %-9s %s"
                     % (result.get("id"), _fmt(result.get("median")),
                        _fmt(result.get("mad")), result.get("reps"),
                        result.get("unit"), "  ".join(checks)))
    failed = sum(1 for result in report.get("results") or []
                 for exp in result.get("expectations") or []
                 if not exp.get("passed"))
    lines.append("")
    lines.append("  expectations failed: %d" % failed)
    return "\n".join(lines)


def render_comparison(comparison: ReportComparison) -> str:
    """Human-readable compare table (``repro bench compare`` and
    ``repro diffstats``)."""
    lines = ["comparison (noise band: max(%g*MAD, %.0f%%))"
             % (comparison.k, 100 * comparison.min_rel),
             "  A (baseline):  %s" % comparison.path_a,
             "  B (candidate): %s" % comparison.path_b]
    if not comparison.env_match:
        lines.append("  note: env digests differ — cross-machine diff, "
                     "bands are advisory")
    lines += ["",
              "  %-34s %12s %12s %9s  %-22s %s"
              % ("id", "A median", "B median", "delta",
                 "band", "flag"),
              "  " + "-" * 100]
    for row in comparison.rows:
        verdict = row.verdict
        delta = ("%+.1f%%" % (100 * verdict.delta_ratio)
                 if verdict.delta_ratio is not None else "-")
        band = ("[%.6g, %.6g]" % (verdict.band.lo, verdict.band.hi)
                if verdict.band is not None else "-")
        flag = "" if row.flag == stats.OK else row.flag.upper()
        lines.append("  %-34s %12s %12s %9s  %-22s %s"
                     % (row.bench_id, _fmt(verdict.baseline),
                        _fmt(verdict.candidate), delta, band, flag))
    lines.append("")
    lines.append("  regressions: %d   improvements: %d   compared: %d"
                 % (len(comparison.regressions),
                    len(comparison.improvements), len(comparison.rows)))
    return "\n".join(lines)
