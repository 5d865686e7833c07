"""Performance observatory: benchmark framework + perf history + gates.

The ``benchmarks/bench_*.py`` modules used to be 13 ad-hoc scripts,
each with its own timing loop, table printer and (for three of them) a
hand-rolled wall-clock CI guard.  This package is the framework they
all register into:

* :mod:`repro.bench.registry` — declarative :class:`Benchmark`
  metadata (suite, ISA targets, workload, unit, higher/lower-is-better
  direction, absolute expectations) + discovery of the bench modules;
* :mod:`repro.bench.runner` — warmup, median-of-k repetitions with MAD
  spread, per-rep wall/solver-time/steps-per-sec from the telemetry
  summaries, environment provenance, the schema-versioned
  ``BENCH_<n>.json`` report, and the statistical A/B comparison;
* :mod:`repro.bench.history` — the append-only, content-addressed
  perf-history ledger under the run store, so trajectories survive
  across PRs and machines;
* :mod:`repro.bench.stats` — median/MAD noise bands, direction-aware
  verdicts and changepoint detection: the one regression rule, which
  ``repro diffstats`` applies to telemetry sidecars too.

CLI: ``repro bench list | run | compare | history`` — see
``docs/OBSERVABILITY.md`` ("Performance observatory").
"""

from .history import LEDGER_SCHEMA, PerfLedger, entry_digest, env_digest  # noqa: F401,E501
from .registry import (  # noqa: F401
    SUITES,
    BenchError,
    Benchmark,
    Sample,
    all_benchmarks,
    benchmark,
    benchmarks_dir,
    clear_registry,
    discover,
    get,
    register,
    suite_benchmarks,
)
from .runner import (  # noqa: F401
    REPORT_BASENAME,
    REPORT_SCHEMA,
    BenchDiffRow,
    ReportComparison,
    compare_reports,
    default_report_path,
    evaluate_expectations,
    load_report,
    render_comparison,
    render_report,
    run_benchmarks,
    write_report,
)
from .stats import (  # noqa: F401
    IMPROVEMENT,
    OK,
    REGRESSION,
    Band,
    Changepoint,
    Verdict,
    changepoint,
    classify,
    mad,
    median,
    noise_band,
    sparkline,
)

__all__ = [
    "Benchmark", "Sample", "BenchError", "SUITES", "benchmark",
    "register", "get", "all_benchmarks", "suite_benchmarks",
    "clear_registry", "discover", "benchmarks_dir",
    "REPORT_SCHEMA", "REPORT_BASENAME", "run_benchmarks",
    "default_report_path", "write_report", "load_report",
    "evaluate_expectations", "compare_reports", "ReportComparison",
    "BenchDiffRow", "render_report", "render_comparison",
    "PerfLedger", "LEDGER_SCHEMA", "entry_digest", "env_digest",
    "median", "mad", "Band", "noise_band", "Verdict", "classify",
    "Changepoint", "changepoint", "sparkline",
    "OK", "REGRESSION", "IMPROVEMENT",
]
