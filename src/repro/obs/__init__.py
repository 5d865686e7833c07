"""Unified observability for the generated engines.

One :class:`Obs` handle bundles the three telemetry layers:

* ``obs.metrics``  — :class:`~repro.obs.metrics.MetricsRegistry`
  (counters / gauges / histograms; cheap, enabled by default),
* ``obs.tracer``   — :class:`~repro.obs.events.EventTracer`
  (typed events to pluggable sinks; disabled until a sink is attached),
* ``obs.profiler`` — :class:`~repro.obs.profile.PhaseProfiler`
  (per-phase wall-time breakdown; opt-in, ``--profile``).

The engine owns one ``Obs`` (threaded through
:class:`~repro.core.executor.EngineConfig`); the solver, decoder and
frontier strategies borrow it.  ``Obs.disabled()`` turns every layer
into a no-op for overhead-sensitive baselines.

See ``docs/OBSERVABILITY.md`` for the event schema and worked examples.
"""

from __future__ import annotations

from typing import Dict, Optional

from .attr import (  # noqa: F401
    CostAttribution,
    annotate_spec_costs,
    hot_report,
    hot_rules_lines,
)
from .compare import extract_metrics  # noqa: F401
from .events import (  # noqa: F401
    DECODE_CACHE,
    DEFECT,
    EVENT_KINDS,
    FORK,
    HEALTH,
    MERGE,
    PATH_END,
    PRUNE,
    SCHEMA_VERSION,
    SOLVER_CACHE,
    SOLVER_CHECK,
    STEP,
    STORE,
    WATCHDOG,
    Event,
    EventTracer,
)
from .health import (  # noqa: F401
    DIAGNOSES,
    FRONTIER_PRESSURE,
    POOL_PRESSURE,
    SOLVER_DOMINATED,
    STALL,
    HealthConfig,
    HealthMonitor,
    health_summary_line,
)
from .metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .flame import chrome_trace, collapsed_stacks, render_collapsed  # noqa: F401,E501
from .profile import PhaseProfiler, PhaseStats  # noqa: F401
from .sinks import (  # noqa: F401
    ConsoleSink,
    JsonlSink,
    RingBufferSink,
    RunFile,
    TelemetryError,
    load_run,
    read_jsonl,
    read_run,
)
from .speccov import (  # noqa: F401
    IsaSpecCoverage,
    SpecCoverage,
    rule_coverage_from_visited,
)
from .tree import ExecutionTree, FlightRecorder, TreeEdge, TreeNode  # noqa: F401

__all__ = ["Obs", "MetricsRegistry", "Counter", "Gauge", "Histogram",
           "CostAttribution", "annotate_spec_costs",
           "hot_report", "hot_rules_lines",
           "chrome_trace", "collapsed_stacks", "render_collapsed",
           "EventTracer", "Event", "EVENT_KINDS", "SCHEMA_VERSION",
           "PhaseProfiler",
           "PhaseStats", "RingBufferSink", "JsonlSink", "ConsoleSink",
           "read_jsonl", "read_run", "load_run", "RunFile",
           "TelemetryError",
           "ExecutionTree", "FlightRecorder", "TreeEdge", "TreeNode",
           "SpecCoverage", "IsaSpecCoverage", "rule_coverage_from_visited",
           "HealthConfig", "HealthMonitor", "health_summary_line",
           "DIAGNOSES", "STALL", "SOLVER_DOMINATED",
           "FRONTIER_PRESSURE", "POOL_PRESSURE",
           "extract_metrics",
           "STEP", "FORK", "MERGE", "SOLVER_CHECK", "SOLVER_CACHE",
           "PATH_END", "DEFECT", "DECODE_CACHE", "PRUNE", "HEALTH",
           "WATCHDOG", "STORE"]


class Obs:
    """Bundle of metrics registry, event tracer and phase profiler."""

    def __init__(self, metrics: bool = True, profile: bool = False,
                 isa: str = "?"):
        self.metrics = MetricsRegistry(enabled=metrics)
        self.tracer = EventTracer(isa=isa)
        self.profiler = PhaseProfiler(enabled=profile)

    # -- canned configurations ---------------------------------------------

    @classmethod
    def default(cls) -> "Obs":
        """Enabled counters, no event sink, no profiler (the engine
        default: negligible overhead, still countable)."""
        return cls(metrics=True, profile=False)

    @classmethod
    def disabled(cls) -> "Obs":
        """Every layer off — for overhead baselines and ablations."""
        return cls(metrics=False, profile=False)

    # -- convenience --------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return (self.metrics.enabled or self.tracer.enabled
                or self.profiler.enabled)

    def set_isa(self, isa: str) -> None:
        self.tracer.isa = isa

    def add_sink(self, sink) -> None:
        self.tracer.add_sink(sink)

    def snapshot(self, counters_since: Optional[Dict[str, int]] = None
                 ) -> Dict[str, object]:
        """One JSON-able view of all three layers.

        ``counters_since`` (a ``metrics.counters_snapshot()``) scopes the
        counter section to a single exploration on a long-lived engine.
        """
        metrics = self.metrics.snapshot()
        if counters_since is not None:
            metrics["counters"] = self.metrics.delta_since(counters_since)
        return {
            "isa": self.tracer.isa,
            "metrics": metrics,
            "phases": self.profiler.snapshot(),
            "events_emitted": self.tracer.emitted,
        }

    def close(self) -> None:
        self.tracer.close()
