"""Metrics registry: counters, gauges and histograms.

The registry is the cheap, always-on layer of the observability stack
(`repro.obs`).  Counters are plain attribute increments on the hot path;
when a registry is *disabled* it hands out shared null instruments whose
mutators are no-ops, so instrumented code never needs an ``if``.

Conventions
-----------
* Metric names are dotted paths, ``decode.cache_hit``, ``solver.check_ms``.
* Counters and gauges hold numbers; histograms record every observation
  and summarize with nearest-rank percentiles (p50/p90/p99).
* ``snapshot()`` returns plain JSON-able dicts; ``counters_snapshot()`` /
  ``delta_since()`` support per-exploration deltas on long-lived
  registries (an engine explored twice must not report inflated counts).
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def __repr__(self):
        return "<Counter %s=%s>" % (self.name, self.value)


class Gauge:
    """Last-written value (frontier size, cache size, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def set_max(self, value) -> None:
        if value > self.value:
            self.value = value

    def merge(self, other: "Gauge") -> None:
        self.value = other.value

    def __repr__(self):
        return "<Gauge %s=%s>" % (self.name, self.value)


class Histogram:
    """Records every observation; summarizes with percentiles.

    Observations are kept in full up to ``max_samples`` and then
    reservoir-thinned by keeping every other sample (cheap, deterministic,
    good enough for timing distributions); count/sum/min/max stay exact.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples",
                 "_max_samples", "_stride", "_skip")

    def __init__(self, name: str, max_samples: int = 8192):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._max_samples = max_samples
        self._stride = 1
        self._skip = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._skip += 1
        if self._skip >= self._stride:
            self._skip = 0
            self._samples.append(value)
            if len(self._samples) > self._max_samples:
                self._samples = self._samples[::2]
                self._stride *= 2

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained samples."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        if p <= 0:
            return ordered[0]
        rank = int((p / 100.0) * len(ordered) + 0.5)  # nearest rank, 1-based
        rank = min(max(rank, 1), len(ordered))
        return ordered[rank - 1]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram, stride-aware.

        Each retained sample stands for ``_stride`` observations, so
        naively extending ``_samples`` would give a thinned histogram's
        samples the same weight as an unthinned one's and skew
        percentiles toward the less-thinned side.  Instead both sample
        sets are re-thinned to the *common* (coarsest) stride before
        concatenation, restoring equal per-sample weight.  Strides are
        powers of two by construction (they only ever double), so the
        coarser stride is always an exact multiple of the finer one.
        """
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max
        target = max(self._stride, other._stride)
        mine = self._samples[::target // self._stride]
        theirs = other._samples[::target // other._stride]
        self._samples = mine + theirs
        self._stride = target
        self._skip = 0
        while len(self._samples) > self._max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def __repr__(self):
        return "<Histogram %s n=%d mean=%.3g>" % (self.name, self.count,
                                                  self.mean)


class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def merge(self, other) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    value = 0

    def set(self, value) -> None:
        pass

    def set_max(self, value) -> None:
        pass

    def merge(self, other) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0
    min = None
    max = None
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    def merge(self, other) -> None:
        pass

    def snapshot(self) -> Dict[str, float]:
        return {}


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named metric instruments; null instruments when disabled."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument factories (idempotent per name) -------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, max_samples: int = 8192) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, max_samples)
        return instrument

    # -- snapshots and deltas ----------------------------------------------

    def counters_snapshot(self) -> Dict[str, int]:
        """Current counter values (for later :meth:`delta_since`)."""
        return {name: c.value for name, c in self._counters.items()}

    def delta_since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since a :meth:`counters_snapshot`."""
        return {name: c.value - before.get(name, 0)
                for name, c in self._counters.items()}

    def snapshot(self) -> Dict[str, object]:
        """Everything, as one JSON-able dict."""
        out: Dict[str, object] = {}
        out["counters"] = {n: c.value for n, c in
                           sorted(self._counters.items())}
        out["gauges"] = {n: g.value for n, g in sorted(self._gauges.items())}
        out["histograms"] = {n: h.snapshot() for n, h in
                             sorted(self._histograms.items())}
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (cross-run aggregation)."""
        for name, counter in other._counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge(gauge)
        for name, histogram in other._histograms.items():
            self.histogram(name).merge(histogram)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
