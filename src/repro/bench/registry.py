"""Benchmark registry: declarative metadata + module discovery.

Every ``benchmarks/bench_*.py`` module *registers* what it measures
instead of hand-rolling its own timing / printing / guard boilerplate::

    from repro.bench import benchmark

    @benchmark(bench_id="solver_cache.repeated_speedup",
               title="solver cache: repeated-query speedup",
               suite="quick", isas=("rv32",), unit="x",
               direction="higher", expect_min=1.20,
               workload="maze(depth 9)+checksum(len 5), explored twice")
    def _bench():
        return measure_speedup()

The decorated function produces **one sample per repetition** — a bare
number, a :class:`Sample`, or a dict.  The runner
(:mod:`repro.bench.runner`) handles warmup, repetitions, medians and
noise bands; the registry only holds the *declaration*:

* ``suite`` — ``"quick"`` benchmarks run in the CI observatory job on
  every push; ``"full"`` ones only when the full suite is requested
  (the full suite is a superset of quick).
* ``direction`` — ``"higher"`` or ``"lower"`` is better
  (:mod:`repro.bench.stats` judges every comparison by it).
* ``expect_min`` / ``expect_max`` — declarative absolute expectations
  on the *median*, inclusive: a median exactly at its bar passes.
  These are the repo's speed guards (e.g. the >= 1.20x solver-cache
  speedup); ``repro bench run --check`` enforces them.  Being ratios,
  they gate on any machine; the statistical comparator handles the
  machine-relative part.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .stats import HIGHER, LOWER

__all__ = ["Benchmark", "Sample", "BenchError", "SUITES", "benchmark",
           "register", "get", "all_benchmarks", "suite_benchmarks",
           "clear_registry", "discover", "benchmarks_dir"]

SUITES = ("quick", "full")


class BenchError(Exception):
    """Registry misuse or a benchmark that cannot run."""


class Sample:
    """One repetition's measurement.

    ``value`` is the benchmark's headline metric (in ``unit``); the
    optional fields carry the per-rep context the ISSUE asks for —
    wall seconds, solver seconds and steps/sec pulled from the
    exploration's telemetry summary — plus free-form ``extra``.
    """

    __slots__ = ("value", "wall_s", "solver_time_s", "steps_per_sec",
                 "extra")

    def __init__(self, value: float, wall_s: Optional[float] = None,
                 solver_time_s: Optional[float] = None,
                 steps_per_sec: Optional[float] = None,
                 extra: Optional[Dict[str, object]] = None):
        self.value = float(value)
        self.wall_s = wall_s
        self.solver_time_s = solver_time_s
        self.steps_per_sec = steps_per_sec
        self.extra = dict(extra) if extra else None

    @classmethod
    def of(cls, raw) -> "Sample":
        """Normalize a benchmark function's return value."""
        if isinstance(raw, Sample):
            return raw
        if isinstance(raw, dict):
            if "value" not in raw:
                raise BenchError("sample dict needs a 'value' key: %r"
                                 % (raw,))
            known = {key: raw.get(key) for key in
                     ("wall_s", "solver_time_s", "steps_per_sec")}
            extra = {key: val for key, val in raw.items()
                     if key not in ("value", "wall_s", "solver_time_s",
                                    "steps_per_sec")}
            return cls(raw["value"], extra=extra or None, **known)
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return cls(raw)
        raise BenchError("benchmark returned %r; expected a number, "
                         "Sample, or dict with 'value'" % (raw,))

    @classmethod
    def from_result(cls, value: float, result=None,
                    wall: Optional[float] = None,
                    **extra) -> "Sample":
        """Build a sample from an ``ExplorationResult`` — the standard
        way a bench module forwards the telemetry summary's wall /
        solver-time / steps-per-sec alongside its headline metric."""
        wall_s = wall
        solver_s = None
        steps = None
        if result is not None:
            if wall_s is None:
                wall_s = getattr(result, "wall_time", None)
            stats = getattr(result, "solver_stats", None) or {}
            solve = stats.get("solve_time")
            if isinstance(solve, (int, float)):
                solver_s = float(solve)
            instructions = getattr(result, "instructions_executed", None)
            if (isinstance(instructions, (int, float)) and wall_s):
                steps = instructions / wall_s
        return cls(value, wall_s=wall_s, solver_time_s=solver_s,
                   steps_per_sec=steps, extra=extra or None)

    def to_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {"value": self.value}
        for key in ("wall_s", "solver_time_s", "steps_per_sec"):
            val = getattr(self, key)
            if val is not None:
                row[key] = round(float(val), 6)
        if self.extra:
            row["extra"] = self.extra
        return row


class Benchmark:
    """One registered benchmark: metadata + the sample function."""

    def __init__(self, bench_id: str, fn: Callable[[], object],
                 title: str = "", suite: str = "full",
                 isas: Sequence[str] = ("rv32",), workload: str = "",
                 unit: str = "s", direction: str = LOWER,
                 reps: int = 3, warmup: int = 1,
                 expect_min: Optional[float] = None,
                 expect_max: Optional[float] = None,
                 module: str = ""):
        if suite not in SUITES:
            raise BenchError("benchmark %r: suite must be one of %s, "
                             "got %r" % (bench_id, SUITES, suite))
        if direction not in (HIGHER, LOWER):
            raise BenchError("benchmark %r: direction must be 'higher' "
                             "or 'lower', got %r" % (bench_id, direction))
        if reps < 1:
            raise BenchError("benchmark %r: reps must be >= 1"
                             % bench_id)
        self.id = bench_id
        self.fn = fn
        self.title = title or bench_id
        self.suite = suite
        self.isas = tuple(isas)
        self.workload = workload
        self.unit = unit
        self.direction = direction
        self.reps = reps
        self.warmup = warmup
        self.expect_min = expect_min
        self.expect_max = expect_max
        self.module = module

    def metadata(self) -> Dict[str, object]:
        meta: Dict[str, object] = {
            "id": self.id, "title": self.title, "suite": self.suite,
            "isas": list(self.isas), "workload": self.workload,
            "unit": self.unit, "direction": self.direction,
        }
        if self.expect_min is not None:
            meta["expect_min"] = self.expect_min
        if self.expect_max is not None:
            meta["expect_max"] = self.expect_max
        return meta

    def __repr__(self):
        return "<Benchmark %s (%s)>" % (self.id, self.suite)


_REGISTRY: Dict[str, Benchmark] = {}


def register(bench: Benchmark) -> Benchmark:
    """Register one benchmark; re-registering the same id replaces it
    (module re-imports in one process must not error)."""
    _REGISTRY[bench.id] = bench
    return bench


def benchmark(bench_id: str, **meta):
    """Decorator form of :func:`register`."""

    def decorate(fn):
        register(Benchmark(bench_id, fn,
                           module=getattr(fn, "__module__", ""), **meta))
        return fn

    return decorate


def get(bench_id: str) -> Benchmark:
    try:
        return _REGISTRY[bench_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none registered"
        raise BenchError("unknown benchmark %r (known: %s)"
                         % (bench_id, known))


def all_benchmarks() -> List[Benchmark]:
    return [_REGISTRY[bench_id] for bench_id in sorted(_REGISTRY)]


def suite_benchmarks(suite: str) -> List[Benchmark]:
    """``quick`` -> quick benchmarks only; ``full`` -> everything."""
    if suite not in SUITES:
        raise BenchError("unknown suite %r (choose from %s)"
                         % (suite, "/".join(SUITES)))
    if suite == "full":
        return all_benchmarks()
    return [bench for bench in all_benchmarks() if bench.suite == suite]


def clear_registry() -> None:
    """Tests only: drop every registration."""
    _REGISTRY.clear()


# -- discovery ----------------------------------------------------------------

def benchmarks_dir(explicit: Optional[str] = None) -> str:
    """Locate the ``benchmarks/`` directory holding ``bench_*.py``.

    Preference order: an explicit path, ``$REPRO_BENCH_DIR``, the
    source checkout this package sits in, the current directory.
    """
    if explicit:
        # An explicit path is authoritative: a typo must not silently
        # fall through to some other checkout's benchmarks.
        explicit = os.path.abspath(os.path.expanduser(explicit))
        if not os.path.isdir(explicit):
            raise BenchError("benchmarks directory %s does not exist"
                             % explicit)
        return explicit
    candidates: List[str] = []
    env = os.environ.get("REPRO_BENCH_DIR")
    if env:
        candidates.append(env)
    here = os.path.dirname(os.path.abspath(__file__))
    # src/repro/bench -> repo root -> benchmarks/
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    candidates.append(os.path.join(repo_root, "benchmarks"))
    candidates.append(os.path.join(os.getcwd(), "benchmarks"))
    for candidate in candidates:
        candidate = os.path.abspath(os.path.expanduser(candidate))
        if os.path.isdir(candidate):
            return candidate
    raise BenchError("cannot locate a benchmarks/ directory (tried %s); "
                     "pass --dir or set $REPRO_BENCH_DIR"
                     % ", ".join(candidates))


def discover(directory: Optional[str] = None) -> Tuple[str, List[str]]:
    """Import every ``bench_*.py`` in the benchmarks directory so its
    registrations land in the registry.

    Returns ``(directory, imported module names)``.  A module that
    fails to import is a hard error — a silently skipped benchmark
    would read as "no regression" in CI.
    """
    directory = benchmarks_dir(directory)
    imported: List[str] = []
    # bench modules do ``from _util import ...``: they expect their own
    # directory on sys.path, exactly like running them as scripts.
    added_path = directory not in sys.path
    if added_path:
        sys.path.insert(0, directory)
    try:
        for filename in sorted(os.listdir(directory)):
            if not (filename.startswith("bench_")
                    and filename.endswith(".py")):
                continue
            name = "repro_benchmarks." + filename[:-3]
            if name in sys.modules:
                imported.append(filename[:-3])
                continue
            spec = importlib.util.spec_from_file_location(
                name, os.path.join(directory, filename))
            if spec is None or spec.loader is None:
                raise BenchError("cannot load %s" % filename)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            try:
                spec.loader.exec_module(module)
            except Exception as exc:
                sys.modules.pop(name, None)
                raise BenchError("importing %s failed: %s"
                                 % (filename, exc))
            imported.append(filename[:-3])
    finally:
        if added_path:
            try:
                sys.path.remove(directory)
            except ValueError:
                pass
    return directory, imported
