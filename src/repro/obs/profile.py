"""Per-phase wall-time profiler.

Scopes (``with profiler.phase("decode"): ...``) accumulate calls,
inclusive and exclusive (self) time per phase name.  Nesting is tracked
with an explicit stack, so ``eval`` wrapping ``memory`` wrapping
``solver`` yields a correct breakdown: each phase's *self* time excludes
the time spent in phases entered beneath it.

A caller that reads the clock itself — the engine's eval step and the
solver's solved query, whose one reading also feeds cost attribution and
``solve_time`` — opens a scope with :meth:`PhaseProfiler.open` and
closes it with the elapsed time it measured, so every consumer of that
reading is charged the same value.

A disabled profiler hands out one shared no-op scope, keeping the hot
path at roughly the cost of a method call.
"""

from __future__ import annotations

import time
from typing import Dict, List

__all__ = ["PhaseProfiler", "PhaseStats"]

# The canonical engine phases (instrumented in core/smt/isa):
ENGINE_PHASES = ("decode", "eval", "solver", "memory", "strategy")


class PhaseStats:
    """Accumulated timings for one phase name."""

    __slots__ = ("name", "calls", "total", "self_time")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total = 0.0        # inclusive wall time
        self.self_time = 0.0    # exclusive of nested phases

    def snapshot(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "avg_us": (1e6 * self.total / self.calls) if self.calls else 0.0,
        }

    def __repr__(self):
        return "<PhaseStats %s calls=%d total=%.4fs self=%.4fs>" % (
            self.name, self.calls, self.total, self.self_time)


class _NullScope:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False

    def close(self, _elapsed: float) -> None:
        pass


_NULL_SCOPE = _NullScope()


class _Scope:
    __slots__ = ("_profiler", "_name", "_start", "_child_time")

    def __init__(self, profiler: "PhaseProfiler", name: str):
        self._profiler = profiler
        self._name = name
        self._start = 0.0
        self._child_time = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        self._child_time = 0.0
        self._profiler._stack.append(self)
        return self

    def __exit__(self, *_exc):
        self.close(time.perf_counter() - self._start)
        return False

    def close(self, elapsed: float) -> None:
        """Leave the scope, charging ``elapsed`` seconds to its phase
        (and to its parent scope as child time)."""
        profiler = self._profiler
        stack = profiler._stack
        stack.pop()
        stats = profiler._phases.get(self._name)
        if stats is None:
            stats = profiler._phases[self._name] = PhaseStats(self._name)
        stats.calls += 1
        stats.total += elapsed
        stats.self_time += elapsed - self._child_time
        if stack:
            stack[-1]._child_time += elapsed


class PhaseProfiler:
    """Hierarchy-aware per-phase timer; no-op when disabled."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._phases: Dict[str, PhaseStats] = {}
        self._stack: List[_Scope] = []

    def phase(self, name: str):
        """Context manager timing one scope of ``name``."""
        if not self.enabled:
            return _NULL_SCOPE
        return _Scope(self, name)

    def open(self, name: str):
        """Enter a scope of ``name`` whose caller times it: the caller
        reads the clock and ends the scope with ``close(elapsed)``.
        Scopes opened beneath it still charge it their time as child
        time."""
        if not self.enabled:
            return _NULL_SCOPE
        scope = _Scope(self, name)
        self._stack.append(scope)
        return scope

    def stats(self, name: str) -> PhaseStats:
        """Stats for one phase.

        On an *enabled* profiler a never-entered phase is registered on
        first access, so the returned object is live: later mutations
        and scope exits accumulate into the same ``PhaseStats`` (and it
        appears — zeroed — in :meth:`snapshot`).  A *disabled* profiler
        returns a detached zeroed placeholder instead: it records
        nothing, so registering would only pollute snapshots.
        """
        found = self._phases.get(name)
        if found is not None:
            return found
        if not self.enabled:
            return PhaseStats(name)
        found = self._phases[name] = PhaseStats(name)
        return found

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {name: stats.snapshot()
                for name, stats in sorted(self._phases.items())}

    def reset(self) -> None:
        self._phases.clear()
        del self._stack[:]

    def report(self, title: str = "per-phase profile") -> str:
        """Human-readable table, widest phases first."""
        lines = ["== %s ==" % title,
                 "%-12s %10s %12s %12s %10s" % ("phase", "calls",
                                                "total", "self", "avg")]
        ordered = sorted(self._phases.values(),
                         key=lambda s: s.total, reverse=True)
        for stats in ordered:
            lines.append("%-12s %10d %11.4fs %11.4fs %8.1fus"
                         % (stats.name, stats.calls, stats.total,
                            stats.self_time,
                            1e6 * stats.total / stats.calls
                            if stats.calls else 0.0))
        if not ordered:
            lines.append("(no phases recorded)")
        return "\n".join(lines)
