"""Outside-in per-layer tracing for the end-to-end benchmark.

:class:`LayerTracer` replaces the public entry points of each engine
layer (class or module attributes) with timing wrappers while it is
installed, and puts the originals back on exit; no file under ``src/``
changes.  Layers are named after the modules that hold them.

Each wrapped call records its duration and its *self time*: the
duration minus the time its wrapped callees took.  Full spans (name,
start, end, parent span, exploration id) are kept for the three
low-volume boundaries in :data:`FULL_SPANS`; the high-volume calls
(memory, decoder, term evaluation, ...) are kept as per-exploration
count and self-time aggregates.  Everything stays in memory until
:meth:`LayerTracer.payload` is written out.

The self time of ``Engine.explore`` is everything the engine does that
no wrapped layer covers: the IR walk, term building and bookkeeping.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

import repro.compile as compile_module
from repro.core.executor import Engine
from repro.core.memory import SymMemory
from repro.core.state import SymState
from repro.core.strategy import DfsStrategy
from repro.isa.decoder import Decoder
from repro.smt import solver as solver_module
from repro.smt import terms
from repro.smt.bitblast import BitBlaster
from repro.smt.cache import QueryCache
from repro.smt.sat import SatSolver

__all__ = ["LayerTracer", "ENTRIES", "FULL_SPANS", "PER_LAYER"]

#: (owner, attribute, entry name).  An entry's layer is its name minus
#: the last component; a layer's self time sums its entries.
ENTRIES = [
    (Engine, "explore", "core.executor.explore"),
    (Decoder, "decode_bytes", "isa.decoder.decode_bytes"),
    (SymMemory, "read", "core.memory.read"),
    (SymMemory, "write", "core.memory.write"),
    (SymMemory, "concrete_window", "core.memory.window"),
    (SymMemory, "fork", "core.memory.fork"),
    (SymState, "fork", "core.state.fork"),
    (DfsStrategy, "push", "core.strategy.push"),
    (DfsStrategy, "pop", "core.strategy.pop"),
    (solver_module.Solver, "check", "smt.solver.check"),
    (QueryCache, "lookup", "smt.cache.lookup"),
    (QueryCache, "subsumes_unsat", "smt.cache.subsumes_unsat"),
    (QueryCache, "store", "smt.cache.store"),
    # The solver imported the interval layer by name, so the name is
    # patched where the solver looks it up.
    (solver_module, "refute_conjunction", "smt.interval.refute"),
    (BitBlaster, "literal_for", "smt.bitblast.literal_for"),
    (SatSolver, "solve", "smt.sat.solve"),
    (terms, "all_true", "smt.terms.all_true"),
    (terms, "query_key", "smt.terms.query_key"),
    (compile_module, "compiled_for", "compile.compiled_for"),
]

FULL_SPANS = frozenset({"core.executor.explore", "smt.solver.check",
                        "smt.sat.solve"})

_SAT_STATS = ("conflicts", "propagations", "decisions", "learned",
              "restarts")

#: Every per-layer metric, in print order, with its unit.
PER_LAYER: List[Tuple[str, str]] = [
    ("isa.model.build_s", "s"),
    ("compile.compiled_for_s", "s"),
    ("isa.decoder.calls", "count"),
    ("isa.decoder.self_s", "s"),
    ("isa.decoder.cache_hit_ratio", "ratio"),
    ("core.executor.self_s", "s"),
    ("core.executor.self_us_per_instr", "us"),
    ("core.executor.instructions", "count"),
    ("core.executor.forks", "count"),
    ("core.memory.read_calls", "count"),
    ("core.memory.write_calls", "count"),
    ("core.memory.window_calls", "count"),
    ("core.memory.fork_calls", "count"),
    ("core.memory.self_s", "s"),
    ("core.state.fork_calls", "count"),
    ("core.state.self_s", "s"),
    ("core.strategy.pushes", "count"),
    ("core.strategy.self_s", "s"),
    ("core.strategy.peak_frontier", "count"),
    ("smt.solver.checks", "count"),
    ("smt.solver.check_s", "s"),
    ("smt.solver.self_s", "s"),
    ("smt.solver.sat_calls", "count"),
    ("smt.solver.cache_hits", "count"),
    ("smt.solver.subsumed", "count"),
    ("smt.solver.model_reuse", "count"),
    ("smt.solver.frame_reuse", "count"),
    ("smt.solver.interval_unsat", "count"),
    ("smt.solver.no_sat_ratio", "ratio"),
    ("smt.cache.calls", "count"),
    ("smt.cache.self_s", "s"),
    ("smt.interval.calls", "count"),
    ("smt.interval.self_s", "s"),
    ("smt.interval.refuted_ratio", "ratio"),
    ("smt.bitblast.calls", "count"),
    ("smt.bitblast.self_s", "s"),
    ("smt.bitblast.cnf_vars", "count"),
    ("smt.bitblast.cnf_clauses", "count"),
    ("smt.sat.calls", "count"),
    ("smt.sat.self_s", "s"),
    ("smt.sat.conflicts", "count"),
    ("smt.sat.propagations", "count"),
    ("smt.sat.decisions", "count"),
    ("smt.sat.learned", "count"),
    ("smt.sat.restarts", "count"),
    ("smt.terms.all_true_calls", "count"),
    ("smt.terms.all_true_self_s", "s"),
    ("smt.terms.query_key_self_s", "s"),
    ("smt.terms.pool_growth", "count"),
    ("smt.terms.pool_hit_ratio", "ratio"),
    ("trace.explore_s", "s"),
    ("trace.sat_bitblast_share", "ratio"),
    ("trace.executor_memory_decoder_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


#: Counts and seconds that are not sums over the traced explorations.
_NOT_SUMS = frozenset({"isa.model.build_s", "compile.compiled_for_s",
                       "core.strategy.peak_frontier"})


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerTracer:
    """Wraps every entry in :data:`ENTRIES` while used as a context
    manager; see the module docstring for what it records."""

    def __init__(self):
        self._clock = time.perf_counter
        self._origin = self._clock()
        #: entry name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0] for _owner, _attr, name in ENTRIES}
        #: counters read at the boundaries (cache hits, CNF growth, ...)
        self.counts: Counter = Counter()
        #: full spans: (id, name, start, end, parent id, exploration id)
        self.spans: List[Tuple] = []
        self.explorations: List[Dict[str, object]] = []
        self.exploration: Optional[int] = None
        self._program: Optional[str] = None
        self._opened: Optional[Dict[str, Tuple[int, float]]] = None
        self._frames: List[List[float]] = []
        self._open_spans: List[int] = []
        self._next_span = 0
        self._saved: List[Tuple[object, str, object]] = []
        self._pool_before: Dict[str, int] = {}
        self.pool: Dict[str, int] = {}

    # -- install / restore --------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        hooks = {
            "core.executor.explore": (None, self._after_explore),
            "isa.decoder.decode_bytes": (None, self._after_decode),
            "core.strategy.push": (None, self._after_push),
            "smt.interval.refute": (None, self._after_refute),
            "smt.bitblast.literal_for": (self._cnf_size, self._after_blast),
            "smt.sat.solve": (self._sat_stats, self._after_solve),
        }
        try:
            for owner, attr, name in ENTRIES:
                original = owner.__dict__[attr]
                before, after = hooks.get(name, (None, None))
                self._saved.append((owner, attr, original))
                setattr(owner, attr,
                        self._wrap(original, name, before, after))
        except BaseException:
            # An entry point that moved must not leave the others patched.
            self.__exit__(None, None, None)
            raise
        self._pool_before = terms.pool_stats()
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        after = terms.pool_stats()
        self.pool = {key: after[key] - self._pool_before.get(key, 0)
                     for key in after}

    def _wrap(self, original, name, before, after):
        agg = self.stats[name]
        frames = self._frames
        clock = self._clock
        full = name in FULL_SPANS
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = [0.0]
            frames.append(frame)
            if full:
                span = tracer._open_span()
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                if frames:
                    frames[-1][0] += elapsed
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
                if full:
                    tracer._close_span(span, name, start, end)
            if after is not None:
                after(args, result, token)
            return result

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__wrapped__ = original
        return wrapper

    # -- spans and explorations ----------------------------------------------

    def _open_span(self) -> int:
        span = self._next_span
        self._next_span += 1
        self._open_spans.append(span)
        return span

    def _close_span(self, span: int, name: str, start: float,
                    end: float) -> None:
        self._open_spans.pop()
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append((span, name, start - self._origin,
                           end - self._origin, parent, self.exploration))

    def begin(self, program: str) -> None:
        """Attribute the calls that follow to one exploration of
        ``program``; explorations are numbered from 0."""
        self.exploration = len(self.explorations)
        self._program = program
        self._opened = {name: (agg[0], agg[2])
                        for name, agg in self.stats.items()}

    def end(self) -> None:
        """Close the exploration opened by :meth:`begin`."""
        layers = {}
        for name, agg in self.stats.items():
            calls, self_s = self._opened[name]
            if agg[0] != calls:
                layers[name] = [agg[0] - calls, agg[2] - self_s]
        self.explorations.append({"id": self.exploration,
                                  "program": self._program,
                                  "layers": layers})
        self.exploration = None

    # -- boundary counters ---------------------------------------------------

    def _after_explore(self, args, result, _token) -> None:
        counts = self.counts
        counts["instructions"] += result.instructions_executed
        counts["forks"] += result.states_forked
        for key, value in result.solver_stats.items():
            counts["solver." + key] += value

    def _after_decode(self, args, _result, _token) -> None:
        self.counts["decoder.hits"] += args[0].last_cache_hit

    def _after_push(self, args, _result, _token) -> None:
        size = len(args[0])
        if size > self.counts["strategy.peak"]:
            self.counts["strategy.peak"] = size

    def _after_refute(self, _args, result, _token) -> None:
        self.counts["interval.refuted"] += bool(result)

    @staticmethod
    def _cnf_size(args) -> Tuple[int, int]:
        sat = args[0].sat
        return sat.num_vars, sat.num_clauses

    def _after_blast(self, args, _result, token) -> None:
        sat = args[0].sat
        self.counts["cnf.vars"] += sat.num_vars - token[0]
        self.counts["cnf.clauses"] += sat.num_clauses - token[1]

    @staticmethod
    def _sat_stats(args) -> Dict[str, int]:
        return dict(args[0].stats)

    def _after_solve(self, args, _result, token) -> None:
        stats = args[0].stats
        for key in _SAT_STATS:
            self.counts["sat." + key] += stats[key] - token[key]

    # -- results -------------------------------------------------------------

    def _layer(self, prefix: str) -> Tuple[int, float, float]:
        calls = total = self_s = 0.0
        for name, (count, span_s, own_s) in self.stats.items():
            if name.startswith(prefix + "."):
                calls += count
                total += span_s
                self_s += own_s
        return int(calls), total, self_s

    def metrics(self, build_s: float, compiled_for_s: float,
                overhead_ratio: float, traversals: int) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric over the traced explorations.

        Counts and seconds summed over the explorations are given per
        traversal of the program list, so counts repeat exactly between
        runs of one seed.  ``build_s`` and ``compiled_for_s`` come from
        the set-ups and ``overhead_ratio`` from ``measure.py``'s untraced
        traversals of the same programs; the rest is this tracer's own
        record.
        """
        stats, counts = self.stats, self.counts
        explore_s = stats["core.executor.explore"][1]
        executor_self = stats["core.executor.explore"][2]
        instructions = counts["instructions"]
        decoder = self._layer("isa.decoder")
        memory = self._layer("core.memory")
        strategy = self._layer("core.strategy")
        cache = self._layer("smt.cache")
        interval = self._layer("smt.interval")
        bitblast = self._layer("smt.bitblast")
        sat = self._layer("smt.sat")
        checks = counts["solver.checks"]
        pool = self.pool
        pool_made = pool.get("hits", 0) + pool.get("misses", 0)
        values = {
            "isa.model.build_s": build_s,
            "compile.compiled_for_s": compiled_for_s,
            "isa.decoder.calls": decoder[0],
            "isa.decoder.self_s": decoder[2],
            "isa.decoder.cache_hit_ratio": _ratio(counts["decoder.hits"],
                                                  decoder[0]),
            "core.executor.self_s": executor_self,
            "core.executor.self_us_per_instr":
                _ratio(executor_self * 1e6, instructions),
            "core.executor.instructions": instructions,
            "core.executor.forks": counts["forks"],
            "core.memory.read_calls": stats["core.memory.read"][0],
            "core.memory.write_calls": stats["core.memory.write"][0],
            "core.memory.window_calls": stats["core.memory.window"][0],
            "core.memory.fork_calls": stats["core.memory.fork"][0],
            "core.memory.self_s": memory[2],
            "core.state.fork_calls": stats["core.state.fork"][0],
            "core.state.self_s": stats["core.state.fork"][2],
            "core.strategy.pushes": stats["core.strategy.push"][0],
            "core.strategy.self_s": strategy[2],
            "core.strategy.peak_frontier": counts["strategy.peak"],
            "smt.solver.checks": checks,
            "smt.solver.check_s": stats["smt.solver.check"][1],
            "smt.solver.self_s": stats["smt.solver.check"][2],
            "smt.solver.sat_calls": counts["solver.sat_calls"],
            "smt.solver.cache_hits": counts["solver.cache_hit_sat"]
            + counts["solver.cache_hit_unsat"],
            "smt.solver.subsumed": counts["solver.cache_subsumed_unsat"],
            "smt.solver.model_reuse": counts["solver.cache_model_reuse"],
            "smt.solver.frame_reuse": counts["solver.frame_reuse"],
            "smt.solver.interval_unsat": counts["solver.interval_unsat"],
            "smt.solver.no_sat_ratio":
                _ratio(checks - counts["solver.sat_calls"], checks),
            "smt.cache.calls": cache[0],
            "smt.cache.self_s": cache[2],
            "smt.interval.calls": interval[0],
            "smt.interval.self_s": interval[2],
            "smt.interval.refuted_ratio":
                _ratio(counts["interval.refuted"], interval[0]),
            "smt.bitblast.calls": bitblast[0],
            "smt.bitblast.self_s": bitblast[2],
            "smt.bitblast.cnf_vars": counts["cnf.vars"],
            "smt.bitblast.cnf_clauses": counts["cnf.clauses"],
            "smt.sat.calls": sat[0],
            "smt.sat.self_s": sat[2],
            "smt.terms.all_true_calls": stats["smt.terms.all_true"][0],
            "smt.terms.all_true_self_s": stats["smt.terms.all_true"][2],
            "smt.terms.query_key_self_s": stats["smt.terms.query_key"][2],
            "smt.terms.pool_growth": pool.get("interned", 0),
            "smt.terms.pool_hit_ratio": _ratio(pool.get("hits", 0),
                                               pool_made),
            "trace.explore_s": explore_s,
            "trace.sat_bitblast_share": _ratio(sat[2] + bitblast[2],
                                               explore_s),
            "trace.executor_memory_decoder_share":
                _ratio(executor_self + memory[2] + decoder[2], explore_s),
            "trace.overhead_ratio": overhead_ratio,
        }
        for key in _SAT_STATS:
            values["smt.sat." + key] = counts["sat." + key]
        for name, unit in PER_LAYER:
            if unit in ("count", "s") and name not in _NOT_SUMS:
                values[name] /= traversals
        return values

    def payload(self) -> Dict[str, object]:
        """JSON-able record: full spans, per-exploration aggregates and
        per-entry totals.  Times are seconds from tracer creation."""
        return {
            "span_fields": ["id", "name", "start", "end", "parent",
                            "exploration"],
            "spans": [[span, name, round(start, 7), round(end, 7), parent,
                       exploration]
                      for span, name, start, end, parent, exploration
                      in self.spans],
            "explorations": self.explorations,
            "entries": {name: {"calls": calls, "total_s": total,
                               "self_s": self_s}
                        for name, (calls, total, self_s)
                        in self.stats.items()},
            "counts": dict(self.counts),
            "pool_growth": self.pool,
        }
