"""The SMT solver front end used by the execution engine.

:class:`Solver` exposes the conventional assert / push / pop / check / model
interface over the bit-blaster and CDCL core.  Three layers are tried in
order on every :meth:`check` call, cheapest first:

0. **Query cache** — every decided query is memoized under a canonical,
   order-independent digest of its conjunction (``repro.smt.cache``).
   Exact repeats replay the stored verdict (and model); supersets of a
   known-unsat conjunction are unsat by subsumption; recent models are
   replayed against new queries (KLEE-style counterexample caching).
   Cache answers bypass the solving layers entirely: they are *not*
   counted as solver work (no ``solver_check`` event, no ``solver``
   profiler phase, no ``solver.check_ms`` observation) — they count in
   :class:`SolverStats` and emit ``solver_cache`` events instead.
1. **Interval pre-filter** — conservative range analysis proves easy
   unsats (e.g. contradictory equalities on the same variable).
2. **Bit-blast + CDCL** — the complete decision procedure.  Assertions are
   blasted into one persistent CNF and each check solves under assumptions,
   so learned clauses carry over between path-feasibility queries.

Layers 0 and 1 can be disabled (``use_query_cache`` / ``use_intervals``)
for the Figure 2 / Table 5 ablations; the engine's ``--no-solver-cache``
flag maps to ``use_query_cache=False``, which leaves no model replay of
any kind.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

from . import terms as T
from .bitblast import BitBlaster
from .cache import QueryCache
from .interval import refute_conjunction
from .sat import SAT, UNSAT, SatSolver

__all__ = ["Solver", "SolverStats", "SAT", "UNSAT", "cache_answers",
           "cache_hit_ratio", "solved_queries"]


def cache_answers(stats) -> int:
    """Feasibility questions answered without solving, from a stats
    dict (:meth:`SolverStats.as_dict` shape; missing fields count 0):
    the query cache's four answers plus the engine's frame reuse."""
    get = stats.get
    return ((get("cache_hit_sat") or 0) + (get("cache_hit_unsat") or 0)
            + (get("cache_model_reuse") or 0)
            + (get("cache_subsumed_unsat") or 0)
            + (get("frame_reuse") or 0))


def solved_queries(stats) -> int:
    """:meth:`Solver.check` calls the query cache did not answer, from a
    stats dict (same shape as :func:`cache_answers`): the count the
    ``solver`` profiler phase and cost attribution see."""
    return ((stats.get("checks") or 0) + (stats.get("frame_reuse") or 0)
            - cache_answers(stats))


def cache_hit_ratio(stats) -> float:
    """The share of feasibility questions answered without solving.

    A question is either a :meth:`Solver.check` call (``checks``) or a
    branch check a state's frame model answered before any call
    (``frame_reuse``); the ratio is :func:`cache_answers` over their
    sum, so its numerator counts only questions its denominator counts.
    0.0 when no question was asked."""
    asked = (stats.get("checks") or 0) + (stats.get("frame_reuse") or 0)
    return cache_answers(stats) / asked if asked else 0.0


class SolverStats:
    """Counters for the throughput/ablation benchmarks.

    Stats are *cumulative over the solver's lifetime*; callers that need
    per-run numbers (e.g. one ``Engine.explore``) must snapshot with
    :meth:`as_dict` at the start and diff with :meth:`delta_since`.

    Accounting contract (pinned by ``tests/obs/test_profile.py``):
    ``checks`` counts every :meth:`Solver.check` call; the ``cache_*``
    and ``frame_reuse`` counters partition the calls the query-cache
    layer answered, and those calls add nothing to ``solve_time``,
    the ``solver`` profiler phase, the ``solver.check_ms`` histogram or
    the ``solver_check`` event count — cached hits never inflate the
    solver's measured work.
    """

    def __init__(self):
        self.checks = 0
        self.interval_unsat = 0
        self.sat_calls = 0
        self.sat_results = 0
        self.unsat_results = 0
        self.solve_time = 0.0
        # Query-cache layer (repro.smt.cache).
        self.cache_hit_sat = 0          # exact key hit, SAT + memoized model
        self.cache_hit_unsat = 0        # exact key hit, UNSAT
        self.cache_model_reuse = 0      # cached model satisfied a new query
        self.cache_subsumed_unsat = 0   # superset of a known-unsat set
        self.cache_misses = 0           # probed the cache, had to solve
        # Engine-side incremental reuse: a state's cached frame model
        # answered a branch feasibility check without a solver call
        # (Solver.note_frame_reuse, driven by repro.core.executor).
        self.frame_reuse = 0

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)

    def delta_since(self, before: Dict[str, float]) -> Dict[str, float]:
        """Stats accumulated since an earlier :meth:`as_dict` snapshot."""
        return {key: value - before.get(key, 0)
                for key, value in self.__dict__.items()}

    def __repr__(self):
        return "SolverStats(%s)" % ", ".join(
            "%s=%s" % item for item in sorted(self.__dict__.items()))


class Solver:
    """Incremental QF_BV solver (assert / push / pop / check / model)."""

    def __init__(self, use_intervals: bool = True,
                 use_query_cache: bool = True):
        self.use_intervals = use_intervals
        self._blaster = BitBlaster(SatSolver())
        self._frames: List[List[T.Term]] = [[]]
        self._last_model: Optional[Dict[str, int]] = None
        self.query_cache = QueryCache() if use_query_cache else None
        self.stats = SolverStats()
        # Observability (attached by the engine; see repro.obs).
        from ..obs.metrics import NULL_HISTOGRAM
        from ..obs.profile import PhaseProfiler
        self._obs_tracer = None
        self._obs_profiler = PhaseProfiler(enabled=False)
        self._check_hist = NULL_HISTOGRAM

    def attach_obs(self, obs) -> None:
        """Wire an :class:`repro.obs.Obs` handle into this solver.

        Adds a ``solver`` profiler phase around every *solved* query, a
        ``solver.check_ms`` latency histogram, and (when the tracer has a
        sink) one ``solver_check`` event per solved query, attributed to
        the engine's current state/pc context.  A query-cache answer or
        frame reuse emits one ``solver_cache`` event instead and skips
        the phase, the histogram and the ``solver_check`` event, so
        cached hits never inflate measured solver work.  Every count
        stays in :attr:`stats`; readers (telemetry, health, cost
        attribution) take it from there.
        """
        self._obs_tracer = obs.tracer
        self._obs_profiler = obs.profiler
        self._check_hist = obs.metrics.histogram("solver.check_ms")

    # -- assertion management -------------------------------------------------

    def add(self, term: T.Term) -> None:
        """Assert a boolean term in the current frame."""
        if term.width != 1:
            raise T.WidthError(
                "assertions must be boolean (width 1), got width %d" % term.width)
        self._frames[-1].append(term)

    def push(self) -> None:
        self._frames.append([])

    def pop(self) -> None:
        if len(self._frames) == 1:
            raise T.SmtError("cannot pop the outermost frame")
        self._frames.pop()

    def assertions(self) -> List[T.Term]:
        return [term for frame in self._frames for term in frame]

    # -- solving ----------------------------------------------------------------

    def check(self, extra: Iterable[T.Term] = ()) -> str:
        """Check satisfiability of the assertions plus ``extra`` terms."""
        self.stats.checks += 1
        extra = list(extra)
        for term in extra:
            if term.width != 1:
                raise T.WidthError("extra constraints must be boolean")
        conds = self.assertions() + extra
        key = None
        if self.query_cache is not None \
                and not any(T.is_false(term) for term in conds):
            live = [term for term in conds if not T.is_true(term)]
            key = T.query_key(live)
            cached = self._probe_cache(key, live)
            if cached is not None:
                return cached
            self.stats.cache_misses += 1
        # One clock reading per solved query: solve_time (which cost
        # attribution reads), the solver phase and the check_ms
        # histogram all get it.
        scope = self._obs_profiler.open("solver")
        start = time.perf_counter()
        try:
            result = self._check(conds)
        finally:
            elapsed = time.perf_counter() - start
            self.stats.solve_time += elapsed
            scope.close(elapsed)
        self._check_hist.observe(elapsed * 1000.0)
        if result == SAT:
            self.stats.sat_results += 1
        else:
            self.stats.unsat_results += 1
        if key is not None:
            self.query_cache.store(
                key, result, self._last_model if result == SAT else None)
        tracer = self._obs_tracer
        if tracer is not None and tracer.enabled:
            tracer.emit("solver_check", result=result,
                        ms=round(elapsed * 1000.0, 4))
        return result

    # -- query-cache layer -------------------------------------------------------

    def _probe_cache(self, key, conds: List[T.Term]) -> Optional[str]:
        """Layer 0: exact hit, unsat subsumption, then model reuse.

        Returns the cached verdict, or None when the query must be
        solved.  Answers here touch none of the solver-work telemetry
        (``solve_time`` / ``solver`` phase / ``solver.check_ms`` /
        ``solver_check`` events); they count under ``cache_*`` stats and
        emit one ``solver_cache`` event instead.
        """
        cache = self.query_cache
        entry = cache.lookup(key)
        if entry is not None:
            if entry.verdict == SAT:
                self.stats.cache_hit_sat += 1
                self._last_model = entry.model
            else:
                self.stats.cache_hit_unsat += 1
            self.stats.sat_results += entry.verdict == SAT
            self.stats.unsat_results += entry.verdict == UNSAT
            self._emit_cache_event("exact", entry.verdict)
            return entry.verdict
        if cache.subsumes_unsat(key):
            self.stats.cache_subsumed_unsat += 1
            self.stats.unsat_results += 1
            # Promote to an exact entry so the repeat is an O(1) hit.
            cache.store(key, UNSAT)
            self._emit_cache_event("subsume", UNSAT)
            return UNSAT
        for model, memo in cache.recent_models():
            if T.all_true(conds, model, memo):
                self.stats.cache_model_reuse += 1
                self.stats.sat_results += 1
                self._last_model = model
                cache.store(key, SAT, model)
                self._emit_cache_event("model", SAT)
                return SAT
        return None

    def _emit_cache_event(self, layer: str, result: str) -> None:
        tracer = self._obs_tracer
        if tracer is not None and tracer.enabled:
            tracer.emit("solver_cache", layer=layer, result=result)

    def note_frame_reuse(self) -> None:
        """Record one engine-side incremental reuse: a per-path cached
        frame model answered a branch feasibility query, so no solver
        call was made at all (see ``Engine._frame_probe``)."""
        self.stats.frame_reuse += 1
        self._emit_cache_event("frame", SAT)

    # -- solving layers 1..2 ------------------------------------------------------

    def _check(self, conds: List[T.Term]) -> str:
        if any(T.is_false(term) for term in conds):
            return UNSAT
        conds = [term for term in conds if not T.is_true(term)]
        if not conds:
            self._last_model = {}
            return SAT
        if self.use_intervals and refute_conjunction(conds):
            self.stats.interval_unsat += 1
            return UNSAT
        self.stats.sat_calls += 1
        assumptions = [self._blaster.literal_for(term) for term in conds]
        if self._blaster.sat.solve(assumptions) == UNSAT:
            return UNSAT
        model = self._blaster.extract_model(self._blaster.sat.model())
        self._last_model = model
        # Internal consistency check: the model must actually satisfy the
        # query (catches bit-blaster bugs immediately).
        if not T.all_true(conds, model):
            raise T.SmtError("solver produced a model that does not satisfy "
                             "the query; this is a bug in the bit-blaster")
        return SAT

    def model(self) -> Dict[str, int]:
        """The model of the last SAT answer (var name -> unsigned int)."""
        if self._last_model is None:
            raise T.SmtError("no model available; call check() first")
        return dict(self._last_model)
