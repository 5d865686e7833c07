"""Solver query-result cache: exact memoization + unsat subsumption.

Symbolic-execution workloads hammer the solver with *near-identical*
conjunctions: every branch feasibility check along a path shares the
whole path-condition prefix, a finished path's input query repeats the
last feasibility check verbatim, and checker queries re-ask the same
question at the same site on sibling paths.  The Survey of Symbolic
Execution Techniques (Baldoni et al.) names constraint caching the
standard lever — KLEE's counterexample cache — and this module is that
layer for :class:`repro.smt.solver.Solver`:

* **Exact cache** — every decided ``check()`` is stored under its
  canonical query key (:func:`repro.smt.terms.query_key`: the frozenset
  of per-conjunct structural digests, so conjunct order and duplication
  cannot split entries).  SAT entries memoize the model, so a repeat
  query returns both verdict *and* model without touching a solver
  layer.
* **Unsat subsumption** — a conjunction is unsat iff some subset of it
  is unsat.  Every UNSAT answer's key is kept in a bounded set; a new
  query that is a *superset* of any stored unsat set is unsat without
  solving.  (Without core extraction the stored set is the whole query —
  still sound, and supersets are exactly what path extension produces.)
* **Model reuse** — recent SAT models are replayed against new
  (typically superset) queries before any solving; a model that
  satisfies every conjunct proves SAT outright.  Each stored model
  carries a *persistent* evaluation memo (term id -> value under that
  model; term ids are never reused, so the memo can only be right), so
  replaying a model against a query that shares its path-condition
  prefix with earlier queries only evaluates the new conjuncts.

Everything here is *sound by construction*: exact hits replay a decided
verdict for a semantically identical query, subsumption only weakens
satisfiability, and model reuse proves SAT with an explicit witness.
Like KLEE's, the cache lives in one process: it starts empty with its
solver and is never saved, so an exploration's answers come only from
that exploration's own queries.
The differential harness (``tests/smt/test_cache_differential.py``)
checks the claim against a cache-free twin on randomized query streams.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from .sat import UNSAT

__all__ = ["CacheEntry", "QueryCache"]


class CacheEntry:
    """One decided query: verdict plus (for SAT) the witnessing model."""

    __slots__ = ("verdict", "model")

    def __init__(self, verdict: str, model: Optional[Dict[str, int]]):
        self.verdict = verdict
        self.model = model

    def __repr__(self):
        return "<CacheEntry %s%s>" % (
            self.verdict, "" if self.model is None else " +model")


class QueryCache:
    """Bounded LRU of decided queries plus a bounded unsat-set index.

    ``max_entries`` bounds the exact cache, ``max_unsat_sets`` the
    subsumption index (scanned linearly per miss, so it stays small),
    and ``model_probe`` caps how many recent SAT models the solver
    replays per query.
    """

    def __init__(self, max_entries: int = 2048, max_unsat_sets: int = 64,
                 model_probe: int = 4):
        self.max_entries = max_entries
        self.max_unsat_sets = max_unsat_sets
        self.model_probe = model_probe
        self._entries: "OrderedDict[FrozenSet[bytes], CacheEntry]" = \
            OrderedDict()
        self._unsat_sets: "OrderedDict[FrozenSet[bytes], None]" = \
            OrderedDict()
        # Recent SAT models, newest last (bounded by model_probe).
        # Each entry pairs the model with its persistent evaluation
        # memo (term id -> value); the memo rides along so replays
        # against queries sharing a prefix stay incremental.
        self._models: "OrderedDict[tuple, Tuple[Dict[str, int], Dict[int, int]]]" = \
            OrderedDict()
        # The all-zero assignment is a candidate for every query (it
        # satisfies a surprising share of path conditions); it gets a
        # persistent memo of its own.
        self.zero_memo: Dict[int, int] = {}
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup --------------------------------------------------------------

    def lookup(self, key: FrozenSet[bytes]) -> Optional[CacheEntry]:
        """Exact hit (LRU-refreshing) or None."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def subsumes_unsat(self, key: FrozenSet[bytes]) -> bool:
        """True iff some stored unsat conjunction is a subset of ``key``.

        Any superset of an unsat set is unsat: adding conjuncts only
        strengthens a conjunction.
        """
        size = len(key)
        for unsat_key in self._unsat_sets:
            if len(unsat_key) <= size and unsat_key <= key:
                return True
        return False

    def recent_models(self) -> Iterator[Tuple[Dict[str, int], Dict[int, int]]]:
        """Candidate ``(model, memo)`` pairs for model reuse.

        Yields the all-zero assignment first, then the most recent SAT
        models newest-first (≤ ``model_probe``).  The memo is the
        model's persistent evaluation cache; callers pass it straight
        to ``terms.all_true`` so it keeps accumulating.
        """
        yield {}, self.zero_memo
        for pair in reversed(self._models.values()):
            yield pair

    # -- insertion -----------------------------------------------------------

    def store(self, key: FrozenSet[bytes], verdict: str,
              model: Optional[Dict[str, int]] = None) -> None:
        """Record a decided query (idempotent; refreshes recency)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            entry = self._entries[key]
        else:
            entry = self._entries[key] = CacheEntry(verdict, model)
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        if verdict == UNSAT:
            self._remember_unsat(key)
        elif model is not None:
            entry.model = model
            self._remember_model(model)

    def _remember_unsat(self, key: FrozenSet[bytes]) -> None:
        if key in self._unsat_sets:
            self._unsat_sets.move_to_end(key)
            return
        # Drop stored sets subsumed by the newcomer: if ``key`` is a
        # subset of an existing set, the existing set is redundant.
        stale = [stored for stored in self._unsat_sets
                 if key < stored]
        for stored in stale:
            del self._unsat_sets[stored]
        self._unsat_sets[key] = None
        if len(self._unsat_sets) > self.max_unsat_sets:
            self._unsat_sets.popitem(last=False)

    def _remember_model(self, model: Dict[str, int]) -> None:
        if not model:
            return  # the zero assignment is always a candidate already
        fingerprint = tuple(sorted(model.items()))
        if fingerprint in self._models:
            # Refresh recency, keep the accumulated memo.
            self._models.move_to_end(fingerprint)
            return
        self._models[fingerprint] = (model, {})
        if len(self._models) > self.model_probe:
            self._models.popitem(last=False)

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        self._entries.clear()
        self._unsat_sets.clear()
        self._models.clear()
        self.zero_memo.clear()

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries),
                "unsat_sets": len(self._unsat_sets),
                "models": len(self._models),
                "evictions": self.evictions}

    def __repr__(self):
        return "<QueryCache %d entries, %d unsat sets>" % (
            len(self._entries), len(self._unsat_sets))
