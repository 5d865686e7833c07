"""Path-exploration strategies (the frontier data structure).

The engine asks the strategy which pending state to continue next.  Four
strategies back Figure 1: depth-first, breadth-first, uniform-random, and
coverage-guided (prefer states sitting at less-visited program counters).
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from typing import Dict, Optional

from .state import SymState

__all__ = ["Strategy", "DfsStrategy", "BfsStrategy", "RandomStrategy",
           "CoverageStrategy", "ObservedStrategy", "make_strategy",
           "STRATEGIES"]


class Strategy:
    """Frontier interface: push pending states, pop the next to run."""

    name = "abstract"

    def push(self, state: SymState) -> None:
        raise NotImplementedError

    def pop(self) -> SymState:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def states(self):
        """Iterate the pending states (read-only, arbitrary order).

        Used by the health monitor's top-k heaviest-states view; must
        not mutate the frontier.  Default: nothing to show.
        """
        return iter(())

    def __bool__(self) -> bool:
        return len(self) > 0


class DfsStrategy(Strategy):
    """Depth-first: follow one path to completion before backtracking."""

    name = "dfs"

    def __init__(self):
        self._stack = []

    def push(self, state: SymState) -> None:
        self._stack.append(state)

    def pop(self) -> SymState:
        return self._stack.pop()

    def states(self):
        return iter(self._stack)

    def __len__(self):
        return len(self._stack)

    def __bool__(self):
        return bool(self._stack)


class BfsStrategy(Strategy):
    """Breadth-first: advance all paths in lockstep."""

    name = "bfs"

    def __init__(self):
        self._queue = deque()

    def push(self, state: SymState) -> None:
        self._queue.append(state)

    def pop(self) -> SymState:
        return self._queue.popleft()

    def states(self):
        return iter(self._queue)

    def __len__(self):
        return len(self._queue)


class RandomStrategy(Strategy):
    """Uniform-random frontier selection (seeded for reproducibility)."""

    name = "random"

    def __init__(self, seed: int = 0):
        self._items = []
        self._rng = random.Random(seed)

    def push(self, state: SymState) -> None:
        self._items.append(state)

    def pop(self) -> SymState:
        index = self._rng.randrange(len(self._items))
        self._items[index], self._items[-1] = (self._items[-1],
                                               self._items[index])
        return self._items.pop()

    def states(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


class CoverageStrategy(Strategy):
    """Prefer states whose program counter has been visited least.

    The engine bumps :meth:`visit` on every executed pc; a state's key is
    the visit count of the pc it is parked at, so the frontier drains
    toward unexplored code first.
    """

    name = "coverage"

    def __init__(self):
        self._heap = []
        self._visits: Dict[int, int] = {}
        self._tie = itertools.count()

    def visit(self, pc: int) -> None:
        self._visits[pc] = self._visits.get(pc, 0) + 1

    def push(self, state: SymState) -> None:
        key = self._visits.get(state.pc, 0)
        heapq.heappush(self._heap, (key, next(self._tie), state))

    def pop(self) -> SymState:
        return heapq.heappop(self._heap)[2]

    def states(self):
        return (entry[2] for entry in self._heap)

    def __len__(self):
        return len(self._heap)


class ObservedStrategy(Strategy):
    """Telemetry shim around any frontier (see :mod:`repro.obs`).

    Counts pushes/pops, tracks the high-water frontier size, and charges
    frontier operations to the ``strategy`` profiler phase.  The engine
    wraps its strategy with this when observability is enabled; the
    wrapped strategy is reachable as ``.inner`` (one level of wrapping
    only — the merging frontier sits *inside* so merges are observed
    too).
    """

    name = "observed"

    def __init__(self, inner: Strategy, obs):
        self.inner = inner
        self._profiler = obs.profiler
        self._profile_on = obs.profiler.enabled
        self._pushes = obs.metrics.counter("strategy.pushes")
        self._pops = obs.metrics.counter("strategy.pops")
        self._peak = obs.metrics.gauge("strategy.frontier_peak")

    def push(self, state: SymState) -> None:
        if self._profile_on:
            with self._profiler.phase("strategy"):
                self.inner.push(state)
        else:
            self.inner.push(state)
        self._pushes.inc()
        self._peak.set_max(len(self.inner))

    def pop(self) -> SymState:
        if self._profile_on:
            with self._profiler.phase("strategy"):
                state = self.inner.pop()
        else:
            state = self.inner.pop()
        self._pops.inc()
        return state

    def states(self):
        return self.inner.states()

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, name):
        # Transparent delegation (e.g. MergingFrontier.merges,
        # CoverageStrategy.visit) so callers can ignore the shim.
        return getattr(self.inner, name)


STRATEGIES = {
    "dfs": DfsStrategy,
    "bfs": BfsStrategy,
    "random": RandomStrategy,
    "coverage": CoverageStrategy,
}


def make_strategy(name: str, seed: int = 0) -> Strategy:
    """Construct a strategy by name ('dfs', 'bfs', 'random', 'coverage')."""
    if name not in STRATEGIES:
        raise ValueError("unknown strategy %r (have: %s)"
                         % (name, ", ".join(sorted(STRATEGIES))))
    if name == "random":
        return RandomStrategy(seed)
    return STRATEGIES[name]()
