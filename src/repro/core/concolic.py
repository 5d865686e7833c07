"""Concolic (concrete-seeded) execution on top of the symbolic engine.

Generational search in the SAGE style: run the path the seed input takes,
collect the not-taken branch condition at every fork, then solve each
"flip" (path prefix + negated branch) for a new input.  Each new input is
itself executed, until no unseen inputs remain or the budget runs out.

Reuses the engine's single-step machinery, so the ISA-independence of the
generated engine carries over unchanged.

Sibling-flip queries are the solver query cache's best customer: every
flip shares the path prefix of its generation, and later generations
re-derive earlier flips verbatim (a sibling reached through a different
seed poses the exact same query).  With the engine's default
``use_solver_cache=True`` those re-derivations are exact cache hits and
prefix-related ones ride model reuse, so the per-generation solve cost
stays proportional to the *new* branches only.  The counters show up in
``self.result.solver_cache_line()`` like any exploration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..smt import SAT
from ..smt import terms as T
from .executor import Engine
from .reporting import ExplorationResult

__all__ = ["ConcolicExplorer", "ConcolicRun"]


class ConcolicRun:
    """Outcome of one concrete-path execution."""

    def __init__(self, input_bytes: bytes, status: str, steps: int):
        self.input_bytes = input_bytes
        self.status = status       # 'halted', 'trapped', 'depth-limit', ...
        self.steps = steps

    def __repr__(self):
        return "<ConcolicRun %r %s (%d steps)>" % (
            self.input_bytes, self.status, self.steps)


class ConcolicExplorer:
    """Generational concolic search driver over an :class:`Engine`."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.runs: List[ConcolicRun] = []
        self.result = ExplorationResult()
        self._seen_inputs: Set[bytes] = set()

    # -- public API ---------------------------------------------------------------

    def explore(self, seed: bytes = b"",
                max_runs: int = 64) -> ExplorationResult:
        """Run generational search from ``seed``; returns merged results."""
        engine = self.engine
        engine._result = self.result
        if engine.attr is not None:
            engine.attr.begin_run(self.result)
        engine._defect_sites = set()
        solver_before = engine.solver.stats.as_dict()
        try:
            queue: List[bytes] = [seed]
            while queue and len(self.runs) < max_runs:
                input_bytes = queue.pop(0)
                if input_bytes in self._seen_inputs:
                    continue
                self._seen_inputs.add(input_bytes)
                flips = self._run_one(input_bytes)
                for flip_input in flips:
                    if flip_input not in self._seen_inputs:
                        queue.append(flip_input)
        finally:
            engine._result = None
        # Per-exploration delta (not lifetime-cumulative; see the same
        # fix in Engine.explore).
        self.result.solver_stats = self.engine.solver.stats.delta_since(
            solver_before)
        return self.result

    # -- one concrete path --------------------------------------------------------

    def _input_model(self, input_bytes: bytes) -> Dict[str, int]:
        return {"in_%d" % i: byte for i, byte in enumerate(input_bytes)}

    def _run_one(self, input_bytes: bytes) -> List[bytes]:
        """Follow the path of ``input_bytes``; return flipped inputs."""
        engine = self.engine
        model = self._input_model(input_bytes)
        state = engine.initial_state()
        flips: List[bytes] = []
        status = "running"
        while state.steps < engine.config.max_steps_per_path:
            before_paths = len(self.result.paths)
            before_defects = len(self.result.defects)
            successors = engine._step(state, self.result)
            if not successors:
                if len(self.result.defects) > before_defects:
                    status = "trapped"
                elif len(self.result.paths) > before_paths:
                    status = self.result.paths[-1].status
                else:
                    status = "dead"
                break
            state = self._follow(successors, model, flips)
            if state is None:
                status = "diverged"
                break
        else:
            status = "depth-limit"
        run = ConcolicRun(input_bytes, status, 0 if state is None
                          else state.steps)
        self.runs.append(run)
        return flips

    def _follow(self, successors, model, flips):
        """Pick the successor consistent with the concrete input; queue
        solver-flipped inputs for every sibling."""
        chosen = None
        for candidate in successors:
            holds = all(T.evaluate(cond, model) == 1
                        for cond in candidate.path_condition)
            if holds and chosen is None:
                chosen = candidate
            else:
                flipped = self._solve_sibling(candidate)
                if flipped is not None:
                    flips.append(flipped)
        return chosen

    def _solve_sibling(self, state) -> Optional[bytes]:
        # Rides the solver's query cache: generations re-pose sibling
        # queries (same flip reached via different seeds) as exact
        # repeats, and shared path prefixes feed the model-reuse layer.
        if self.engine.solver.check(extra=state.path_condition) != SAT:
            return None
        return state.input_bytes_from_model(self.engine.solver.model())
