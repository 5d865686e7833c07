"""The retargetable symbolic execution engine.

This is the paper's contribution: a single engine that symbolically
executes *any* ADL-described ISA by running each rule's semantics, compiled
from the generated IR (:mod:`repro.compile`), over values that are plain
ints while concrete and solver terms once symbolic.  Nothing in this module
is ISA-specific — the ISA enters only through the
:class:`~repro.isa.model.ArchModel` passed to :class:`Engine`.

Execution model
---------------
* Each instruction runs its rule's compiled *plan*: statement tuples
  walked by the one plan driver (:func:`repro.compile.driver.drive`, the
  walk translation validation proves), whose expression slots are
  generated functions over the operator library :mod:`repro.compile.ops`
  (masked int arithmetic on concrete operands, the ``T`` constructors
  once one is symbolic).  A rule is compiled the first time it
  executes.
  The engine is the driver's machine: it answers each fork arm's
  feasibility (solver and frame model), loads, stores and register-index
  concretization; solver-query order lives in this module.
* Fetch goes through a per-pc site cache of decoded instructions, valid
  while a state has not written the instruction's image bytes.
* The program counter is concrete; conditional branches (IR ``IfStmt`` with
  a symbolic condition) fork the state, indirect jumps (symbolic ``SetPc``)
  are concretized by solver enumeration (up to ``max_fork_targets``).
* Expression-level ``ite`` does not fork; both arms are evaluated and the
  engine tracks the arm guards so checker queries (e.g. division-by-zero)
  are asked *under* the guard — a guarded ``(d == 0) ? safe : x/d`` is not
  a defect.
* Memory addresses are concretized with a bounded-window policy: small
  ranges become ite-chains over every in-range byte, larger ones are
  solver-enumerated and the path constrained to the found values (the
  standard angr-style compromise; enumeration shortfalls are counted in
  the stats, never silent).

Checkers (enabled via :class:`EngineConfig`): division by zero, unmapped
(out-of-bounds) access, write to read-only regions, uninitialized reads in
tracked regions, reachable traps, undecodable instructions.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..compile.driver import Outcome, PathEnd, drive
from ..compile.ops import Value, lift, norm
from ..isa.decoder import DecodeError
from ..obs import Obs
from ..smt import SAT, Solver
from ..smt import terms as T
from . import reporting as R
from .memory import MemoryMap, Region, SymMemory
from .state import SymState
from .strategy import (CoverageStrategy, ObservedStrategy, Strategy,
                       make_strategy)

__all__ = ["Engine", "EngineConfig", "EngineError"]

#: A symbolic address whose interval spans at most this many bytes
#: becomes an ite-chain over every mapped byte in it; a wider one is
#: solver-enumerated (see :meth:`Engine._resolve_address`).
SYMBOLIC_READ_WINDOW = 32
#: How many feasible values a wide symbolic address is enumerated to.
MAX_ADDRESS_VALUES = 4


class EngineError(Exception):
    """Engine misuse or an internal invariant violation."""


class EngineConfig:
    """Tunables for exploration, concretization and checking."""

    def __init__(self,
                 max_steps_per_path: int = 4096,
                 max_states: int = 4096,
                 max_paths: Optional[int] = None,
                 max_defects: Optional[int] = None,
                 max_instructions: Optional[int] = None,
                 max_wall_seconds: Optional[float] = None,
                 max_fork_targets: int = 4,
                 max_visits_per_pc: Optional[int] = None,
                 check_div_zero: bool = True,
                 check_oob: bool = True,
                 check_uninit: bool = False,
                 check_write_protect: bool = True,
                 check_tainted_control: bool = False,
                 merge_states: bool = False,
                 dedup_defects: bool = True,
                 collect_path_inputs: bool = True,
                 collect_coverage: bool = False,
                 cow_memory: bool = True,
                 use_solver_cache: bool = True,
                 obs: Optional[Obs] = None,
                 health: Optional[object] = None,
                 attr: bool = False):
        self.max_steps_per_path = max_steps_per_path
        self.max_states = max_states
        self.max_paths = max_paths
        self.max_defects = max_defects
        self.max_instructions = max_instructions
        # Wall-clock deadline for the whole exploration (CLI
        # --max-seconds): checked in _limit_hit between steps, stops
        # with the honest 'deadline' stop reason so unattended/CI runs
        # cannot hang.  None = no deadline.
        self.max_wall_seconds = max_wall_seconds
        self.max_fork_targets = max_fork_targets
        # Loop bound: a single path revisiting one pc more than this many
        # times is pruned (recorded as a 'loop-limit' path). None = off.
        self.max_visits_per_pc = max_visits_per_pc
        self.check_div_zero = check_div_zero
        self.check_oob = check_oob
        self.check_uninit = check_uninit
        self.check_write_protect = check_write_protect
        # Report indirect control transfers whose target depends on
        # program input (the classic "attacker controls pc" detector).
        self.check_tainted_control = check_tainted_control
        # Opportunistic state merging at common pcs (veritesting-lite;
        # see repro.core.merge). Collapses diamond-shaped path explosion
        # into ite-terms at the cost of bigger solver queries.
        self.merge_states = merge_states
        self.dedup_defects = dedup_defects
        self.collect_path_inputs = collect_path_inputs
        self.collect_coverage = collect_coverage
        self.cow_memory = cow_memory
        # Solver caching/reuse layer (Table 5 ablation; CLI
        # --no-solver-cache).  Governs both the solver's query-result
        # cache (repro.smt.cache) and the engine's per-state frame-model
        # reuse for branch feasibility checks (_branch_feasible).
        self.use_solver_cache = use_solver_cache
        # Observability handle (repro.obs).  None means "engine default":
        # enabled counters, no event sink, no profiler — negligible
        # overhead.  Pass Obs.disabled() for a zero-telemetry baseline,
        # or an Obs with sinks/profiling for full tracing.
        self.obs = obs
        # Live health monitor (repro.obs.health).  None = off.  Pass a
        # HealthConfig to attach the periodic sampler + stall/pressure
        # watchdog to the exploration loop.  Observe-only.
        self.health = health
        # Cost attribution (repro.obs.attr).  True charges each step's
        # eval time, and the change in the solver, fork and term-pool
        # counts since the last step, to individual ADL rules and branch
        # sites (CLI --attr; repro hot).  Observe-only.
        self.attr = attr

    # Every field that shapes the exploration *outcome* — the run-store
    # key material (repro.runstore).  ``obs``, ``health`` and ``attr``
    # are deliberately absent: observability must never change what a
    # run computes, and serializing live handles makes no sense.
    _SERIALIZED_FIELDS = (
        "max_steps_per_path", "max_states", "max_paths", "max_defects",
        "max_instructions", "max_wall_seconds", "max_fork_targets",
        "max_visits_per_pc", "check_div_zero", "check_oob",
        "check_uninit",
        "check_write_protect", "check_tainted_control", "merge_states",
        "dedup_defects", "collect_path_inputs", "collect_coverage",
        "cow_memory", "use_solver_cache")

    def to_dict(self) -> Dict[str, object]:
        """JSON-able snapshot of every outcome-shaping field."""
        return {name: getattr(self, name)
                for name in self._SERIALIZED_FIELDS}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EngineConfig":
        """Rebuild a config from :meth:`to_dict` output.  Unknown keys
        are ignored, so a payload from older or newer code, which may
        carry other fields, still loads."""
        known = {key: value for key, value in payload.items()
                 if key in cls._SERIALIZED_FIELDS}
        return cls(**known)


class Engine:
    """Symbolic executor over a generated :class:`ArchModel`."""

    def __init__(self, model, config: Optional[EngineConfig] = None,
                 solver: Optional[Solver] = None, strategy: str = "dfs",
                 seed: int = 0):
        self.model = model
        self.config = config if config is not None else EngineConfig()
        self.solver = solver if solver is not None else Solver(
            use_query_cache=self.config.use_solver_cache)
        # Engine-side incremental check reuse rides the same ablation
        # switch as the solver's query cache (see _branch_feasible).
        self._frame_reuse = self.config.use_solver_cache
        # -- observability wiring (see repro.obs) --------------------------
        self.obs = (self.config.obs if self.config.obs is not None
                    else Obs.default())
        self.obs.set_isa(model.name)
        self.solver.attach_obs(self.obs)
        model.decoder.attach_obs(self.obs)
        self._tracer = self.obs.tracer
        self._profiler = self.obs.profiler
        self._profile_on = self.obs.profiler.enabled
        # Cost attribution (repro.obs.attr): charges eval time and
        # counter deltas to rules and branch sites.  Observe-only, like
        # the profiler.
        self.attr = None
        if self.config.attr:
            from ..obs.attr import CostAttribution
            self.attr = CostAttribution(model, self.solver.stats)
        # Steps read the clock only when the profiler or attribution
        # will charge the reading (_timed_exec).
        self._time_steps = self._profile_on or self.attr is not None
        self._c_decode_hit = self.obs.metrics.counter("decode.cache_hit")
        self.strategy: Strategy = make_strategy(strategy, seed)
        self._coverage_feedback = (self.strategy
                                   if isinstance(self.strategy,
                                                 CoverageStrategy) else None)
        if self.config.merge_states:
            from .merge import MergingFrontier
            self.strategy = MergingFrontier(self.strategy, obs=self.obs)
        # The strategy shim pays a few calls per push/pop; only mount it
        # when a layer that needs it is active (profiling or tracing —
        # sinks must be attached before the engine is constructed).
        if self.obs.profiler.enabled or self.obs.tracer.enabled:
            self.strategy = ObservedStrategy(self.strategy, self.obs)
        # Live health monitor (sampler + watchdog; repro.obs.health).
        self.health = None
        if self.config.health is not None:
            from ..obs.health import HealthMonitor
            self.health = HealthMonitor(self.config.health, self.obs)
        self._explore_start = 0.0
        self.memory_map = MemoryMap()
        self._base_memory = SymMemory(self.memory_map,
                                      cow=self.config.cow_memory)
        # Address hooks ("SimProcedure"-style): pc -> callable(engine,
        # state) -> Optional[list[SymState]].  See Engine.hook().
        self._hooks: Dict[int, object] = {}
        # User-registered checkers, called before each instruction.
        self._checkers: List[object] = []
        self._entry: Optional[int] = None
        self._result: Optional[R.ExplorationResult] = None
        self._defect_sites: set = set()
        self._endian = model.endian
        self._pc_mask = T.mask(model.pc_width)
        # The rules' compiled plans (repro.compile), shared per (isa,
        # spec digest) and generated rule by rule on first execution, so
        # construction compiles nothing.  compiled_for is looked up in
        # repro.compile at call time.
        from ..compile import compiled_for
        self._compiled = compiled_for(model)
        # Fetch site cache: pc -> (Decoded, SymMemory.image_site token).
        # Sound because decoding is shortest-first, so the result depends
        # only on the instruction's own bytes; a site is reused only by a
        # state that still reads those image bytes unchanged.
        self._sites: Dict[int, tuple] = {}

    # -- setup -------------------------------------------------------------------

    def load_image(self, image, writable: bool = True) -> None:
        """Map an assembled image and take its entry point."""
        self._base_memory.load_image(image.base, bytes(image.data),
                                     name="image", writable=writable)
        self._entry = image.entry
        self._sites.clear()         # the image may overlay cached sites

    def add_region(self, start: int, size: int, name: str = "region",
                   writable: bool = True, track_uninit: bool = False) -> Region:
        """Declare additional valid memory (stack, heap, MMIO buffers)."""
        return self.memory_map.add(
            Region(start, size, name, writable, track_uninit))

    def hook(self, address: int, handler) -> None:
        """Replace execution at ``address`` with a Python handler.

        ``handler(engine, state)`` runs instead of the instruction there
        (the angr "SimProcedure" idea: model library calls, summarize
        functions, inject faults).  It may mutate ``state`` and must
        return the list of successor states (returning ``[state]`` to
        continue it, after advancing ``state.pc`` itself), or ``None`` as
        shorthand for "advance past this instruction and continue".
        """
        self._hooks[address] = handler

    def unhook(self, address: int) -> None:
        self._hooks.pop(address, None)

    def add_checker(self, checker) -> None:
        """Register ``checker(engine, state, decoded)`` to run before each
        instruction.  Use :meth:`report` inside it to file defects."""
        self._checkers.append(checker)

    def report(self, state: SymState, kind: str, message: str,
               decoded=None) -> None:
        """File a defect from a hook or custom checker."""
        self._report(state, kind, decoded, message)

    def initial_state(self) -> SymState:
        if self._entry is None:
            raise EngineError("no image loaded; call load_image() first")
        state = SymState(self.model, self._base_memory.fork())
        state.pc = self._entry
        return state

    # -- exploration --------------------------------------------------------------

    def explore(self, state: Optional[SymState] = None) -> R.ExplorationResult:
        """Run exploration to exhaustion or a configured limit.

        Solver stats and telemetry counters attached to the result are
        *per-exploration deltas*: exploring twice on one engine reports
        each run's own numbers, not cumulative ones.
        """
        result = R.ExplorationResult()
        self._result = result
        if self.attr is not None:
            self.attr.begin_run(result)
        self._defect_sites = set()
        solver_before = self.solver.stats.as_dict()
        counters_before = self.obs.metrics.counters_snapshot()
        start_time = time.perf_counter()
        self._explore_start = start_time
        monitor = self.health
        if monitor is not None:
            monitor.begin(self, result)
        self.strategy.push(state if state is not None else
                           self.initial_state())
        try:
            while self.strategy:
                if self._limit_hit(result):
                    break
                if monitor is not None:
                    monitor.tick()
                current = self.strategy.pop()
                for successor in self._step(current, result):
                    if len(self.strategy) >= self.config.max_states:
                        result.states_pruned += 1
                        self._dead_end(successor, "max-states")
                        continue
                    self.strategy.push(successor)
        finally:
            result.wall_time = time.perf_counter() - start_time
            result.solver_stats = self.solver.stats.delta_since(
                solver_before)
            telemetry = self.obs.snapshot(counters_since=counters_before)
            if monitor is not None:
                telemetry["health"] = monitor.finish()
            if self.attr is not None:
                telemetry["attr"] = self.attr.snapshot()
            result.telemetry = telemetry
            self._result = None
        return result

    def _limit_hit(self, result: R.ExplorationResult) -> bool:
        cfg = self.config
        if cfg.max_paths is not None and len(result.paths) >= cfg.max_paths:
            result.stop_reason = "max-paths"
            return True
        if (cfg.max_defects is not None
                and len(result.defects) >= cfg.max_defects):
            result.stop_reason = "max-defects"
            return True
        if (cfg.max_instructions is not None
                and result.instructions_executed >= cfg.max_instructions):
            result.stop_reason = "max-instructions"
            return True
        if (cfg.max_wall_seconds is not None
                and time.perf_counter() - self._explore_start
                >= cfg.max_wall_seconds):
            result.stop_reason = "deadline"
            return True
        return False

    # -- single step -----------------------------------------------------------------

    def _step(self, state: SymState,
              result: R.ExplorationResult) -> List[SymState]:
        """Execute one instruction of ``state``; returns live successors."""
        tracer = self._tracer
        if tracer.enabled:
            tracer.set_context(state.state_id, state.pc)
        if self._coverage_feedback is not None:
            self._coverage_feedback.visit(state.pc)
        if self.config.collect_coverage:
            result.visited_pcs.add(state.pc)
        if self.config.max_visits_per_pc is not None:
            visits = state.visit_counts.get(state.pc, 0) + 1
            if visits > self.config.max_visits_per_pc:
                self._end_path(state, "loop-limit", result)
                result.states_pruned += 1
                return []
            state.visit_counts[state.pc] = visits
        hook = self._hooks.get(state.pc)
        if hook is not None:
            result.instructions_executed += 1
            successors = hook(self, state)
            if successors is None:
                try:
                    decoded = self._fetch(state)
                except PathEnd as dead:
                    self._dead_end(state, dead.reason)
                    return []
                state.pc = (state.pc + decoded.length) & self._pc_mask
                return [state]
            return list(successors)
        try:
            decoded = self._fetch(state)
        except PathEnd as dead:
            self._dead_end(state, dead.reason)
            return []
        for checker in self._checkers:
            checker(self, state, decoded)
        result.instructions_executed += 1
        cond_base = len(state.path_condition)
        if tracer.enabled:
            tracer.emit("step", state_id=state.state_id, pc=state.pc,
                        instr=decoded.instruction.name)
        try:
            if self._time_steps:
                finished = self._timed_exec(state, decoded)
            else:
                finished = self._exec_block(state, decoded)
        except PathEnd as dead:
            self._dead_end(state, dead.reason)
            return []
        successors: List[SymState] = []
        for sub_state, outcome in finished:
            sub_state.steps += 1
            if outcome.trapped:
                self._report(sub_state, R.TRAP, decoded,
                             "trap instruction reached")
                self._dead_end(sub_state, "trap")
                continue
            if outcome.halted:
                self._finish_path(sub_state, outcome, result)
                continue
            if sub_state.steps >= self.config.max_steps_per_path:
                self._end_path(sub_state, "depth-limit", result)
                continue
            target = outcome.next_pc
            if target is None:
                sub_state.pc = (sub_state.pc + decoded.length) \
                    & self._pc_mask
                successors.append(sub_state)
            elif type(target) is int:
                sub_state.pc = target
                successors.append(sub_state)
            else:
                successors.extend(
                    self._indirect_jump(sub_state, target, decoded, result))
        if len(finished) > 1:
            result.states_forked += len(finished) - 1
            if tracer.enabled:
                tracer.emit("fork", state_id=state.state_id, pc=state.pc,
                            children=[sub.state_id
                                      for sub, _ in finished],
                            conds=[self._edge_cond(sub, cond_base)
                                   for sub, _ in finished])
        return successors

    #: Rendered branch-condition summaries on fork events are truncated
    #: to this many characters (flight-recorder edge labels, not proofs).
    COND_SUMMARY_LIMIT = 96

    def _edge_cond(self, state: SymState, base_len: int) -> str:
        """Short rendering of the path conditions ``state`` gained during
        the current instruction — the per-edge branch-condition summary
        carried by ``fork`` events for the flight recorder."""
        extra = state.path_condition[base_len:]
        if not extra:
            return ""
        text = " && ".join(T.render(cond, max_depth=4) for cond in extra)
        if len(text) > self.COND_SUMMARY_LIMIT:
            text = text[:self.COND_SUMMARY_LIMIT - 3] + "..."
        return text

    def _dead_end(self, state: SymState, reason: str) -> None:
        """A state died without finishing a path (defect kill, dead end).

        Emits a ``prune`` event so the flight recorder can close the
        node instead of leaving it dangling as live.  Carries the fork
        parent when known: a fork arm that dies inside the plan driver
        never appears in a ``fork`` event (only survivors do), so this
        is the recorder's only chance to attach it to the tree."""
        if self._tracer.enabled:
            data = {"reason": reason}
            if state.parent_id is not None:
                data["parent"] = state.parent_id
            self._tracer.emit("prune", state_id=state.state_id,
                              pc=state.pc, **data)

    def _fetch(self, state: SymState):
        if self._profile_on:
            with self._profiler.phase("decode"):
                decoded, hit = self._fetch_inner(state)
        else:
            decoded, hit = self._fetch_inner(state)
        if self._tracer.enabled:
            self._tracer.emit("decode_cache", state_id=state.state_id,
                              pc=state.pc, hit=hit,
                              instr=decoded.instruction.name)
        return decoded

    def _fetch_inner(self, state: SymState):
        """``(decoded, cache hit)``: a site hit, else read and decode
        the bytes (the decoder's own cache may still hit)."""
        pc = state.pc
        memory = state.memory
        site = self._sites.get(pc)
        if site is not None and memory.holds_site(site[1]):
            self._c_decode_hit.inc()
            return site[0], True
        decoder = self.model.decoder
        check_oob = self.config.check_oob
        if check_oob and not self.memory_map.is_mapped(pc):
            self._unmapped_fetch(state, pc)
        window = memory.concrete_window(pc, decoder.max_length)
        if window is None:
            self._report(state, R.INVALID_INSTRUCTION, None,
                         "symbolic bytes in instruction stream")
            raise PathEnd("symbolic-code")
        try:
            decoded = decoder.decode_bytes(window, pc)
        except DecodeError:
            self._report(state, R.INVALID_INSTRUCTION, None,
                         "undecodable instruction")
            raise PathEnd("decode-error")
        hit = decoder.last_cache_hit
        if check_oob:
            for addr in range(pc + 1, pc + decoded.length):
                if not self.memory_map.is_mapped(addr):
                    self._unmapped_fetch(state, addr)
        token = memory.image_site(pc, decoded.length)
        if token is not None:
            self._sites[pc] = (decoded, token)
        return decoded, hit

    def _unmapped_fetch(self, state: SymState, addr: int) -> None:
        self._report(state, R.OOB_ACCESS, None,
                     "instruction fetch from unmapped address %#x" % addr)
        raise PathEnd("oob-fetch")

    def _finish_path(self, state: SymState, outcome: Outcome,
                     result: R.ExplorationResult) -> None:
        exit_code = outcome.exit_code
        self._end_path(state, "halted", result,
                       exit_code if type(exit_code) is int else None)

    def _end_path(self, state: SymState, status: str,
                  result: R.ExplorationResult,
                  exit_code: Optional[int] = None) -> None:
        """Record one finished path (all PathResult creation funnels
        through here so the ``path_end`` event cannot drift from the
        result list — the acceptance invariant paths == path_end)."""
        result.paths.append(R.PathResult(
            status, state, self._path_input(state), exit_code))
        if self._tracer.enabled:
            data = {"status": status}
            if exit_code is not None:
                data["exit_code"] = exit_code
            self._tracer.emit("path_end", state_id=state.state_id,
                              pc=state.pc, **data)

    def _path_input(self, state: SymState) -> bytes:
        if not self.config.collect_path_inputs:
            return b""
        if not state.path_condition:
            return bytes(len(state.input_vars))
        if self.solver.check(extra=state.path_condition) != SAT:
            return b""
        return state.input_bytes_from_model(self.solver.model())

    def _indirect_jump(self, state: SymState, target: T.Term, decoded,
                       result: R.ExplorationResult) -> List[SymState]:
        """Successors of a jump to a symbolic target."""
        if self.config.check_tainted_control and any(
                name.startswith("in_") for name in T.variables(target)):
            self._report(state, R.TAINTED_CONTROL, decoded,
                         "jump target depends on program input")
        # Indirect jump with a symbolic target: enumerate feasible values.
        values = self._enumerate(state, target, (),
                                 self.config.max_fork_targets)
        if not values:
            return []
        successors = []
        cond_base = len(state.path_condition)
        for value in values:
            branch = state if len(values) == 1 else state.fork()
            branch.assume(T.eq(target, T.bv(value, target.width)))
            branch.pc = value
            successors.append(branch)
        if len(successors) > 1:
            result.states_forked += len(successors) - 1
            if self._tracer.enabled:
                self._tracer.emit("fork", state_id=state.state_id,
                                  pc=state.pc, indirect=True,
                                  children=[s.state_id
                                            for s in successors],
                                  conds=[self._edge_cond(s, cond_base)
                                         for s in successors])
        return successors

    # -- block execution: the rule's compiled plan -----------------------------------

    def _timed_exec(self, state: SymState,
                    decoded) -> List[Tuple[SymState, Outcome]]:
        """:meth:`_exec_block` under one clock reading, charged to both
        the profiler's ``eval`` phase and attribution's step (so their
        eval totals are equal by construction).  Attribution first sets
        the (rule, pc) context."""
        attr = self.attr
        if attr is not None:
            attr.begin_step(decoded.instruction.name, state.pc)
        scope = self._profiler.open("eval")
        start = time.perf_counter()
        try:
            return self._exec_block(state, decoded)
        finally:
            elapsed = time.perf_counter() - start
            scope.close(elapsed)
            if attr is not None:
                attr.end_step(elapsed)

    def _exec_block(self, state: SymState,
                    decoded) -> List[Tuple[SymState, Outcome]]:
        """Run one instruction's compiled plan; one ``(state,
        outcome)`` per survivor."""
        return drive(self, state, self._compiled.plan(decoded.instruction),
                     decoded.fields, decoded, Outcome())

    # -- the plan driver's fork policy -------------------------------------------

    def _feasible_arms(self, state: SymState, guards) -> list:
        """One verdict per fork arm: ``None`` when the arm's guard is
        infeasible, else the ``(model, memo)`` witness (model ``None``
        without frame reuse) that seeds the arm's frame."""
        verdicts = []
        for guard in guards:
            verdict, model, memo = self._branch_feasible(state, guard)
            verdicts.append((model, memo) if verdict == SAT else None)
        return verdicts

    def _enter_arm(self, state: SymState, witness) -> None:
        """Seed an arm's frame with the witness that proved it: it
        satisfies the extended path condition, so the arm's next branch
        check starts validated."""
        model, memo = witness
        if model is not None:
            state.frame_model = model
            state.frame_memo = memo if memo is not None else {}
            state.frame_checked = len(state.path_condition)

    def _branch_feasible(self, state: SymState, branch_cond: T.Term):
        """Feasibility of ``state.path_condition ∧ branch_cond``.

        Returns ``(verdict, model, memo)``: the witnessing model (and,
        when it came from the state's cached frame, the shared
        evaluation memo) on SAT, ``(verdict, None, None)`` otherwise.

        This is the incremental check-reuse fast path: each state keeps
        the last model known to satisfy its path condition plus a
        watermark of how many conjuncts that model has been validated
        against.  A branch check then only evaluates the *unvalidated
        suffix* and the branch condition under the cached model — no
        solver call, no re-blasting of the shared prefix.  Because a
        model is total (unassigned variables evaluate as 0), exactly one
        of ``c`` / ``¬c`` is true under it, so at most one sibling per
        fork falls through to the solver.  Sound by construction: the
        fast path only ever answers SAT, with an explicit witness.
        """
        if self._frame_reuse:
            model = state.frame_model
            if model is not None:
                memo = state.frame_memo
                path = state.path_condition
                if T.all_true(path[state.frame_checked:], model, memo):
                    state.frame_checked = len(path)
                    if T.all_true((branch_cond,), model, memo):
                        self.solver.note_frame_reuse()
                        return SAT, model, memo
                else:
                    # A newer conjunct falsified the cached model; drop
                    # the frame (replace, never mutate: forks share it).
                    state.frame_model = None
                    state.frame_memo = {}
                    state.frame_checked = 0
        verdict = self.solver.check(
            extra=state.path_condition + [branch_cond])
        if verdict != SAT:
            return verdict, None, None
        return SAT, (self.solver.model() if self._frame_reuse else None), None

    # -- checkers --------------------------------------------------------------------

    def _check_div(self, state: SymState, divisor: Value, guards,
                   decoded) -> None:
        if type(divisor) is int:
            if divisor:
                return
            cond = T.TRUE
        else:
            cond = T.eq(divisor, T.bv(0, divisor.width))
            if T.is_false(cond):
                return
        site = (R.DIV_BY_ZERO, state.pc)
        if self.config.dedup_defects and site in self._defect_sites:
            return
        # Architectural division guards are *inside* the instruction
        # semantics ("(d == 0) ? -1 : a/d" on RISC-V-style ISAs), and the
        # query looks through them (``guards`` is not asked): a software
        # division whose divisor can be zero is a defect even though the
        # hardware defines a result.  Software guards are branch
        # instructions, which land in the path condition and are always
        # respected.
        query = state.path_condition + [cond]
        if self.solver.check(extra=query) == SAT:
            self._report(state, R.DIV_BY_ZERO, decoded,
                         "divisor can be zero",
                         model=self.solver.model())

    def _check_mapped(self, state: SymState, addr: Value, guards,
                      decoded, writing: bool) -> bool:
        """OOB / write-protect checks; False ends the path."""
        if not self.config.check_oob:
            return True
        if type(addr) is int:
            region = self.memory_map.region_for(addr)
            if region is None:
                self._report(state, R.OOB_ACCESS, decoded,
                             "access to unmapped address %#x" % addr)
                return False
            if writing and not region.writable and \
                    self.config.check_write_protect:
                self._report(state, R.WRITE_TO_CODE, decoded,
                             "write to read-only region %r at %#x"
                             % (region.name, addr))
                return False
            return True
        inside = self.memory_map.membership_term(addr)
        outside = T.not_(inside)
        site = (R.OOB_ACCESS, state.pc)
        skip_report = self.config.dedup_defects and site in self._defect_sites
        if not skip_report and self.solver.check(
                extra=state.path_condition + list(guards) + [outside]) == SAT:
            model = self.solver.model()
            bad_addr = T.evaluate(addr, model)
            self._report(state, R.OOB_ACCESS, decoded,
                         "access can reach unmapped address %#x" % bad_addr,
                         model=model)
        # Constrain to mapped memory and continue if possible.
        state.assume(inside)
        return self.solver.check(extra=state.path_condition) == SAT

    def _report(self, state: SymState, kind: str, decoded, message: str,
                model: Optional[Dict[str, int]] = None) -> None:
        result = self._result
        if result is None:
            return
        site = (kind, state.pc)
        if self.config.dedup_defects and site in self._defect_sites:
            return
        self._defect_sites.add(site)
        if model is None:
            if state.path_condition and self.solver.check(
                    extra=state.path_condition) != SAT:
                return  # path infeasible after all; drop silently
            model = self.solver.model() if state.path_condition else {}
        instruction = decoded.instruction.name if decoded else "?"
        result.defects.append(R.Defect(
            kind, state.pc, instruction, message,
            state.input_bytes_from_model(model), model,
            state.state_id, state.steps))
        if self._tracer.enabled:
            self._tracer.emit("defect", state_id=state.state_id,
                              pc=state.pc, defect_kind=kind,
                              instr=instruction, message=message)

    # -- memory access with concretization ----------------------------------------------

    def _load(self, state: SymState, addr: Value, size: int, guards,
              decoded) -> Value:
        if self._profile_on:
            with self._profiler.phase("memory"):
                return self._load_inner(state, addr, size, guards, decoded)
        return self._load_inner(state, addr, size, guards, decoded)

    def _load_inner(self, state: SymState, addr: Value, size: int, guards,
                    decoded) -> Value:
        if not self._check_mapped(state, addr, guards, decoded,
                                  writing=False):
            raise PathEnd("oob-load")
        if type(addr) is int:
            self._check_uninit(state, addr, size, decoded)
            return state.memory.read(addr, size, self._endian)
        values = self._resolve_address(state, addr, guards)
        if not values:
            raise PathEnd("no-feasible-address")
        result = state.memory.read(values[-1], size, self._endian)
        for value in reversed(values[:-1]):
            result = T.ite(T.eq(addr, T.bv(value, addr.width)),
                           lift(state.memory.read(value, size,
                                                  self._endian), 8 * size),
                           lift(result, 8 * size))
        state.assume(T.disjoin(T.eq(addr, T.bv(v, addr.width))
                               for v in values))
        return norm(result)

    def _store(self, state: SymState, addr: Value, value: Value,
               size: int, decoded) -> None:
        if self._profile_on:
            with self._profiler.phase("memory"):
                self._store_inner(state, addr, value, size, decoded)
            return
        self._store_inner(state, addr, value, size, decoded)

    def _store_inner(self, state: SymState, addr: Value, value: Value,
                     size: int, decoded) -> None:
        if not self._check_mapped(state, addr, (), decoded, writing=True):
            raise PathEnd("oob-store")
        if type(addr) is int:
            state.memory.write(addr, value, size, self._endian)
            return
        values = self._resolve_address(state, addr, ())
        if not values:
            raise PathEnd("no-feasible-address")
        # Concretize the store: constrain the address to one value (the
        # common single-value case is exact; multi-value is weakened by
        # ite-merging the old contents).
        if len(values) == 1:
            state.assume(T.eq(addr, T.bv(values[0], addr.width)))
            state.memory.write(values[0], value, size, self._endian)
            return
        state.assume(T.disjoin(T.eq(addr, T.bv(v, addr.width))
                               for v in values))
        for candidate in values:
            hit = T.eq(addr, T.bv(candidate, addr.width))
            old = state.memory.read(candidate, size, self._endian)
            state.memory.write(candidate, T.ite(hit, lift(value, 8 * size),
                                                lift(old, 8 * size)),
                               size, self._endian)

    def _check_uninit(self, state: SymState, addr: int, size: int,
                      decoded) -> None:
        if not self.config.check_uninit:
            return
        for offset in range(size):
            byte_addr = addr + offset
            region = self.memory_map.region_for(byte_addr)
            if (region is not None and region.track_uninit
                    and not state.memory.is_initialized(byte_addr)):
                self._report(state, R.UNINIT_READ, decoded,
                             "read of uninitialized byte at %#x" % byte_addr)
                return

    def _resolve_address(self, state: SymState, addr: T.Term,
                         guards) -> List[int]:
        """Concrete candidate addresses for a symbolic address term."""
        from ..smt.interval import interval
        lo, hi = interval(addr)
        if hi - lo + 1 <= SYMBOLIC_READ_WINDOW:
            return [value for value in range(lo, hi + 1)
                    if self.memory_map.is_mapped(value)]
        return self._enumerate(state, addr, guards, MAX_ADDRESS_VALUES)

    def _enumerate(self, state: SymState, term: T.Term, guards,
                   limit: int) -> List[int]:
        """Solver-enumerate up to ``limit`` feasible values of ``term``."""
        found: List[int] = []
        exclusions: List[T.Term] = []
        base = state.path_condition + list(guards)
        while len(found) < limit:
            if self.solver.check(extra=base + exclusions) != SAT:
                break
            value = T.evaluate(term, self.solver.model())
            found.append(value)
            exclusions.append(T.ne(term, T.bv(value, term.width)))
        return found

    # -- register index concretization ----------------------------------------------------

    def _concrete_index(self, state: SymState, index_term: Value,
                        decoded) -> int:
        if type(index_term) is int:
            return index_term
        # Register indices come from encoding fields in every built-in ISA,
        # so a symbolic index indicates exotic semantics; concretize to the
        # first feasible value and constrain.
        values = self._enumerate(state, index_term, (), 1)
        if not values:
            raise PathEnd("no-feasible-register-index")
        state.assume(T.eq(index_term, T.bv(values[0], index_term.width)))
        return values[0]
