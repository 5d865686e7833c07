"""Defect reports and exploration results."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..smt.solver import cache_answers, cache_hit_ratio, solved_queries

__all__ = ["Defect", "PathResult", "ExplorationResult",
           "solver_cache_summary",
           "DIV_BY_ZERO", "OOB_ACCESS", "UNINIT_READ", "TRAP",
           "INVALID_INSTRUCTION", "WRITE_TO_CODE", "TAINTED_CONTROL"]

# Defect kinds (the suite's CWE-ish taxonomy).
DIV_BY_ZERO = "division-by-zero"          # CWE-369
OOB_ACCESS = "out-of-bounds-access"       # CWE-121/122/125/787
UNINIT_READ = "uninitialized-read"        # CWE-457
TRAP = "reachable-trap"                   # assertion failure
INVALID_INSTRUCTION = "invalid-instruction"
WRITE_TO_CODE = "write-to-code"
TAINTED_CONTROL = "tainted-control-flow"  # CWE-(94/)822: pc from input


def solver_cache_summary(stats) -> Optional[str]:
    """One-line digest of the solver-cache portion of a solver stats
    delta (``SolverStats.as_dict`` shape), or None when the cache layer
    never fired (e.g. under ``--no-solver-cache``).  Shared by
    :meth:`ExplorationResult.solver_cache_line` and ``repro stats``;
    ``hit_ratio`` is :func:`repro.smt.solver.cache_hit_ratio`.
    """
    if not isinstance(stats, dict):
        return None
    misses = int(stats.get("cache_misses") or 0)
    if cache_answers(stats) + misses == 0:
        return None
    return ("solver cache: hits=%d model_reuse=%d subsumed=%d "
            "misses=%d frame_reuse=%d hit_ratio=%.2f"
            % ((stats.get("cache_hit_sat") or 0)
               + (stats.get("cache_hit_unsat") or 0),
               stats.get("cache_model_reuse") or 0,
               stats.get("cache_subsumed_unsat") or 0, misses,
               stats.get("frame_reuse") or 0, cache_hit_ratio(stats)))


class Defect:
    """One confirmed defect with a solver-produced triggering input."""

    def __init__(self, kind: str, pc: int, instruction: str, message: str,
                 input_bytes: bytes, model: Dict[str, int],
                 state_id: int, steps: int):
        self.kind = kind
        self.pc = pc
        self.instruction = instruction
        self.message = message
        self.input_bytes = input_bytes
        self.model = model
        self.state_id = state_id
        self.steps = steps

    def __repr__(self):
        return "<Defect %s @ %#x (%s) input=%r>" % (
            self.kind, self.pc, self.instruction, self.input_bytes)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "pc": self.pc,
                "instruction": self.instruction,
                "message": self.message,
                "input": self.input_bytes.hex(),
                "model": dict(self.model),
                "state_id": self.state_id, "steps": self.steps}

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Defect":
        return cls(record["kind"], record["pc"],
                   record.get("instruction", "?"),
                   record.get("message", ""),
                   bytes.fromhex(record.get("input", "") or ""),
                   dict(record.get("model") or {}),
                   record.get("state_id", -1), record.get("steps", 0))


class PathResult:
    """One completed path (halt / depth limit)."""

    def __init__(self, status: str, state, input_bytes: bytes,
                 exit_code: Optional[int] = None):
        self.status = status        # 'halted', 'depth-limit', 'pruned'
        self.state = state
        self.input_bytes = input_bytes
        self.exit_code = exit_code

    def __repr__(self):
        return "<PathResult %s exit=%r input=%r>" % (
            self.status, self.exit_code, self.input_bytes)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "status": self.status,
            "input": self.input_bytes.hex(),
            "exit_code": self.exit_code,
        }
        state_id = getattr(self.state, "state_id", None)
        if state_id is not None:
            record["state_id"] = state_id
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "PathResult":
        # Live SymState objects are not persisted: a loaded path carries
        # status/input/exit_code (what callers of a cached result use)
        # with ``state`` left as None.
        path = cls(record["status"], None,
                   bytes.fromhex(record.get("input", "") or ""),
                   record.get("exit_code"))
        path.state_id = record.get("state_id")
        return path


class ExplorationResult:
    """Everything one :meth:`Engine.explore` call produced."""

    def __init__(self):
        self.paths: List[PathResult] = []
        self.defects: List[Defect] = []
        self.instructions_executed = 0
        self.states_forked = 0
        self.states_pruned = 0
        # Per-exploration solver stats delta (not the solver's lifetime
        # cumulative numbers; see SolverStats.delta_since).
        self.solver_stats: Dict[str, float] = {}
        self.wall_time = 0.0
        self.stop_reason = "exhausted"
        # pc values executed (populated when the engine is configured
        # with collect_coverage=True); feeds repro.core.coverage.
        self.visited_pcs: set = set()
        # Telemetry snapshot from the engine's Obs handle (repro.obs):
        # {"isa", "metrics", "phases", "events_emitted"}, plus "health"
        # and "attr" when those observers ran.
        self.telemetry: Dict[str, object] = {}

    def to_dict(self) -> Dict[str, object]:
        """JSON-able snapshot for the run store (``result.json``).

        Everything except live :class:`SymState` handles round-trips;
        loaded paths have ``state=None`` (see
        :meth:`PathResult.from_dict`).
        """
        return {
            "paths": [path.to_dict() for path in self.paths],
            "defects": [defect.to_dict() for defect in self.defects],
            "instructions_executed": self.instructions_executed,
            "states_forked": self.states_forked,
            "states_pruned": self.states_pruned,
            "solver_stats": dict(self.solver_stats),
            "wall_time": self.wall_time,
            "stop_reason": self.stop_reason,
            "visited_pcs": sorted(self.visited_pcs),
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "ExplorationResult":
        result = cls()
        result.paths = [PathResult.from_dict(path)
                        for path in record.get("paths", [])]
        result.defects = [Defect.from_dict(defect)
                          for defect in record.get("defects", [])]
        result.instructions_executed = record.get(
            "instructions_executed", 0)
        result.states_forked = record.get("states_forked", 0)
        result.states_pruned = record.get("states_pruned", 0)
        result.solver_stats = dict(record.get("solver_stats") or {})
        result.wall_time = record.get("wall_time", 0.0)
        result.stop_reason = record.get("stop_reason", "exhausted")
        result.visited_pcs = set(record.get("visited_pcs") or ())
        result.telemetry = record.get("telemetry") or {}
        return result

    def run_summary(self, isa: str) -> Dict[str, object]:
        """The ``run_summary`` meta record a telemetry sidecar ends
        with (``explore --telemetry-out``, the run store's
        ``events.jsonl.gz``): each count of the run once, the solver
        stats under ``telemetry.solver``."""
        return {"record": "run_summary",
                "isa": isa,
                "paths": len(self.paths),
                "defects": len(self.defects),
                "instructions": self.instructions_executed,
                "forks": self.states_forked,
                "pruned": self.states_pruned,
                "wall_time": self.wall_time,
                "stop_reason": self.stop_reason,
                "telemetry": dict(self.telemetry,
                                  solver=dict(self.solver_stats))}

    def defects_by_kind(self) -> Dict[str, List[Defect]]:
        grouped: Dict[str, List[Defect]] = {}
        for defect in self.defects:
            grouped.setdefault(defect.kind, []).append(defect)
        return grouped

    def first_defect(self, kind: Optional[str] = None) -> Optional[Defect]:
        for defect in self.defects:
            if kind is None or defect.kind == kind:
                return defect
        return None

    def summary(self) -> str:
        """One-line digest: paths, defects, steps, solved queries (the
        count the attribution block and the ``solver`` phase show),
        time."""
        solver_checks = int(solved_queries(self.solver_stats))
        return ("paths=%d defects=%d instructions=%d forks=%d "
                "solver_checks=%d time=%.3fs stop=%s"
                % (len(self.paths), len(self.defects),
                   self.instructions_executed, self.states_forked,
                   solver_checks, self.wall_time, self.stop_reason))

    def solver_cache_line(self) -> Optional[str]:
        """One-line digest of the solver cache layer, or None when the
        cache never fired (e.g. ``--no-solver-cache``)."""
        return solver_cache_summary(self.solver_stats)

    def health_line(self) -> Optional[str]:
        """One-line digest of the live health monitor (samples taken,
        last steps/sec, peak frontier, watchdog diagnoses), or None
        when the run was not monitored."""
        from ..obs.health import health_summary_line
        return health_summary_line(self.telemetry.get("health"))

    def details(self) -> str:
        """The summary line, the solver-cache and health lines (when
        present), one line per defect."""
        lines = [self.summary()]
        cache_line = self.solver_cache_line()
        if cache_line is not None:
            lines.append("  " + cache_line)
        health_line = self.health_line()
        if health_line is not None:
            lines.append("  " + health_line)
        for defect in self.defects:
            lines.append("  %s at %#x: %s (input %r)"
                         % (defect.kind, defect.pc, defect.message,
                            defect.input_bytes))
        return "\n".join(lines)
