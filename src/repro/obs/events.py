"""Structured event tracing.

Every interesting engine action becomes a typed :class:`Event` carrying
the ISA name, the acting state's id, its program counter and a monotonic
timestamp — enough to replay, diff and join runs across ISAs.  Events are
fanned out to pluggable sinks (see :mod:`repro.obs.sinks`); with no sink
attached the tracer is a single boolean check on the hot path.

Event kinds
-----------
``step``          one instruction executed (``instr`` payload)
``fork``          a state split (``children`` payload: new state ids)
``merge``         two states merged (``merged_from`` payload)
``solver_check``  one *solved* solver query (``result``, ``ms`` payload)
``solver_cache``  a query answered without solving (``layer`` payload:
                  ``exact`` / ``subsume`` / ``model`` / ``frame``, plus
                  ``result``); cached answers never emit ``solver_check``
``path_end``      a path finished (``status``, optional ``exit_code``)
``defect``        a defect was filed (``kind``, ``message``)
``decode_cache``  an instruction fetch (``hit`` payload)
``prune``         a live state was dropped before finishing (``reason``)
``health``        one periodic health-monitor sample (``sample`` payload:
                  frontier size, steps/sec, solver + cache rates, term
                  pool growth, top-k heaviest states; see
                  :mod:`repro.obs.health`)
``watchdog``      a stall/pressure diagnosis (``diagnosis``, ``detail``;
                  observe-only, nothing acts on it)
``store``         a run-store dedup probe (``hit``, ``run_id`` payload):
                  an identical submission answered from the
                  content-addressed run store instead of re-exploring
                  (see :mod:`repro.runstore`)

Schema versioning
-----------------
:data:`SCHEMA_VERSION` names the wire format of a JSONL run file.
Version 2 added the ``prune`` kind, per-edge branch condition summaries
on ``fork`` events (``conds``, aligned with ``children``) and the
``duplicate`` flag on ``merge`` events.  Version 3 added the ``health``
and ``watchdog`` kinds emitted by the live health monitor.  Version 4
added the ``store`` kind (a run-store dedup probe:
``hit``, ``run_id`` payload; see :mod:`repro.runstore`) and an optional
``env`` provenance block on the leading ``schema`` meta record (python
version, platform, package version, spec digests — see
:func:`repro.runstore.provenance.environment_snapshot`).  Version 5
added the optional ``attr`` cost-attribution block inside the
``run_summary`` meta record's ``telemetry`` payload (per-rule /
per-site cost shares; see :mod:`repro.obs.attr` and ``repro hot``) —
no new event kinds.  Version 6 (this release) carries each count of a
run once: the ``run_summary`` record gains ``forks`` and ``pruned``,
its ``telemetry`` drops ``wall_time`` (the record's own stays), and the
metrics drop the ``engine.*``, ``solver.cache_*``,
``solver.frame_reuse`` and ``health.*`` instruments that repeated
counts kept elsewhere.  Readers of version-1 to 5 files keep working —
sidecars without the ``env`` block simply report no provenance — and
readers that dispatch on known kinds ignore the new ones (sinks, the
flight recorder and ``repro stats`` are tolerant of unknown kinds by
design; :func:`~repro.obs.sinks.load_run` warns — but still loads —
when a file carries a *newer* schema than this reader).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

__all__ = ["Event", "EventTracer", "EVENT_KINDS", "SCHEMA_VERSION",
           "STEP", "FORK", "MERGE", "SOLVER_CHECK", "SOLVER_CACHE",
           "PATH_END", "DEFECT", "DECODE_CACHE", "PRUNE", "HEALTH",
           "WATCHDOG", "STORE"]

#: Wire-format version stamped into JSONL run files (a ``meta`` record
#: written by :class:`~repro.obs.sinks.JsonlSink`).
SCHEMA_VERSION = 6

STEP = "step"
FORK = "fork"
MERGE = "merge"
SOLVER_CHECK = "solver_check"
SOLVER_CACHE = "solver_cache"
PATH_END = "path_end"
DEFECT = "defect"
DECODE_CACHE = "decode_cache"
PRUNE = "prune"
HEALTH = "health"
WATCHDOG = "watchdog"
STORE = "store"

EVENT_KINDS = (STEP, FORK, MERGE, SOLVER_CHECK, SOLVER_CACHE, PATH_END,
               DEFECT, DECODE_CACHE, PRUNE, HEALTH, WATCHDOG, STORE)


class Event:
    """One telemetry record."""

    __slots__ = ("kind", "isa", "state_id", "pc", "ts", "data")

    def __init__(self, kind: str, isa: str, state_id: int, pc: int,
                 ts: float, data: Optional[Dict[str, object]] = None):
        self.kind = kind
        self.isa = isa
        self.state_id = state_id
        self.pc = pc
        self.ts = ts
        self.data = data if data is not None else {}

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "kind": self.kind, "isa": self.isa,
            "state": self.state_id, "pc": self.pc, "ts": self.ts,
        }
        if self.data:
            record["data"] = self.data
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Event":
        return cls(record["kind"], record.get("isa", "?"),
                   record.get("state", -1), record.get("pc", 0),
                   record.get("ts", 0.0), record.get("data") or {})

    def __eq__(self, other):
        if not isinstance(other, Event):
            return NotImplemented
        return (self.kind == other.kind and self.isa == other.isa
                and self.state_id == other.state_id and self.pc == other.pc
                and self.ts == other.ts and self.data == other.data)

    def __repr__(self):
        return "<Event %s isa=%s state=%d pc=%#x %r>" % (
            self.kind, self.isa, self.state_id, self.pc, self.data)


class EventTracer:
    """Fans events out to sinks; near-free when no sink is attached.

    The engine parks the current execution context on the tracer
    (:meth:`set_context`) so that components without direct state access
    — notably the solver — can emit fully-attributed events.
    """

    def __init__(self, isa: str = "?"):
        self.isa = isa
        self.sinks: List[object] = []
        self.enabled = False
        self.emitted = 0
        # Current execution context (state id, pc) set by the engine.
        self.ctx_state = -1
        self.ctx_pc = 0

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)
        self.enabled = True

    def remove_sink(self, sink) -> None:
        self.sinks.remove(sink)
        self.enabled = bool(self.sinks)

    def set_context(self, state_id: int, pc: int) -> None:
        self.ctx_state = state_id
        self.ctx_pc = pc

    def emit(self, kind: str, state_id: Optional[int] = None,
             pc: Optional[int] = None, **data) -> None:
        """Emit one event (no-op with no sinks; guard with ``enabled``
        before building expensive payloads)."""
        if not self.enabled:
            return
        event = Event(kind, self.isa,
                      self.ctx_state if state_id is None else state_id,
                      self.ctx_pc if pc is None else pc,
                      time.monotonic(), data or None)
        self.emitted += 1
        for sink in self.sinks:
            sink.emit(event)

    def flush(self) -> None:
        """Flush sinks that buffer (best-effort; sinks without a
        ``flush`` are skipped).  The health monitor calls this after
        each sample so a killed run keeps the samples it took."""
        for sink in self.sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
