"""Deterministic replay: re-execute a stored run and verify it.

``repro replay <run-id>`` rebuilds the exploration from nothing but the
stored key material — spec-checked model, program bytes, engine config,
strategy, seed, regions — re-executes it, and compares the canonical
tree / leaves / defects fingerprints (:mod:`repro.runstore.fingerprint`)
against the manifest.  Exit codes: 0 verified, 3 diverged (the report
names the diverging field), 1 the run could not be replayed at all.

Verification is two-staged:

1. **integrity** — the per-component key digests recorded at capture
   time are recomputed from the manifest's key material, and the run id
   is recomputed from the whole key.  An edited ``manifest.json``
   (tampered program bytes, tweaked config) diverges *here*, before any
   execution, naming the component (``key_digests.program``, ...).
   The code running replay and the current machine's ADL spec are also
   digest-checked against the recorded ones: a run recorded by other
   code is reported as ``engine``, one recorded against a changed spec
   as ``spec``, never as a mystery tree mismatch, and neither is
   executed.
2. **fingerprints** — the run is re-executed and the canonical
   fingerprints must match bit-for-bit.  ``--diff`` locates the first
   diverging structural event for post-mortem.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..core.executor import EngineConfig
from ..isa import build
from ..obs import Obs
from .fingerprint import (defects_fingerprint, first_divergence,
                          leaves_fingerprint, tree_fingerprint)
from .provenance import engine_digest, spec_digest
from .store import (RunStore, RunStoreError, _build_engine,
                    image_from_payload, key_digests)

__all__ = ["ReplayReport", "replay_run"]


class _ListSink:
    """Unbounded in-memory event sink (replay needs *every* event for
    fingerprinting; the bounded RingBufferSink would silently drop)."""

    def __init__(self):
        self.events = []

    def emit(self, event) -> None:
        self.events.append(event)


class ReplayReport:
    """Outcome of one replay verification."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (field, recorded, replayed) triples; empty == verified.
        self.mismatches: List[Tuple[str, object, object]] = []
        self.fingerprints: Dict[str, str] = {}
        self.recorded_fingerprints: Dict[str, str] = {}
        self.divergence = None      # (index, recorded_ev, replayed_ev)
        self.executed = False
        self.wall_time = 0.0
        self.result_summary: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 3

    def flag(self, field: str, recorded, replayed) -> None:
        self.mismatches.append((field, recorded, replayed))

    def summary(self) -> str:
        lines = []
        if self.ok:
            lines.append("replay %s: VERIFIED (%d fingerprint%s match, "
                         "%.3fs)" % (self.run_id, len(self.fingerprints),
                                     "s" if len(self.fingerprints) != 1
                                     else "", self.wall_time))
        else:
            fields = ", ".join(field for field, _, _ in self.mismatches)
            lines.append("replay %s: DIVERGED in %s"
                         % (self.run_id, fields))
            for field, recorded, replayed in self.mismatches:
                lines.append("  %-22s recorded=%s" % (field, recorded))
                lines.append("  %-22s replayed=%s" % ("", replayed))
        if self.result_summary:
            lines.append("  " + self.result_summary)
        if self.divergence is not None:
            index, recorded, replayed = self.divergence
            lines.append("first diverging structural event (index %d):"
                         % index)
            lines.append("  recorded: %s"
                         % (recorded if recorded is not None
                            else "<stream ended>"))
            lines.append("  replayed: %s"
                         % (replayed if replayed is not None
                            else "<stream ended>"))
        return "\n".join(lines)


def replay_run(store: RunStore, run_id: str,
               diff: bool = False) -> ReplayReport:
    """Re-execute a stored run and verify it; see module docstring.

    Raises :class:`RunStoreError` when the run is missing or
    unreadable — conditions where verification cannot even start (CLI
    exit 1, distinct from divergence's 3).
    """
    stored = store.get(run_id)
    if stored is None:
        raise RunStoreError("run %r is not in the store (see "
                            "'repro runs')" % run_id)
    manifest = stored.manifest
    key = stored.key
    if not key:
        raise RunStoreError("run %s has no key material in its manifest"
                            % stored.run_id)
    report = ReplayReport(stored.run_id)

    # -- stage 1: integrity of the stored key material -----------------------
    recorded_digests = manifest.get("key_digests") or {}
    current_digests = key_digests(key)
    for field in sorted(current_digests):
        recorded = recorded_digests.get(field)
        if recorded is not None and recorded != current_digests[field]:
            report.flag("key_digests.%s" % field, recorded,
                        current_digests[field])
    recomputed_id = store.run_id_for(key)
    if recomputed_id != stored.run_id:
        report.flag("run_id", stored.run_id, recomputed_id)
    if not report.ok:
        return report       # tampered at rest: do not execute it

    # The code and spec on this machine must be the ones the run was
    # recorded with — otherwise an honest, named divergence, not a
    # tree mystery.
    current_engine = engine_digest()
    if current_engine != key.get("engine"):
        report.flag("engine", key.get("engine"), current_engine)
    model = build(key["isa"])
    current_spec = spec_digest(model)
    if current_spec != key.get("spec"):
        report.flag("spec", key.get("spec"), current_spec)
    if not report.ok:
        return report

    # -- stage 2: re-execute and compare fingerprints ------------------------
    image = image_from_payload(key.get("program") or {})
    config = EngineConfig.from_dict(key.get("config") or {})
    sink = _ListSink()
    obs = Obs(metrics=True, profile=False)
    obs.add_sink(sink)
    config.obs = obs
    started = time.perf_counter()
    engine = _build_engine(model, image, config, key.get("strategy",
                                                         "dfs"),
                           key.get("seed", 0), key.get("regions") or ())
    result = engine.explore()
    report.wall_time = time.perf_counter() - started
    report.executed = True
    report.result_summary = result.summary()

    result_dict = result.to_dict()
    report.fingerprints = {
        "tree": tree_fingerprint(sink.events),
        "leaves": leaves_fingerprint(result_dict["paths"]),
        "defects": defects_fingerprint(result_dict["defects"]),
    }
    report.recorded_fingerprints = stored.fingerprints
    for field in ("tree", "leaves", "defects"):
        recorded = report.recorded_fingerprints.get(field)
        replayed = report.fingerprints.get(field)
        if recorded != replayed:
            report.flag("fingerprints.%s" % field, recorded, replayed)
    if diff and not report.ok:
        try:
            report.divergence = first_divergence(stored.events(),
                                                 sink.events)
        except Exception:
            report.divergence = None
    return report
