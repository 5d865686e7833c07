"""Content-addressed run store: every exploration an immutable artifact.

A *run* is keyed by what determines its outcome — nothing more, nothing
less::

    run_id = sha256(canonical_json({
        isa, spec digest, engine digest, program {base, entry, data},
        engine config, strategy, seed, memory regions}))[:32]

Two submissions with the same key are the *same exploration*: the
engine is deterministic given that tuple (state ids and wall-clock are
process-local, which is why fingerprints canonicalize them — see
:mod:`repro.runstore.fingerprint`).  The engine digest
(:func:`~repro.runstore.provenance.engine_digest`) pins the code that
explored, so any edit to the package gives new run ids.  That buys two
things:

* **dedup** — :func:`cached_explore` answers a repeated submission from
  the store (``store.hit`` counter + ``store`` event) without building
  an engine, so zero new solver checks;
* **replay** — :mod:`repro.runstore.replay` re-executes from the stored
  key and verifies the tree/leaf/defect fingerprints bit-for-bit.

Layout (under ``~/.repro/store`` or ``--store DIR`` /
``$REPRO_STORE``)::

    runs/<run_id>/manifest.json        key, digests, fingerprints, env
    runs/<run_id>/events.jsonl.gz      full schema event stream
    runs/<run_id>/result.json          serialized ExplorationResult, with
                                       the cost-attribution profile in
                                       telemetry.attr (repro hot <run_id>)

Writes are atomic: a run is streamed into ``runs/.tmp-*`` and
``os.rename``-d into place, so readers never observe a half-written
run and concurrent recorders of the same key race harmlessly.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.executor import Engine, EngineConfig
from ..core.reporting import ExplorationResult
from ..isa.assembler import Image
from ..obs import JsonlSink, Obs
from ..obs.events import STORE
from ..obs.sinks import load_run
from .fingerprint import (defects_fingerprint, leaves_fingerprint,
                          tree_fingerprint)
from .provenance import (canonical_json, content_digest, engine_digest,
                         environment_snapshot, spec_digest)

__all__ = ["RunStore", "RunStoreError", "StoredRun", "resolve_store_root",
           "run_key", "image_payload", "image_from_payload",
           "cached_explore", "record_exploration"]

#: Environment override for the store root; the CLI ``--store DIR``
#: flag wins over it, the default ``~/.repro/store`` loses to both.
STORE_ENV = "REPRO_STORE"
DEFAULT_ROOT = os.path.join("~", ".repro", "store")

MANIFEST = "manifest.json"
EVENTS = "events.jsonl.gz"
RESULT = "result.json"

#: Manifest fields whose values are JSON objects.
_OBJECT_FIELDS = ("key", "key_digests", "fingerprints", "env", "counts")

#: (fingerprint, result section, digest) of what a store hit checks.
_RESULT_FINGERPRINTS = (("leaves", "paths", leaves_fingerprint),
                        ("defects", "defects", defects_fingerprint))


class RunStoreError(Exception):
    """Store misuse, a missing/ambiguous run id, or a corrupt run."""


def resolve_store_root(path: Optional[str] = None) -> str:
    """``--store DIR`` > ``$REPRO_STORE`` > ``~/.repro/store``."""
    if path:
        return os.path.abspath(os.path.expanduser(path))
    env = os.environ.get(STORE_ENV)
    if env:
        return os.path.abspath(os.path.expanduser(env))
    return os.path.expanduser(DEFAULT_ROOT)


def image_payload(image) -> Dict[str, object]:
    """The outcome-relevant bytes of an assembled image."""
    return {"base": image.base, "entry": image.entry,
            "data": bytes(image.data).hex()}


def image_from_payload(payload: Dict[str, object]) -> Image:
    """Rebuild a loadable :class:`Image` from :func:`image_payload`."""
    image = Image(payload["base"])
    image.data = bytearray(bytes.fromhex(payload.get("data", "") or ""))
    image.entry = payload.get("entry", image.base)
    return image


def _normalize_regions(regions) -> List[List[object]]:
    rows = []
    for region in regions or ():
        start, size = region[0], region[1]
        track = bool(region[2]) if len(region) > 2 else False
        rows.append([start, size, track])
    return rows


def run_key(isa: str, spec: str, image, config: EngineConfig,
            strategy: str, seed: int,
            regions: Sequence = ()) -> Dict[str, object]:
    """The canonical key material of one exploration, under the code
    running in this process."""
    return {
        "isa": isa,
        "spec": spec,
        "engine": engine_digest(),
        "program": image_payload(image),
        "config": config.to_dict(),
        "strategy": strategy,
        "seed": seed,
        "regions": _normalize_regions(regions),
    }


def key_digests(key: Dict[str, object]) -> Dict[str, str]:
    """Per-component digests of a run key.  Recorded in the manifest so
    replay can name *which* component a tampered run diverges in."""
    return {
        "spec": str(key.get("spec")),
        "engine": str(key.get("engine")),
        "program": content_digest(key.get("program")),
        "config": content_digest(key.get("config")),
        "strategy": content_digest({"strategy": key.get("strategy"),
                                    "seed": key.get("seed"),
                                    "regions": key.get("regions")}),
    }


def _jsonable(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    return str(value)


class StoredRun:
    """Read handle on one committed run directory."""

    def __init__(self, root: str, run_id: str):
        self.run_id = run_id
        self.path = os.path.join(root, "runs", run_id)
        self._manifest: Optional[Dict[str, object]] = None

    @property
    def manifest(self) -> Dict[str, object]:
        """The parsed ``manifest.json``.  One that cannot be read, is not
        a JSON object, or holds a non-object where an object belongs
        (``key``, ``fingerprints``, ...) or a non-number ``created``
        raises :class:`RunStoreError`."""
        if self._manifest is None:
            try:
                with open(os.path.join(self.path, MANIFEST)) as handle:
                    manifest = json.load(handle)
            except (OSError, ValueError) as exc:
                raise RunStoreError("run %s has no readable manifest: %s"
                                    % (self.run_id, exc))
            if not isinstance(manifest, dict):
                raise RunStoreError("run %s has a malformed manifest: not "
                                    "a JSON object" % self.run_id)
            for field in _OBJECT_FIELDS:
                if not isinstance(manifest.get(field, {}), dict):
                    raise RunStoreError(
                        "run %s has a malformed manifest: %r is not a "
                        "JSON object" % (self.run_id, field))
            created = manifest.get("created", 0.0)
            if isinstance(created, bool) \
                    or not isinstance(created, (int, float)):
                raise RunStoreError("run %s has a malformed manifest: "
                                    "'created' is not a number"
                                    % self.run_id)
            self._manifest = manifest
        return self._manifest

    @property
    def key(self) -> Dict[str, object]:
        return self.manifest.get("key") or {}

    @property
    def fingerprints(self) -> Dict[str, str]:
        return dict(self.manifest.get("fingerprints") or {})

    @property
    def environment(self) -> Dict[str, object]:
        return dict(self.manifest.get("env") or {})

    @property
    def created(self) -> float:
        return float(self.manifest.get("created", 0.0))

    @property
    def events_path(self) -> str:
        return os.path.join(self.path, EVENTS)

    def events(self):
        """The recorded schema event stream (list of ``Event``)."""
        return load_run(self.events_path).events

    def result_dict(self) -> Dict[str, object]:
        try:
            with open(os.path.join(self.path, RESULT)) as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise RunStoreError("run %s has no readable result: %s"
                                % (self.run_id, exc))
        if not isinstance(payload, dict):
            raise RunStoreError("run %s has no readable result: not a "
                                "JSON object" % self.run_id)
        return payload

    def result(self) -> ExplorationResult:
        """The stored result, once its paths and defects match the
        manifest's ``leaves`` and ``defects`` fingerprints.  A result
        edited or cut short at rest raises :class:`RunStoreError` naming
        the fingerprint."""
        payload = self.result_dict()
        recorded = self.fingerprints
        for field, section, digest in _RESULT_FINGERPRINTS:
            rows = payload.get(section)
            if not isinstance(rows, list) \
                    or not all(isinstance(row, dict) for row in rows) \
                    or recorded.get(field) != digest(rows):
                raise RunStoreError(
                    "run %s: result.json does not match the %s "
                    "fingerprint in its manifest" % (self.run_id, field))
        return ExplorationResult.from_dict(payload)

    def attr(self) -> Optional[Dict[str, object]]:
        """The cost-attribution profile (``repro.obs.attr`` snapshot
        block) from the stored result's telemetry, or None for a run
        explored without attribution.  An unreadable result raises
        :class:`RunStoreError`, like :meth:`result_dict`."""
        telemetry = self.result_dict().get("telemetry")
        block = telemetry.get("attr") if isinstance(telemetry, dict) else None
        return block if isinstance(block, dict) else None

    def __repr__(self):
        return "<StoredRun %s>" % self.run_id


class RunStore:
    """The content-addressed store: lookup, listing, gc."""

    def __init__(self, root: Optional[str] = None):
        self.root = resolve_store_root(root)
        self.runs_dir = os.path.join(self.root, "runs")

    @staticmethod
    def run_id_for(key: Dict[str, object]) -> str:
        import hashlib
        rendered = canonical_json(key).encode("utf-8")
        return hashlib.sha256(rendered).hexdigest()[:32]

    # -- lookup --------------------------------------------------------------

    def _ids(self) -> List[str]:
        try:
            names = os.listdir(self.runs_dir)
        except OSError:
            return []
        return sorted(name for name in names
                      if not name.startswith(".")
                      and os.path.exists(os.path.join(self.runs_dir, name,
                                                      MANIFEST)))

    def get(self, run_id: str) -> Optional[StoredRun]:
        """Exact or unique-prefix lookup; None when absent, error when
        a prefix is ambiguous."""
        if os.path.exists(os.path.join(self.runs_dir, run_id, MANIFEST)):
            return StoredRun(self.root, run_id)
        matches = [name for name in self._ids()
                   if name.startswith(run_id)]
        if len(matches) > 1:
            raise RunStoreError(
                "run id prefix %r is ambiguous (%s)"
                % (run_id, ", ".join(name[:12] for name in matches)))
        if matches:
            return StoredRun(self.root, matches[0])
        return None

    def __contains__(self, run_id: str) -> bool:
        return os.path.exists(os.path.join(self.runs_dir, run_id,
                                           MANIFEST))

    def list_runs(self) -> List[StoredRun]:
        """Every committed run, newest first.  Runs whose manifest
        cannot be read come last."""
        runs = [StoredRun(self.root, run_id) for run_id in self._ids()]

        def newest_first(run):
            created = _created(run)
            return (created is None, -(created or 0.0))

        return sorted(runs, key=newest_first)

    # -- maintenance ---------------------------------------------------------

    def delete(self, run_id: str) -> bool:
        path = os.path.join(self.runs_dir, run_id)
        if not os.path.isdir(path):
            return False
        shutil.rmtree(path, ignore_errors=True)
        return True

    def gc(self, keep: Optional[int] = None,
           older_than_days: Optional[float] = None) -> List[str]:
        """Delete runs beyond the ``keep`` newest and/or older than
        ``older_than_days``; returns the deleted run ids.  Also sweeps
        abandoned ``.tmp-*`` directories from crashed recorders."""
        deleted: List[str] = []
        runs = self.list_runs()
        doomed = set()
        if keep is not None:
            doomed.update(run.run_id for run in runs[max(keep, 0):])
        if older_than_days is not None:
            horizon = time.time() - older_than_days * 86400.0
            for run in runs:
                created = _created(run)
                # A run whose manifest cannot be read has no known age.
                if created is not None and created < horizon:
                    doomed.add(run.run_id)
        for run_id in sorted(doomed):
            if self.delete(run_id):
                deleted.append(run_id)
        try:
            leftovers = [name for name in os.listdir(self.runs_dir)
                         if name.startswith(".tmp-")]
        except OSError:
            leftovers = []
        for name in leftovers:
            shutil.rmtree(os.path.join(self.runs_dir, name),
                          ignore_errors=True)
        return deleted


def _created(run: StoredRun) -> Optional[float]:
    """``run.created``, or None when its manifest cannot be read."""
    try:
        return run.created
    except RunStoreError:
        return None


# -- recording ---------------------------------------------------------------


def _build_engine(model, image, config: EngineConfig, strategy: str,
                  seed: int, regions) -> Engine:
    engine = Engine(model, config=config, strategy=strategy, seed=seed)
    engine.load_image(image)
    for start, size, track in _normalize_regions(regions):
        engine.add_region(start, size, track_uninit=track)
    return engine


def record_exploration(store: RunStore, model, image,
                       config: EngineConfig, strategy: str = "dfs",
                       seed: int = 0, regions: Sequence = (),
                       argv: Optional[List[str]] = None,
                       replace: bool = False
                       ) -> Tuple[ExplorationResult, StoredRun]:
    """Explore and atomically persist the run; returns the *live*
    result plus the committed :class:`StoredRun` handle.

    A run already committed under the same id is kept (a concurrent
    recorder's run is identical by construction) unless ``replace``,
    which swaps this run in (``repro record --force``).

    The event stream is written gzip-compressed while the engine runs;
    fingerprints are then computed by *re-loading* the written sidecar
    (the exact artifact replay will read — like-for-like by
    construction).
    """
    spec = spec_digest(model)
    key = run_key(model.name, spec, image, config, strategy, seed,
                  regions)
    run_id = store.run_id_for(key)
    os.makedirs(store.runs_dir, exist_ok=True)
    tmp = os.path.join(store.runs_dir,
                       ".tmp-%s-%d" % (run_id, os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    obs = config.obs if config.obs is not None else Obs.default()
    config.obs = obs
    env_extra: Dict[str, object] = {
        "spec_digests": {model.name: spec}, "run_id": run_id}
    if argv is not None:
        env_extra["argv"] = list(argv)
    sink = JsonlSink(os.path.join(tmp, EVENTS), env=env_extra)
    obs.add_sink(sink)
    try:
        engine = _build_engine(model, image, config, strategy, seed,
                               regions)
        result = engine.explore()
        sink.write_meta(result.run_summary(model.name))
    except Exception:
        obs.tracer.remove_sink(sink)
        sink.close()
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    obs.tracer.remove_sink(sink)
    sink.close()

    recorded = load_run(os.path.join(tmp, EVENTS))
    result_dict = result.to_dict()
    fingerprints = {
        "tree": tree_fingerprint(recorded.events),
        "leaves": leaves_fingerprint(result_dict["paths"]),
        "defects": defects_fingerprint(result_dict["defects"]),
    }
    with open(os.path.join(tmp, RESULT), "w") as handle:
        json.dump(result_dict, handle, sort_keys=True,
                  default=_jsonable)
    manifest = {
        "run_id": run_id,
        "created": time.time(),
        "isa": model.name,
        "key": key,
        "key_digests": key_digests(key),
        "fingerprints": fingerprints,
        "env": environment_snapshot(argv=argv,
                                    spec_digests={model.name: spec}),
        "counts": {"paths": len(result.paths),
                   "defects": len(result.defects),
                   "instructions": result.instructions_executed,
                   "events": len(recorded.events)},
        "summary": result.summary(),
    }
    with open(os.path.join(tmp, MANIFEST), "w") as handle:
        json.dump(manifest, handle, sort_keys=True, indent=2)

    final = os.path.join(store.runs_dir, run_id)
    stale = None
    if replace and os.path.isdir(final):
        # Move the committed run aside (a ``.tmp-`` name, so gc sweeps
        # it if we crash), rename ours in, then drop the old one.
        stale = os.path.join(store.runs_dir, ".tmp-replaced-%s-%d"
                             % (run_id, os.getpid()))
        os.rename(final, stale)
    try:
        os.rename(tmp, final)
    except OSError:
        # A concurrent recorder committed the same key first; its run
        # is identical by construction — drop ours.
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.path.isdir(final):
            if stale is not None:
                os.rename(stale, final)
            raise
    if stale is not None:
        shutil.rmtree(stale, ignore_errors=True)
    return result, StoredRun(store.root, run_id)


def cached_explore(store: RunStore, model, image, config: EngineConfig,
                   strategy: str = "dfs", seed: int = 0,
                   regions: Sequence = (),
                   argv: Optional[List[str]] = None,
                   force: bool = False
                   ) -> Tuple[ExplorationResult, StoredRun, bool]:
    """Store-backed exploration: answer an identical submission from
    the store, explore and record otherwise.

    Returns ``(result, stored_run, hit)``.  A hit serves the stored
    result only once it matches the manifest's fingerprints
    (:meth:`StoredRun.result` raises :class:`RunStoreError`
    otherwise), increments the ``store.hit`` counter, emits a
    ``store`` event, and never constructs an engine — zero new solver
    checks.  A miss increments
    ``store.miss``, explores and commits the run, so the next identical
    submission hits.  ``force`` skips the probe and replaces the stored
    run with the new one.
    """
    spec = spec_digest(model)
    key = run_key(model.name, spec, image, config, strategy, seed,
                  regions)
    run_id = store.run_id_for(key)
    obs = config.obs if config.obs is not None else Obs.default()
    config.obs = obs
    existing = None if force else store.get(run_id)
    if existing is not None:
        result = existing.result()
        obs.metrics.counter("store.hit").inc()
        obs.tracer.emit(STORE, state_id=-1, pc=0, hit=True,
                        run_id=run_id)
        return result, existing, True
    obs.metrics.counter("store.miss").inc()
    obs.tracer.emit(STORE, state_id=-1, pc=0, hit=False, run_id=run_id)
    result, stored = record_exploration(
        store, model, image, config, strategy, seed, regions,
        argv=argv, replace=force)
    return result, stored, False
