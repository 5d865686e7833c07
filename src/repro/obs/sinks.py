"""Event sinks: where traced events go.

Three built-ins cover the main use cases:

* :class:`RingBufferSink` — bounded in-memory buffer for tests and
  programmatic inspection (never grows without bound).
* :class:`JsonlSink` — one JSON object per line; the interchange format
  consumed by ``repro stats`` and the benchmark sidecars.  A JSONL run
  file is a stream of event records optionally followed by ``meta``
  records (e.g. the end-of-run summary).  Paths ending in ``.gz`` are
  transparently gzip-compressed, and every reader here
  (:func:`load_run` / :func:`read_jsonl`) decompresses them the same
  way, so ``--telemetry-out run.jsonl.gz`` just works end to end.
* :class:`ConsoleSink` — human-readable live feed for debugging
  generated semantics.

Any object with ``emit(event)`` (and optional ``close()``) is a sink.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import zlib
from collections import deque
from typing import Dict, List, Optional, Tuple, Union

from .events import SCHEMA_VERSION, Event


def _open_text(path: str, mode: str):
    """Open a sidecar path for text I/O, gunzipping ``.gz`` paths.

    Read modes replace undecodable bytes (telemetry readers must never
    traceback on a corrupt file); write modes are strict.
    """
    if path.endswith(".gz"):
        if "r" in mode:
            return gzip.open(path, "rt", errors="replace")
        return gzip.open(path, mode + "t")
    if "r" in mode:
        return open(path, errors="replace")
    return open(path, mode)

__all__ = ["RingBufferSink", "JsonlSink", "ConsoleSink",
           "read_jsonl", "read_run", "load_run", "RunFile",
           "TelemetryError"]


class TelemetryError(Exception):
    """A telemetry run file is missing, empty, or unreadable.

    Raised by :func:`load_run` so CLI consumers (``repro stats`` /
    ``tree`` / ``speccov``) can fail with a one-line message instead of
    a traceback.
    """


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, event: Event) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)

    def events(self, kind: Optional[str] = None) -> List[Event]:
        if kind is None:
            return list(self._buffer)
        return [event for event in self._buffer if event.kind == kind]

    def clear(self) -> None:
        self._buffer.clear()
        self.dropped = 0

    def __len__(self):
        return len(self._buffer)


class JsonlSink:
    """Streams events as JSON lines to a path or a file-like object.

    A string target ending in ``.gz`` is written gzip-compressed (the
    readers decompress transparently).  The leading ``schema`` meta
    record carries an ``env`` provenance block — python version,
    platform, package version (see
    :func:`repro.runstore.provenance.environment_snapshot`) — which
    callers can extend via ``env`` (e.g. the CLI adds the ADL spec
    digest of the explored ISA).  Readers of older sidecars that lack
    the block keep working: :meth:`RunFile.environment` just returns
    an empty dict.
    """

    def __init__(self, target: Union[str, io.TextIOBase],
                 write_schema: bool = True,
                 env: Optional[Dict[str, object]] = None):
        if isinstance(target, str):
            self._handle = _open_text(target, "w")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self.written = 0
        if write_schema:
            # Version stamp first, so readers can dispatch on format.
            # Lazy import: runstore depends on obs, not the other way
            # around at module load time.
            from ..runstore.provenance import environment_snapshot
            block = environment_snapshot()
            if env:
                block.update(env)
            self.write_meta({"record": "schema",
                             "version": SCHEMA_VERSION,
                             "env": block})

    def emit(self, event: Event) -> None:
        self._handle.write(json.dumps(event.to_dict(),
                                      separators=(",", ":")))
        self._handle.write("\n")
        self.written += 1

    def write_meta(self, record: Dict[str, object]) -> None:
        """Append a non-event record (tagged ``"meta"``) to the stream."""
        tagged = {"kind": "meta"}
        tagged.update(record)
        tagged["kind"] = "meta"
        self._handle.write(json.dumps(tagged, separators=(",", ":")))
        self._handle.write("\n")

    def flush(self) -> None:
        """Push buffered lines to disk, so a killed run keeps them.
        Called by the health monitor after each sample — cheap at
        sampling cadence, never on the hot path."""
        self._handle.flush()

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


class ConsoleSink:
    """Human-readable one-line-per-event feed (stderr by default)."""

    def __init__(self, stream=None):
        import sys
        self._stream = stream if stream is not None else sys.stderr

    def emit(self, event: Event) -> None:
        extra = " ".join("%s=%r" % item for item in
                         sorted(event.data.items()))
        self._stream.write("[obs] %-12s isa=%-8s state=%-4d pc=%#06x %s\n"
                           % (event.kind, event.isa, event.state_id,
                              event.pc, extra))


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """All records (events and meta) of a JSONL run file, as dicts."""
    records = []
    with _open_text(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def read_run(path: str) -> Tuple[List[Event], List[Dict[str, object]]]:
    """Split a JSONL run file into (events, meta records)."""
    events: List[Event] = []
    meta: List[Dict[str, object]] = []
    for record in read_jsonl(path):
        if record.get("kind") == "meta":
            meta.append(record)
        else:
            events.append(Event.from_dict(record))
    return events, meta


class RunFile:
    """A loaded telemetry run: events, meta records, reader warnings."""

    __slots__ = ("path", "events", "meta", "warnings", "schema_version")

    def __init__(self, path: str, events: List[Event],
                 meta: List[Dict[str, object]], warnings: List[str],
                 schema_version: Optional[int]):
        self.path = path
        self.events = events
        self.meta = meta
        self.warnings = warnings
        self.schema_version = schema_version

    def events_of(self, kind: str) -> List[Event]:
        return [event for event in self.events if event.kind == kind]

    def run_summary(self) -> Optional[Dict[str, object]]:
        for record in self.meta:
            if record.get("record") == "run_summary":
                return record
        return None

    def attr_block(self) -> Optional[Dict[str, object]]:
        """The schema-v5 cost-attribution block of the run summary
        (``telemetry.attr``), or ``None`` for pre-v5 sidecars and runs
        explored without ``--attr`` — readers stay tolerant."""
        summary = self.run_summary()
        if summary is None:
            return None
        telemetry = summary.get("telemetry")
        if not isinstance(telemetry, dict):
            return None
        block = telemetry.get("attr")
        return block if isinstance(block, dict) else None

    def environment(self) -> Dict[str, object]:
        """The ``env`` provenance block of the schema meta record
        (python/platform/package/spec digests), or ``{}`` for sidecars
        recorded before schema v4 — readers stay tolerant."""
        for record in self.meta:
            if record.get("record") == "schema":
                env = record.get("env")
                return dict(env) if isinstance(env, dict) else {}
        return {}


def load_run(path: str) -> RunFile:
    """Robustly load a telemetry JSONL run file.

    Unlike :func:`read_run` this never raises on partial data: malformed
    or truncated lines (e.g. a run killed mid-write) are skipped and
    reported via :attr:`RunFile.warnings`.  It *does* raise
    :class:`TelemetryError` — with a one-line, actionable message — when
    the file is missing, empty, or contains no parseable records at all.
    """
    if not os.path.exists(path):
        raise TelemetryError("no such telemetry file: %s" % path)
    if os.path.isdir(path):
        raise TelemetryError("%s is a directory, not a telemetry file"
                             % path)
    events: List[Event] = []
    meta: List[Dict[str, object]] = []
    warnings: List[str] = []
    bad_lines = 0
    total_lines = 0
    try:
        with _open_text(path, "r") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                total_lines += 1
                try:
                    record = json.loads(line)
                except ValueError:
                    bad_lines += 1
                    last_bad = number
                    continue
                if not isinstance(record, dict) or "kind" not in record:
                    bad_lines += 1
                    last_bad = number
                    continue
                if record.get("kind") == "meta":
                    meta.append(record)
                else:
                    events.append(Event.from_dict(record))
    except OSError as exc:
        raise TelemetryError("cannot read telemetry file %s: %s"
                             % (path, exc.strerror or exc))
    except (EOFError, zlib.error) as exc:
        # A truncated/corrupt .gz stream (e.g. a killed writer): keep
        # whatever decompressed cleanly, warn like a truncated line.
        if total_lines == 0:
            raise TelemetryError(
                "cannot decompress telemetry file %s: %s" % (path, exc))
        warnings.append("compressed stream ends early (%s); later "
                        "events may be missing" % exc)
    if total_lines == 0:
        raise TelemetryError("telemetry file %s is empty (did the run "
                             "crash before emitting events?)" % path)
    if bad_lines == total_lines:
        raise TelemetryError("telemetry file %s contains no parseable "
                             "JSONL records (%d bad lines)"
                             % (path, bad_lines))
    if bad_lines:
        tail = (" (last at line %d — likely a truncated trailing write)"
                % last_bad)
        warnings.append("skipped %d unparseable line%s%s"
                        % (bad_lines, "s" if bad_lines != 1 else "", tail))
    schema_version = None
    for record in meta:
        if record.get("record") == "schema":
            try:
                schema_version = int(record.get("version"))
            except (TypeError, ValueError):
                pass
            break
    if schema_version is not None and schema_version > SCHEMA_VERSION:
        warnings.append(
            "file schema v%d is newer than this reader (v%d); unknown "
            "event kinds will be ignored" % (schema_version,
                                             SCHEMA_VERSION))
    return RunFile(path, events, meta, warnings, schema_version)
