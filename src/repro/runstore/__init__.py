"""Content-addressed run store, provenance capture, deterministic replay.

Every recorded exploration is an immutable artifact, keyed by its
inputs and by the code that explored, that can be listed, replayed and
verified bit-for-bit, and deduplicated against.

* :mod:`repro.runstore.store` — the store itself (``RunStore``,
  ``cached_explore``, ``record_exploration``),
* :mod:`repro.runstore.replay` — re-execute + verify (``replay_run``),
* :mod:`repro.runstore.fingerprint` — canonical tree/leaf/defect
  digests that make runs comparable across processes,
* :mod:`repro.runstore.provenance` — environment snapshots and the
  spec and engine digests.

CLI: ``repro record`` (the one way into the store) / ``repro replay``
/ ``repro runs`` / ``repro hot <run-id>``; see docs/OBSERVABILITY.md.
"""

from .certs import (  # noqa: F401
    certificate_key,
    load_certificate,
    save_certificate,
)
from .fingerprint import (  # noqa: F401
    STRUCTURAL_KINDS,
    canonical_events,
    defects_fingerprint,
    first_divergence,
    leaves_fingerprint,
    tree_fingerprint,
)
from .provenance import (  # noqa: F401
    environment_snapshot,
    file_digest,
    spec_digest,
)
from .replay import ReplayReport, replay_run  # noqa: F401
from .store import (  # noqa: F401
    RunStore,
    RunStoreError,
    StoredRun,
    cached_explore,
    image_from_payload,
    image_payload,
    record_exploration,
    resolve_store_root,
    run_key,
)

__all__ = ["RunStore", "RunStoreError", "StoredRun", "cached_explore",
           "record_exploration", "resolve_store_root", "run_key",
           "image_payload", "image_from_payload",
           "ReplayReport", "replay_run",
           "STRUCTURAL_KINDS", "canonical_events", "tree_fingerprint",
           "leaves_fingerprint", "defects_fingerprint",
           "first_divergence",
           "environment_snapshot", "spec_digest", "file_digest",
           "certificate_key", "load_certificate", "save_certificate"]
