"""Canonical fingerprints of an exploration: what replay verifies.

A replay is *bit-for-bit faithful* when three digests match the
recorded run:

* the **tree fingerprint** — the execution tree rebuilt from the
  structural event stream (``step`` / ``fork`` / ``merge`` /
  ``path_end`` / ``defect`` / ``prune``),
* the **leaves fingerprint** — every finished path's status, exit code
  and concretized input, in discovery order,
* the **defects fingerprint** — every filed defect's kind, site,
  instruction, message and triggering input.

Raw event streams are *not* directly comparable across processes: state
ids come from a process-global counter (``repro.core.state``), so the
same exploration started later in a process numbers its states higher,
and timestamps are wall-clock.  :func:`canonical_events` therefore
remaps state ids to first-appearance order and zeroes timestamps; only
then are streams hashed or diffed (:func:`first_divergence`).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

from ..obs.events import (DEFECT, FORK, MERGE, PATH_END, PRUNE, STEP,
                          Event)
from ..obs.tree import ExecutionTree

__all__ = ["STRUCTURAL_KINDS", "canonical_events", "tree_fingerprint",
           "leaves_fingerprint", "defects_fingerprint",
           "first_divergence"]

#: Event kinds that define the *shape* of an exploration.  Timing
#: kinds (``solver_check``, ``health``, ...) legitimately differ
#: between a record and its replay and are excluded from fingerprints.
STRUCTURAL_KINDS = (STEP, FORK, MERGE, PATH_END, DEFECT, PRUNE)

# data keys whose values are state ids (or lists of them) and must be
# remapped alongside Event.state_id.
_ID_LIST_KEYS = {FORK: "children", MERGE: "merged_from"}
_ID_KEYS = {PRUNE: "parent"}


def canonical_events(events: Iterable[Event]) -> List[Event]:
    """Structural events with process-portable ids and no timestamps.

    State ids are remapped to dense first-appearance order (the id a
    state would have received in a fresh process); the remap covers the
    id-carrying payload keys too (fork ``children``, merge
    ``merged_from``, prune ``parent``).  Timestamps are zeroed.
    """
    remap: Dict[int, int] = {}

    def rid(state_id) -> int:
        if not isinstance(state_id, int):
            return state_id
        mapped = remap.get(state_id)
        if mapped is None:
            mapped = remap[state_id] = len(remap)
        return mapped

    canonical: List[Event] = []
    for event in events:
        if event.kind not in STRUCTURAL_KINDS:
            continue
        # The acting state registers before any ids in its payload, so
        # e.g. a fork parent numbers lower than its children.
        sid = rid(event.state_id)
        data = dict(event.data) if event.data else {}
        list_key = _ID_LIST_KEYS.get(event.kind)
        if list_key and list_key in data:
            data[list_key] = [rid(child) for child in data[list_key]]
        id_key = _ID_KEYS.get(event.kind)
        if id_key and id_key in data:
            data[id_key] = rid(data[id_key])
        canonical.append(Event(event.kind, event.isa, sid, event.pc,
                               0.0, data or None))
    return canonical


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


#: The schema number written into the tree JSON that
#: :func:`tree_fingerprint` digests: the event schema of the release
#: that defined the digest, frozen so that a tree's fingerprint depends
#: on the tree alone.  Following ``SCHEMA_VERSION`` would change every
#: fingerprint on each wire-format bump, and stored runs would no longer
#: verify on replay.
TREE_DIGEST_SCHEMA = 5


def tree_fingerprint(events: Iterable[Event]) -> str:
    """Digest of the execution tree rebuilt from canonical events."""
    tree = ExecutionTree.from_events(canonical_events(events))
    return _digest(tree.to_json(schema=TREE_DIGEST_SCHEMA))


def leaves_fingerprint(paths: Iterable[Dict[str, object]]) -> str:
    """Digest over finished paths (serialized ``PathResult`` dicts:
    ``status`` / ``exit_code`` / ``input`` hex), in discovery order."""
    rows = ["%s|%s|%s" % (path.get("status"), path.get("exit_code"),
                          path.get("input"))
            for path in paths]
    return _digest("\n".join(rows))


def defects_fingerprint(defects: Iterable[Dict[str, object]]) -> str:
    """Digest over filed defects (serialized ``Defect`` dicts), in
    discovery order."""
    rows = ["%s|%s|%s|%s|%s" % (defect.get("kind"), defect.get("pc"),
                                defect.get("instruction"),
                                defect.get("message"),
                                defect.get("input"))
            for defect in defects]
    return _digest("\n".join(rows))


def first_divergence(recorded: Iterable[Event],
                     replayed: Iterable[Event]
                     ) -> Optional[Tuple[int, Optional[Event],
                                         Optional[Event]]]:
    """First position where the canonical streams differ.

    Returns ``(index, recorded_event, replayed_event)`` — either event
    is None when one stream ended early — or None when the structural
    streams are identical.  Drives ``repro replay --diff``.
    """
    canon_a = canonical_events(recorded)
    canon_b = canonical_events(replayed)
    for index, (left, right) in enumerate(zip(canon_a, canon_b)):
        if left != right:
            return index, left, right
    if len(canon_a) != len(canon_b):
        shorter = min(len(canon_a), len(canon_b))
        left = canon_a[shorter] if shorter < len(canon_a) else None
        right = canon_b[shorter] if shorter < len(canon_b) else None
        return shorter, left, right
    return None
