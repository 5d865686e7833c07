"""Provenance capture: who/what/where produced a recorded run.

Reproducing a symbolic-execution run bit-for-bit needs the *inputs*
(spec, program bytes, config, strategy, seed — the run-store key, see
:mod:`repro.runstore.store`) — but auditing a divergence needs the
*context*: which python, which platform, which package version, which
git revision, which exact spec file bytes, which command line.  This
module captures that context as a plain JSON-able dict:

* :func:`environment_snapshot` — python/platform/package/git block,
  stamped into every JSONL sidecar's ``schema`` meta record (schema v4)
  and into every stored run's manifest,
* :func:`spec_digest` — the content digest of an ISA's ADL spec source
  (the first component of the run-store key: two runs over different
  spec revisions are different runs),
* :func:`file_digest` — generic helper for hashing artifact files.

Everything is best-effort and dependency-free: no git binary is
invoked (``.git/HEAD`` is read directly when present), and a missing
source file degrades to a digest over the generated model's rule table
rather than an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from typing import Dict, List, Optional

from .. import __version__
from ..obs.events import SCHEMA_VERSION

__all__ = ["environment_snapshot", "spec_digest", "file_digest",
           "git_revision", "canonical_json", "content_digest"]


def canonical_json(payload) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace) —
    the serialization under every content digest in the run store."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(payload) -> str:
    """``sha256:<hex>`` digest of a JSON-able payload's canonical form."""
    rendered = canonical_json(payload).encode("utf-8")
    return "sha256:" + hashlib.sha256(rendered).hexdigest()


def file_digest(path: str) -> str:
    """``sha256:<hex>`` digest of a file's bytes."""
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            hasher.update(chunk)
    return "sha256:" + hasher.hexdigest()


def spec_digest(model) -> str:
    """Content digest of the ADL spec behind an :class:`ArchModel`.

    :func:`repro.isa.build` records the digest of the bytes it parsed
    (``model.source_digest``), so the digest names the semantics the
    model runs even when the file is edited afterwards.  A hand-built
    model falls back to its spec file's bytes (``model.source_path``)
    or, without a known source — e.g. built from an in-memory spec in a
    test — to a digest over every rule's name and IR, which changes
    whenever the semantics do (compiled code is cached under this
    digest).  The fallback is computed once and recorded on the model.
    """
    digest = getattr(model, "source_digest", None)
    if digest is not None:
        return digest
    source = getattr(model, "source_path", None)
    if source and os.path.exists(source):
        digest = file_digest(source)
    else:
        rows = ["%s %r" % (instr.name, instr.semantics)
                for instr in model.instructions]
        digest = content_digest({"isa": model.name, "rules": rows})
    model.source_digest = digest
    return digest


def git_revision(start: Optional[str] = None) -> Optional[str]:
    """Best-effort git HEAD sha, without invoking git.

    Walks up from ``start`` (default: this package's directory) looking
    for ``.git/HEAD``; follows one level of ``ref:`` indirection via
    the loose ref file or ``packed-refs``.  Returns None when the tree
    is not a checkout — provenance is best-effort by design.
    """
    directory = os.path.abspath(start or os.path.dirname(__file__))
    for _ in range(12):
        head_path = os.path.join(directory, ".git", "HEAD")
        if os.path.exists(head_path):
            return _resolve_head(os.path.join(directory, ".git"))
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    return None


def _resolve_head(git_dir: str) -> Optional[str]:
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
    except OSError:
        return None
    if not head.startswith("ref:"):
        return head or None
    ref = head.split(":", 1)[1].strip()
    loose = os.path.join(git_dir, *ref.split("/"))
    try:
        with open(loose) as handle:
            return handle.read().strip() or None
    except OSError:
        pass
    try:
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                line = line.strip()
                if line.endswith(" " + ref):
                    return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment_snapshot(argv: Optional[List[str]] = None,
                         spec_digests: Optional[Dict[str, str]] = None
                         ) -> Dict[str, object]:
    """The environment/provenance block of a recorded run.

    Stamped into the ``schema`` meta record of every JSONL sidecar
    (schema v4) and into run-store manifests.  ``argv`` and
    ``spec_digests`` are caller-supplied extensions (the CLI passes the
    command line and the explored ISA's spec digest).
    """
    snapshot: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "package": "repro",
        "package_version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    revision = git_revision()
    if revision:
        snapshot["git_sha"] = revision
    if argv is not None:
        snapshot["argv"] = list(argv)
    if spec_digests:
        snapshot["spec_digests"] = dict(spec_digests)
    return snapshot
