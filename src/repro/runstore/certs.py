"""Verification certificates: cached translation-validation verdicts.

A full translation-validation run re-proves every rule of an ISA from
scratch; a *certificate* records that a specific spec, compiled by a
specific code generator, was already verified by a specific validator —
so re-linting an unchanged tree is a cache hit instead of a proof.

Key discipline mirrors the run store: a certificate is addressed by
``(spec digest, codegen version, validator version, pass id)``.  Any
input that could change the verdict is in the key —

* editing the spec changes :func:`~repro.runstore.provenance.spec_digest`,
* changing the code generator bumps
  :data:`repro.compile.CODEGEN_VERSION`,
* changing the validator, or the plan driver
  (:mod:`repro.compile.driver`) it walks plans with, bumps
  :data:`repro.verify.VALIDATOR_VERSION`,

— so a stale "verified" can never be replayed against artifacts it
never saw.  Certificates are stored one JSON file per key under
``<store root>/certs/`` (same root resolution as runs: ``--store`` >
``$REPRO_STORE`` > ``~/.repro/store``) and only written for *clean*
verdicts: counterexamples and unsupported rules must be re-derived
every run so their findings always carry fresh witnesses.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Optional

from .provenance import canonical_json, content_digest
from .store import resolve_store_root

__all__ = ["certificate_key", "load_certificate", "save_certificate"]

CERTS_DIR = "certs"

#: Certificate format version (distinct from the validator version:
#: this one only tracks the *file layout*).
CERT_FORMAT = 1


def certificate_key(spec_digest: str, codegen_version: int,
                    validator_version: int, pass_id: str) -> str:
    """Content address of one (spec, generator, validator, pass) cell."""
    return content_digest({
        "kind": "transval-cert",
        "format": CERT_FORMAT,
        "spec": spec_digest,
        "codegen_version": codegen_version,
        "validator_version": validator_version,
        "pass": pass_id,
    })


def _cert_path(root: Optional[str], key: str) -> str:
    digest = key.split(":", 1)[-1]
    return os.path.join(resolve_store_root(root), CERTS_DIR,
                        digest + ".json")


def load_certificate(spec_digest: str, codegen_version: int,
                     validator_version: int, pass_id: str,
                     store_root: Optional[str] = None
                     ) -> Optional[Dict[str, object]]:
    """The cached clean verdict for this key, or None (miss/corrupt)."""
    key = certificate_key(spec_digest, codegen_version,
                          validator_version, pass_id)
    path = _cert_path(store_root, key)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("key") != key:
        return None
    return payload


def save_certificate(spec_digest: str, codegen_version: int,
                     validator_version: int, pass_id: str,
                     summary: Dict[str, object],
                     store_root: Optional[str] = None) -> str:
    """Persist a clean verdict; returns the certificate path.

    ``summary`` is the pass's own record (isa, rule count, tier
    counts, wall time) — trusted only as far as its key: any input
    change re-addresses the certificate and forces a re-proof.
    """
    key = certificate_key(spec_digest, codegen_version,
                          validator_version, pass_id)
    path = _cert_path(store_root, key)
    payload = {
        "key": key,
        "format": CERT_FORMAT,
        "spec": spec_digest,
        "codegen_version": codegen_version,
        "validator_version": validator_version,
        "pass": pass_id,
        "summary": summary,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # Atomic publish: a concurrent reader sees the old cert or the new
    # one, never a torn file.
    handle, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(canonical_json(payload))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
