"""Verification certificates: keying, caching, and invalidation."""

import json
import os

from repro.lint import LintConfig, run_lint
from repro.runstore.certs import (certificate_key, load_certificate,
                                  save_certificate)

SUMMARY = {"isa": "rv32", "rules": 48, "proved": 48, "tiers": {},
           "seconds": 0.1}


class TestKeying:
    def test_every_component_changes_the_key(self):
        base = certificate_key("sha256:aa", 2, 1, "transval-symbolic")
        assert certificate_key("sha256:bb", 2, 1,
                               "transval-symbolic") != base
        assert certificate_key("sha256:aa", 3, 1,
                               "transval-symbolic") != base
        assert certificate_key("sha256:aa", 2, 2,
                               "transval-symbolic") != base
        assert certificate_key("sha256:aa", 2, 1, "p") != base

    def test_key_is_deterministic(self):
        assert certificate_key("sha256:aa", 2, 1, "p") \
            == certificate_key("sha256:aa", 2, 1, "p")


class TestStore:
    def test_round_trip(self, tmp_path):
        root = str(tmp_path)
        path = save_certificate("sha256:aa", 2, 1, "transval-symbolic",
                                SUMMARY, store_root=root)
        assert os.path.exists(path)
        cert = load_certificate("sha256:aa", 2, 1, "transval-symbolic",
                                store_root=root)
        assert cert is not None
        assert cert["summary"] == SUMMARY
        assert cert["spec"] == "sha256:aa"

    def test_miss_on_any_version_bump(self, tmp_path):
        root = str(tmp_path)
        save_certificate("sha256:aa", 2, 1, "p", SUMMARY, store_root=root)
        assert load_certificate("sha256:bb", 2, 1, "p",
                                store_root=root) is None
        assert load_certificate("sha256:aa", 3, 1, "p",
                                store_root=root) is None
        assert load_certificate("sha256:aa", 2, 2, "p",
                                store_root=root) is None

    def test_corrupt_certificate_is_a_miss(self, tmp_path):
        root = str(tmp_path)
        path = save_certificate("sha256:aa", 2, 1, "p", SUMMARY,
                                store_root=root)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        assert load_certificate("sha256:aa", 2, 1, "p",
                                store_root=root) is None

    def test_key_mismatch_inside_payload_is_a_miss(self, tmp_path):
        root = str(tmp_path)
        path = save_certificate("sha256:aa", 2, 1, "p", SUMMARY,
                                store_root=root)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["key"] = "sha256:forged"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert load_certificate("sha256:aa", 2, 1, "p",
                                store_root=root) is None


class TestLintIntegration:
    def _run(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        config = LintConfig(families=["transval"])
        return run_lint("vlx", config=config)

    def test_cold_then_cached(self, monkeypatch, tmp_path):
        cold = self._run(monkeypatch, tmp_path)
        assert all(not f.details.get("cached") for f in cold.findings)
        assert os.path.isdir(os.path.join(str(tmp_path), "certs"))
        cached = self._run(monkeypatch, tmp_path)
        assert cached.findings
        assert all(f.severity == "info" and f.details.get("cached")
                   for f in cached.findings)

    def test_seeded_bug_bypasses_certificates(self, monkeypatch,
                                              tmp_path):
        self._run(monkeypatch, tmp_path)  # warm the certificates
        monkeypatch.setenv("REPRO_TRANSVAL_SEED_BUG", "vlx:add")
        seeded = self._run(monkeypatch, tmp_path)
        errors = [f for f in seeded.findings if f.severity == "error"]
        assert errors and errors[0].pass_id == "transval-symbolic"
        assert errors[0].witness is not None
        # The seeded run neither used nor clobbered the clean certs.
        monkeypatch.delenv("REPRO_TRANSVAL_SEED_BUG")
        clean = self._run(monkeypatch, tmp_path)
        assert all(f.severity == "info" and f.details.get("cached")
                   for f in clean.findings)
