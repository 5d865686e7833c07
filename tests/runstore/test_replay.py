"""Deterministic replay: verification, tamper detection, divergence diff.

Acceptance pins:
* record -> replay round-trips rv32 AND mips32 exerciser runs with
  identical tree/leaf/defect fingerprints (exit code 0);
* a tampered run (edited program bytes or config) exits 3 and NAMES
  the diverging field.
"""

import json
import os

import pytest

from repro.core import EngineConfig
from repro.programs.kernels import build_kernel
from repro.runstore import (RunStore, RunStoreError,
                            record_exploration, replay_run)


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "store"))


def record(store, isa, **kwargs):
    model, image = build_kernel("exerciser", isa)
    _, stored = record_exploration(store, model, image,
                                   EngineConfig(collect_coverage=True),
                                   **kwargs)
    return stored


def tamper(stored, mutate):
    path = os.path.join(stored.path, "manifest.json")
    manifest = json.load(open(path))
    mutate(manifest)
    json.dump(manifest, open(path, "w"))


class TestRoundTrip:
    @pytest.mark.parametrize("isa", ["rv32", "mips32"])
    def test_record_replay_verifies(self, store, isa):
        stored = record(store, isa)
        report = replay_run(store, stored.run_id)
        assert report.ok and report.exit_code == 0
        assert report.fingerprints == stored.fingerprints
        assert report.executed

    def test_replay_by_prefix(self, store):
        stored = record(store, "rv32")
        assert replay_run(store, stored.run_id[:10]).ok


class TestTamperDetection:
    def test_edited_program_bytes_exit_3_naming_field(self, store):
        stored = record(store, "rv32")

        def flip(manifest):
            data = manifest["key"]["program"]["data"]
            first = "00" if data[:2] != "00" else "ff"
            manifest["key"]["program"]["data"] = first + data[2:]

        tamper(stored, flip)
        report = replay_run(store, stored.run_id)
        assert report.exit_code == 3
        fields = [field for field, _, _ in report.mismatches]
        assert "key_digests.program" in fields
        assert not report.executed    # tampered runs are never executed
        assert "key_digests.program" in report.summary()

    def test_edited_config_exit_3_naming_field(self, store):
        stored = record(store, "rv32")
        tamper(stored, lambda m:
               m["key"]["config"].__setitem__("max_fork_targets", 2))
        report = replay_run(store, stored.run_id)
        assert report.exit_code == 3
        assert any(field == "key_digests.config"
                   for field, _, _ in report.mismatches)

    def test_consistent_tamper_caught_by_run_id(self, store):
        """Re-digesting the tampered key still cannot fake the
        content-addressed directory name."""
        from repro.runstore.store import key_digests
        stored = record(store, "rv32")

        def consistent(manifest):
            manifest["key"]["seed"] = 42
            manifest["key_digests"] = key_digests(manifest["key"])

        tamper(stored, consistent)
        report = replay_run(store, stored.run_id)
        assert report.exit_code == 3
        assert [field for field, _, _ in report.mismatches] == ["run_id"]

    def test_forged_fingerprint_diverges_with_diff(self, store):
        stored = record(store, "rv32")
        tamper(stored, lambda m:
               m["fingerprints"].__setitem__("tree", "sha256:forged"))
        report = replay_run(store, stored.run_id, diff=True)
        assert report.exit_code == 3
        assert any(field == "fingerprints.tree"
                   for field, _, _ in report.mismatches)
        # The actual event streams agree, so the diff finds nothing —
        # pinpointing the forgery to the manifest, not the execution.
        assert report.divergence is None


class TestErrors:
    def test_missing_run_raises(self, store):
        with pytest.raises(RunStoreError):
            replay_run(store, "cafebabe")
