"""CLI surface of the run store: record / replay / runs."""

import json
import os

import pytest

from repro.cli import main
from repro.programs.kernels import exerciser
from repro.programs.portable import lower

DEMO = """
.org 0x1000
.entry start
start:
    inb x1
    addi x2, x0, 7
    divu x3, x2, x1
    outb x3
    halt 0
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.s"
    path.write_text(DEMO)
    return str(path)


@pytest.fixture
def exerciser_file(tmp_path):
    path = tmp_path / "exerciser.s"
    path.write_text(lower(exerciser(), "rv32"))
    return str(path)


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "store")


def only_run_id(store_dir):
    runs = os.listdir(os.path.join(store_dir, "runs"))
    assert len(runs) == 1
    return runs[0]


class TestRecord:
    def test_record_then_replay_exit_0(self, exerciser_file, store_dir,
                                       capsys):
        assert main(["record", "rv32", exerciser_file,
                     "--store", store_dir]) == 2   # defect kernel
        out = capsys.readouterr().out
        assert "store: recorded" in out
        run_id = only_run_id(store_dir)
        assert main(["replay", run_id, "--store", store_dir]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_second_record_hits(self, demo_file, store_dir, capsys):
        assert main(["record", "rv32", demo_file,
                     "--store", store_dir]) == 2
        capsys.readouterr()
        assert main(["record", "rv32", demo_file,
                     "--store", store_dir]) == 2
        assert "store: hit" in capsys.readouterr().out

    def test_force_replaces_the_stored_run(self, demo_file, store_dir,
                                           capsys):
        """``record --force`` re-explores and swaps a fresh run
        directory in under the same id, which profiles and replays."""
        assert main(["record", "rv32", demo_file,
                     "--store", store_dir]) == 2
        run_id = only_run_id(store_dir)
        marker = os.path.join(store_dir, "runs", run_id, "marker")
        open(marker, "w").close()
        capsys.readouterr()
        assert main(["record", "rv32", demo_file, "--store", store_dir,
                     "--force"]) == 2
        assert "store: recorded %s" % run_id in capsys.readouterr().out
        assert only_run_id(store_dir) == run_id
        assert not os.path.exists(marker)
        assert main(["hot", run_id, "--store", store_dir]) == 0
        assert "cost attribution" in capsys.readouterr().out
        assert main(["replay", run_id, "--store", store_dir]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_non_object_result_is_clean_error(self, demo_file, store_dir,
                                              capsys):
        """``hot`` reads the profile from ``result.json``, and a store
        hit serves it: a result that is not a JSON object is a one-line
        error for both, never a traceback."""
        main(["record", "rv32", demo_file, "--store", store_dir])
        run_id = only_run_id(store_dir)
        with open(os.path.join(store_dir, "runs", run_id, "result.json"),
                  "w") as handle:
            handle.write("[]")
        capsys.readouterr()
        assert main(["hot", run_id, "--store", store_dir]) == 1
        assert main(["record", "rv32", demo_file,
                     "--store", store_dir]) == 1
        assert capsys.readouterr().err.count("no readable result") == 2

    def test_store_env_override(self, demo_file, tmp_path, monkeypatch,
                                capsys):
        env_store = tmp_path / "envstore"
        monkeypatch.setenv("REPRO_STORE", str(env_store))
        # without --store the root resolves via $REPRO_STORE
        assert main(["record", "rv32", demo_file]) == 2
        assert only_run_id(str(env_store))

    @pytest.mark.parametrize("edit, fingerprint", [
        ("emptied", "leaves"),
        ("path removed", "leaves"),
        ("defect removed", "defects"),
    ])
    def test_hit_checks_result_against_manifest(
            self, exerciser_file, store_dir, capsys, edit, fingerprint):
        """A store hit serves ``result.json`` only if its paths and
        defects still match the manifest's fingerprints; otherwise
        ``record`` prints one line naming the run and the fingerprint
        and exits 1."""
        assert main(["record", "rv32", exerciser_file,
                     "--store", store_dir]) == 2
        run_id = only_run_id(store_dir)
        path = os.path.join(store_dir, "runs", run_id, "result.json")
        result = json.load(open(path))
        if edit == "emptied":
            result = {}
        else:
            section = result["paths" if edit == "path removed"
                             else "defects"]
            assert section
            section.pop()
        json.dump(result, open(path, "w"))
        capsys.readouterr()
        assert main(["record", "rv32", exerciser_file,
                     "--store", store_dir]) == 1
        captured = capsys.readouterr()
        assert "store: hit" not in captured.out
        [line] = captured.err.splitlines()
        assert run_id in line and fingerprint + " fingerprint" in line


class TestReplayCli:
    def test_tampered_config_exits_3(self, demo_file, store_dir,
                                     capsys):
        main(["record", "rv32", demo_file, "--store", store_dir])
        run_id = only_run_id(store_dir)
        manifest_path = os.path.join(store_dir, "runs", run_id,
                                     "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["key"]["config"]["max_steps_per_path"] = 1
        json.dump(manifest, open(manifest_path, "w"))
        capsys.readouterr()
        assert main(["replay", run_id, "--store", store_dir,
                     "--diff"]) == 3
        out = capsys.readouterr().out
        assert "DIVERGED" in out and "key_digests.config" in out

    def test_unknown_run_exits_1(self, store_dir, capsys):
        assert main(["replay", "beefbeef", "--store", store_dir]) == 1
        assert "error:" in capsys.readouterr().err


class TestRunsCli:
    def test_list_and_show(self, demo_file, store_dir, capsys):
        main(["record", "rv32", demo_file, "--store", store_dir])
        run_id = only_run_id(store_dir)
        capsys.readouterr()
        assert main(["runs", "--store", store_dir]) == 0
        assert run_id in capsys.readouterr().out
        assert main(["runs", "--store", store_dir,
                     "--show", run_id[:8]]) == 0
        out = capsys.readouterr().out
        assert "fp.tree" in out and "python:" in out

    def test_empty_store(self, store_dir, capsys):
        assert main(["runs", "--store", store_dir]) == 0
        assert "empty" in capsys.readouterr().out

    def test_gc_keep(self, demo_file, store_dir, capsys):
        main(["record", "rv32", demo_file, "--store", store_dir])
        main(["record", "rv32", demo_file, "--store", store_dir,
              "--seed", "1"])
        capsys.readouterr()
        assert main(["runs", "--store", store_dir, "--gc",
                     "--keep", "1"]) == 0
        assert "deleted 1 run" in capsys.readouterr().out


class TestMalformedManifest:
    @pytest.mark.parametrize("text", ['{"key": [1]}', "[]", "not json"])
    def test_one_line_per_unreadable_run(self, demo_file, store_dir,
                                         capsys, text):
        """``runs`` lists every readable run and names each unreadable
        one on a stderr line; ``runs --show`` and ``replay`` of the
        unreadable run print one line.  All three exit 1."""
        for seed in ("0", "1"):
            main(["record", "rv32", demo_file, "--store", store_dir,
                  "--seed", seed])
        bad, good = sorted(os.listdir(os.path.join(store_dir, "runs")))
        with open(os.path.join(store_dir, "runs", bad, "manifest.json"),
                  "w") as handle:
            handle.write(text)
        capsys.readouterr()
        assert main(["runs", "--store", store_dir]) == 1
        captured = capsys.readouterr()
        assert good in captured.out and bad not in captured.out
        [line] = captured.err.splitlines()
        assert line.startswith("error:") and bad in line
        for argv in (["runs", "--show", bad], ["replay", bad]):
            assert main(argv + ["--store", store_dir]) == 1, argv
            captured = capsys.readouterr()
            [line] = captured.err.splitlines()
            assert line.startswith("error:") and bad in line, argv
