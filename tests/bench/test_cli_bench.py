"""CLI surface of the performance observatory: ``repro bench
list/run/compare/history`` plus ``repro diffstats --json``.

All CLI runs use a synthetic benchmarks directory (one fast,
deterministic module) so the tests are hermetic and timing-free.
"""

import json

import pytest

from repro.cli import main

SYNTHETIC_MODULE = '''
from repro.bench import Sample, benchmark


@benchmark("syn.speedup", title="synthetic speedup", suite="quick",
           isas=("rv32",), unit="x", direction="higher",
           expect_min=1.5, reps=3, warmup=0,
           workload="deterministic synthetic samples")
def _speedup():
    return Sample(2.0, wall_s=0.001)


@benchmark("syn.wall", title="synthetic wall", suite="full",
           unit="s", direction="lower", reps=2, warmup=0,
           workload="more synthetic samples")
def _wall():
    return 0.25
'''

FAILING_MODULE = '''
from repro.bench import benchmark


@benchmark("syn.failing", suite="quick", unit="x", direction="higher",
           expect_min=100.0, reps=2, warmup=0)
def _failing():
    return 2.0
'''


@pytest.fixture
def bench_dir(tmp_path):
    directory = tmp_path / "benchmarks"
    directory.mkdir()
    (directory / "bench_synthetic.py").write_text(SYNTHETIC_MODULE)
    return str(directory)


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "store")


def _run(bench_dir, store_dir, out, extra=()):
    return main(["bench", "run", "--suite", "quick", "--dir", bench_dir,
                 "--store", store_dir, "--out", out, "--quiet"]
                + list(extra))


class TestBenchList:
    def test_list_shows_registrations(self, bench_dir, capsys):
        assert main(["bench", "list", "--dir", bench_dir]) == 0
        out = capsys.readouterr().out
        assert "syn.speedup" in out and "syn.wall" in out
        assert ">= 1.5" in out

    def test_list_quick_filters(self, bench_dir, capsys):
        assert main(["bench", "list", "--dir", bench_dir,
                     "--suite", "quick"]) == 0
        out = capsys.readouterr().out
        assert "syn.speedup" in out and "syn.wall" not in out

    def test_list_json(self, bench_dir, capsys):
        assert main(["bench", "list", "--dir", bench_dir,
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["id"] for row in rows} == {"syn.speedup", "syn.wall"}

    def test_missing_dir_is_error_not_traceback(self, tmp_path, capsys):
        assert main(["bench", "list", "--dir",
                     str(tmp_path / "absent")]) == 1
        assert "error:" in capsys.readouterr().err


class TestBenchRun:
    def test_run_writes_report_and_ledger(self, bench_dir, store_dir,
                                          tmp_path, capsys):
        out = str(tmp_path / "BENCH_A.json")
        assert _run(bench_dir, store_dir, out) == 0
        report = json.load(open(out))
        assert report["schema"] == "repro-bench/1"
        (result,) = report["results"]
        assert result["id"] == "syn.speedup"
        assert result["median"] == 2.0
        assert result["samples"][0]["wall_s"] == 0.001
        ledger_out = capsys.readouterr().out
        assert "ledger:" in ledger_out
        history = (tmp_path / "store" / "bench" /
                   "history.jsonl").read_text()
        assert "syn.speedup" in history

    def test_run_check_passes_met_expectations(self, bench_dir,
                                               store_dir, tmp_path):
        out = str(tmp_path / "BENCH_A.json")
        assert _run(bench_dir, store_dir, out, ["--check"]) == 0

    def test_run_check_fails_unmet_expectation(self, tmp_path, capsys):
        directory = tmp_path / "benchmarks"
        directory.mkdir()
        (directory / "bench_failing.py").write_text(FAILING_MODULE)
        out = str(tmp_path / "BENCH_A.json")
        assert main(["bench", "run", "--suite", "quick",
                     "--dir", str(directory), "--no-ledger",
                     "--out", out, "--quiet", "--check"]) == 3
        assert "FAIL" in capsys.readouterr().err

    def test_run_single_bench_selection(self, bench_dir, store_dir,
                                        tmp_path):
        out = str(tmp_path / "BENCH_A.json")
        assert main(["bench", "run", "--bench", "syn.wall",
                     "--dir", bench_dir, "--no-ledger",
                     "--out", out, "--quiet"]) == 0
        report = json.load(open(out))
        assert [r["id"] for r in report["results"]] == ["syn.wall"]

    def test_run_unknown_bench_is_error(self, bench_dir, capsys):
        assert main(["bench", "run", "--bench", "no.such",
                     "--dir", bench_dir, "--quiet",
                     "--no-ledger"]) == 1
        assert "unknown benchmark" in capsys.readouterr().err

    def test_run_json_emits_report_on_stdout(self, bench_dir, store_dir,
                                             tmp_path, capsys):
        out = str(tmp_path / "BENCH_A.json")
        assert _run(bench_dir, store_dir, out, ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro-bench/1"


class TestBenchCompare:
    def _two_reports(self, bench_dir, store_dir, tmp_path):
        a = str(tmp_path / "BENCH_A.json")
        b = str(tmp_path / "BENCH_B.json")
        assert _run(bench_dir, store_dir, a) == 0
        assert _run(bench_dir, store_dir, b) == 0
        return a, b

    def test_identical_rerun_exits_zero(self, bench_dir, store_dir,
                                        tmp_path, capsys):
        a, b = self._two_reports(bench_dir, store_dir, tmp_path)
        assert main(["bench", "compare", a, b]) == 0
        assert "regressions: 0" in capsys.readouterr().out

    def test_injected_regression_exits_three(self, bench_dir, store_dir,
                                             tmp_path, capsys):
        a, b = self._two_reports(bench_dir, store_dir, tmp_path)
        report = json.load(open(b))
        for result in report["results"]:
            for sample in result["samples"]:
                sample["value"] *= 0.5
            result["median"] *= 0.5
        json.dump(report, open(b, "w"))
        assert main(["bench", "compare", a, b]) == 3
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_json_payload(self, bench_dir, store_dir, tmp_path,
                                  capsys):
        a, b = self._two_reports(bench_dir, store_dir, tmp_path)
        capsys.readouterr()     # drain the run output
        assert main(["bench", "compare", a, b, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == 0
        assert payload["env_match"] is True

    def test_compare_unreadable_input_exits_one(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert main(["bench", "compare", missing, missing]) == 1
        assert "error:" in capsys.readouterr().err


class TestBenchHistory:
    def test_history_sparkline_and_table(self, bench_dir, store_dir,
                                         tmp_path, capsys):
        assert _run(bench_dir, store_dir,
                    str(tmp_path / "BENCH_A.json")) == 0
        assert main(["bench", "history", "syn.speedup",
                     "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "syn.speedup (1 entry" in out
        assert "▄" in out

    def test_history_json(self, bench_dir, store_dir, tmp_path, capsys):
        assert _run(bench_dir, store_dir,
                    str(tmp_path / "BENCH_A.json")) == 0
        capsys.readouterr()     # drain the run output
        assert main(["bench", "history", "syn.speedup",
                     "--store", store_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bench"] == "syn.speedup"
        assert payload["entries"][0]["median"] == 2.0
        assert payload["changepoint"] is None

    def test_history_unknown_bench_exits_one(self, store_dir, capsys):
        assert main(["bench", "history", "no.such",
                     "--store", store_dir]) == 1
        assert "no history" in capsys.readouterr().err


# -- repro diffstats --json ---------------------------------------------------

def _write_sidecar(path, rate):
    records = [{"kind": "meta", "record": "schema", "version": 3}]
    for seq in range(3):
        records.append({"kind": "health", "isa": "rv32", "state": -1,
                        "pc": 0, "ts": 0.1 * seq,
                        "data": {"sample": {"v": 1, "seq": seq,
                                            "t": 0.1 * seq,
                                            "steps_per_sec": rate,
                                            "frontier": 4,
                                            "solver": {"share": 0.2}}}})
    records.append({"kind": "meta", "record": "run_summary",
                    "paths": 2, "defects": 0, "instructions": 1000,
                    "wall_time": 1.0, "stop_reason": "exhausted",
                    "telemetry": {}})
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return str(path)


class TestDiffstatsJson:
    def test_json_payload_matches_exit_logic(self, tmp_path, capsys):
        a = _write_sidecar(tmp_path / "a.jsonl", 1000.0)
        b = _write_sidecar(tmp_path / "b.jsonl", 700.0)
        assert main(["diffstats", a, b, "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] >= 1
        flags = {row["id"]: row["flag"] for row in payload["rows"]}
        assert flags["health.steps_per_sec.mean"] == "regression"

    def test_json_clean_run(self, tmp_path, capsys):
        a = _write_sidecar(tmp_path / "a.jsonl", 1000.0)
        assert main(["diffstats", a, a, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == 0
        assert payload["baseline"] == a
        assert payload["min_rel"] == 0.20

    def test_same_format_as_bench_compare(self, bench_dir, store_dir,
                                          tmp_path, capsys):
        # One format: a consumer of either payload reads both.
        a = _write_sidecar(tmp_path / "a.jsonl", 1000.0)
        b = _write_sidecar(tmp_path / "b.jsonl", 700.0)
        assert main(["diffstats", a, b, "--json"]) == 3
        diffstats = json.loads(capsys.readouterr().out)
        report = str(tmp_path / "BENCH_a.json")
        assert _run(bench_dir, store_dir, report, ["--no-ledger"]) == 0
        capsys.readouterr()
        assert main(["bench", "compare", report, report, "--json"]) == 0
        compare = json.loads(capsys.readouterr().out)
        assert set(diffstats) == set(compare)
        row_keys = {frozenset(row) for payload in (diffstats, compare)
                    for row in payload["rows"]}
        assert len(row_keys) == 1
