"""Tests for the end-to-end benchmark.  Run with ``pytest benchmarks/e2e``.

The defect-suite workload is used where a whole run is needed: its
programs explore in about a millisecond, so a run with tiny passes
takes a second or two.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

if not run.use_checkout_sources():
    pytest.skip("no engine sources in this checkout", allow_module_level=True)

import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from repro.core import Engine  # noqa: E402
from repro.programs.portable import lower  # noqa: E402

ROOT = HERE.parent.parent
TINY = ["--workload", "defect-suite", "--seconds", "0.3"]


def _in_process(capsys, *argv):
    """Run one workload in this process; (exit code, lines, JSON)."""
    code = run.main(["--child", *argv])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def _digest(lines):
    return next(line.split()[-1] for line in lines
                if "result_digest" in line)


def test_tiny_run_prints_every_metric_with_unit():
    child = subprocess.run([sys.executable, str(HERE / "run.py"), *TINY],
                           cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stdout
    lines = child.stdout.splitlines()
    payload = json.loads(lines[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] and payload["failed"] == 0
    assert payload["attempted"] >= measure.MIN_TRAVERSALS * len(
        workloads.programs("defect-suite", 0))
    for name, unit in measure.END_TO_END + [("failed_ratio", "ratio")]:
        assert any(line.split()[:2] == ["defect-suite", name]
                   and unit in line.split() for line in lines), name
    assert {name: metric["unit"] for name, metric
            in payload["metrics"].items()} == dict(measure.END_TO_END)
    assert all(metric["value"] > 0 for metric in payload["metrics"].values())


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == measure.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["run_seconds"] == run.MEASURED_S


def _programs(name, seed):
    return [(program.id, lower(program.source, program.isa))
            for program in workloads.programs(name, seed)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_programs(name):
    assert _programs(name, 3) == _programs(name, 3)
    assert _programs(name, 3) != _programs(name, 4)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_seed_runs_the_same_mix(name):
    def mix(seed):
        return sorted((workloads.shape(program.id), program.isa)
                      for program in workloads.programs(name, seed))
    assert mix(1) == mix(2)
    # Each shape runs equally often on every ISA.
    for shape in {shape for shape, _isa in mix(1)}:
        assert len({mix(1).count((shape, isa))
                    for isa in workloads.ISAS}) == 1, shape


def test_traced_and_untraced_digests_agree(capsys):
    code, plain, _ = _in_process(capsys, *TINY, "--seed", "5")
    assert code == 0
    code, traced, payload = _in_process(capsys, *TINY, "--seed", "5",
                                        "--trace", "1")
    assert code == 0
    assert _digest(plain) == _digest(traced)
    assert list(payload["metrics"]) == [name for name, _u in layers.PER_LAYER]
    trace = json.loads(
        (measure.OUT / "defect-suite" / "trace.json").read_text())
    assert trace["result_digest"] == _digest(plain)
    names = {span[1] for span in trace["spans"]}
    assert names == set(layers.FULL_SPANS)
    # The tracer restored every patched attribute.
    for owner, attr, _name in layers.ENTRIES:
        assert not hasattr(owner.__dict__[attr], "__wrapped__")


def test_tracer_restores_everything_when_an_entry_is_missing(monkeypatch):
    missing = (Engine, "no_such_method", "core.executor.missing")
    monkeypatch.setattr(layers, "ENTRIES", layers.ENTRIES + [missing])
    with pytest.raises(KeyError):
        with layers.LayerTracer():
            pass
    for owner, attr, _name in layers.ENTRIES[:-1]:
        assert not hasattr(owner.__dict__[attr], "__wrapped__")


def test_a_dropped_defect_fails_the_run(monkeypatch, capsys):
    original = Engine.explore

    def dropping(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        del result.defects[:1]
        return result

    monkeypatch.setattr(Engine, "explore", dropping)
    code, lines, payload = _in_process(capsys, *TINY)
    assert code != 0
    assert not payload["correct"]
    assert payload["failed"] > 0
    ratio = next(line for line in lines if "failed_ratio" in line)
    assert float(ratio.split()[2]) > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        shutil.copy(source, copy)
    child = subprocess.run([sys.executable, str(copy / "run.py"), *TINY],
                           cwd=tmp_path, stdout=subprocess.PIPE, text=True,
                           timeout=60)
    assert child.returncode != 0
    assert not child.stdout.strip()
