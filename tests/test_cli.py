"""Tests for the ``python -m repro`` command-line interface."""

import errno
import os
import sys

import pytest

from repro.cli import main

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

CLEAN = """
.org 0x1000
start:
    addi x1, x0, 65
    outb x1
    halt 0
.entry start
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.s"
    path.write_text(DEMO)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.s"
    path.write_text(CLEAN)
    return str(path)


class TestIsas:
    def test_lists_all_builtins(self, capsys):
        assert main(["isas"]) == 0
        out = capsys.readouterr().out
        for name in ("rv32", "mips32", "armlite", "vlx", "pred32"):
            assert name in out


class TestAsmDis:
    def test_asm_hexdump_and_symbols(self, demo_file, capsys):
        assert main(["asm", "rv32", demo_file]) == 0
        out = capsys.readouterr().out
        assert "20 bytes at 0x1000" in out
        assert "start" in out

    def test_dis_shows_mnemonics(self, demo_file, capsys):
        assert main(["dis", "rv32", demo_file]) == 0
        out = capsys.readouterr().out
        assert "divu x3, x2, x1" in out
        assert "halt 0" in out

    def test_custom_base(self, tmp_path, capsys):
        path = tmp_path / "b.s"
        path.write_text(".org 0x2000\nhalt 0\n")
        assert main(["asm", "rv32", str(path), "--base", "0x2000"]) == 0
        assert "0x2000" in capsys.readouterr().out


class TestRun:
    def test_run_clean_exits_zero(self, clean_file, capsys):
        assert main(["run", "rv32", clean_file]) == 0
        assert "output: b'A'" in capsys.readouterr().out

    def test_run_with_input_escapes(self, demo_file, capsys):
        assert main(["run", "rv32", demo_file, "--input", r"\x02"]) == 0
        assert r"b'\x03'" in capsys.readouterr().out

    def test_run_trap_exit_code(self, tmp_path):
        path = tmp_path / "t.s"
        path.write_text(".org 0x1000\ntrap 1\n")
        assert main(["run", "rv32", str(path)]) == 2

    def test_budget_exhaustion(self, tmp_path, capsys):
        path = tmp_path / "loop.s"
        path.write_text(".org 0x1000\nloop: jal x0, loop\n")
        assert main(["run", "rv32", str(path), "--max-steps", "5"]) == 1


class TestTrace:
    def test_trace_lists_instructions(self, clean_file, capsys):
        assert main(["trace", "rv32", clean_file]) == 0
        out = capsys.readouterr().out
        assert "addi x1, x0, 65" in out
        assert "out b'A'" in out


class TestExplore:
    def test_explore_reports_defect(self, demo_file, capsys):
        assert main(["explore", "rv32", demo_file]) == 2
        out = capsys.readouterr().out
        assert "division-by-zero" in out
        assert "coverage:" in out

    def test_explore_clean_returns_zero(self, clean_file, capsys):
        assert main(["explore", "rv32", clean_file]) == 0
        assert "defects=0" in capsys.readouterr().out

    def test_explore_strategy_and_merge_flags(self, clean_file):
        assert main(["explore", "rv32", clean_file, "--strategy", "bfs",
                     "--merge"]) == 0

    def test_explore_region_flag(self, tmp_path):
        path = tmp_path / "r.s"
        path.write_text("""
        .org 0x1000
        lui x1, 8
        lbu x2, 0(x1)      # 0x8000: only mapped via --region
        halt 0
        """)
        assert main(["explore", "rv32", str(path)]) == 2   # OOB
        assert main(["explore", "rv32", str(path),
                     "--region", "0x8000:16"]) == 0

    def test_explore_taint_flag(self, tmp_path, capsys):
        path = tmp_path / "taint.s"
        path.write_text("""
        .org 0x1000
        start:
            inb x1
            andi x1, x1, 4
            lui x2, 1
            addi x2, x2, 0x100
            add x2, x2, x1
            jalr x0, 0(x2)
        .org 0x1100
            halt 1
            halt 2
        .entry start
        """)
        assert main(["explore", "rv32", str(path), "--taint"]) == 2
        assert "tainted-control-flow" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["explore", "record"])
    def test_compiled_flag_is_gone(self, clean_file, command, capsys):
        """The engine has one evaluator, so there is nothing to select."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "rv32", clean_file, "--compiled"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --compiled" \
            in capsys.readouterr().err

    def test_run_keeps_compiled_flag(self, clean_file, capsys):
        assert main(["run", "rv32", clean_file, "--compiled"]) == 0
        assert "output: b'A'" in capsys.readouterr().out


class TestCfg:
    def test_cfg_prints_blocks(self, demo_file, capsys):
        assert main(["cfg", "rv32", demo_file]) == 0
        out = capsys.readouterr().out
        assert "1 blocks" in out and "halt" in out

    def test_cfg_branching(self, tmp_path, capsys):
        path = tmp_path / "br.s"
        path.write_text("""
        .org 0x1000
        inb x1
        beq x1, x0, a
        halt 1
        a: halt 2
        """)
        assert main(["cfg", "rv32", str(path)]) == 0
        assert "3 blocks" in capsys.readouterr().out


BRANCHY = """
.org 0x1000
.entry start
start:
    inb x1
    andi x1, x1, 1
    beq x1, x0, even
    addi x2, x0, 1
    jal x0, done
even:
    addi x2, x0, 2
done:
    outb x2
    halt 0
"""


@pytest.fixture
def run_file(tmp_path):
    """An exploration persisted with --telemetry-out."""
    source = tmp_path / "branchy.s"
    source.write_text(BRANCHY)
    run = tmp_path / "run.jsonl"
    assert main(["explore", "rv32", str(source),
                 "--telemetry-out", str(run)]) == 0
    return str(run)


class TestTelemetryReaders:
    """stats / tree / speccov share one tolerant loader (satellite 2)."""

    def test_stats(self, run_file, capsys):
        assert main(["stats", run_file]) == 0
        out = capsys.readouterr().out
        assert "per-event-kind" in out and "step" in out

    def test_tree_ascii(self, run_file, capsys):
        assert main(["tree", run_file]) == 0
        out = capsys.readouterr().out
        assert "execution tree" in out
        assert "halted" in out

    def test_tree_dot_to_file(self, run_file, tmp_path, capsys):
        out_path = tmp_path / "tree.dot"
        assert main(["tree", run_file, "--format", "dot",
                     "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("digraph exploration {")

    def test_tree_json(self, run_file, capsys):
        import json
        assert main(["tree", run_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["isa"] == "rv32"
        assert payload["stats"]["leaves"] == len(payload["nodes"]) - \
            payload["stats"]["pruned"] - payload["stats"]["live"] - \
            sum(1 for n in payload["nodes"] if n["status"] == "merged")

    def test_speccov_report_and_gate(self, run_file, capsys):
        assert main(["speccov", run_file, "--min-ratio", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "spec coverage: rv32" in out
        assert "gate: every ISA >= 0.05" in out

    def test_speccov_gate_failure(self, run_file, capsys):
        assert main(["speccov", run_file, "--min-ratio", "1.1"]) == 1
        err = capsys.readouterr().err
        assert "rule coverage below 1.10" in err

    def test_speccov_annotate(self, run_file, capsys):
        assert main(["speccov", run_file, "--annotate"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# annotated spec coverage: rv32")

    @pytest.mark.parametrize("command", ["stats", "tree", "speccov"])
    def test_missing_file_is_one_line_error(self, command, tmp_path,
                                            capsys):
        assert main([command, str(tmp_path / "absent.jsonl")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["stats", "tree", "speccov"])
    def test_empty_file_is_one_line_error(self, command, tmp_path,
                                          capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert "empty" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["stats", "tree", "speccov"])
    def test_garbage_file_is_one_line_error(self, command, tmp_path,
                                            capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n{{{\n")
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert "no parseable" in captured.err

    def test_truncated_trailing_line_warns_but_succeeds(
            self, run_file, tmp_path, capsys):
        # Chop the file mid-record, as a killed run would leave it.
        data = open(run_file).read()
        truncated = tmp_path / "trunc.jsonl"
        truncated.write_text(data[:len(data) - 25])
        assert main(["tree", str(truncated)]) == 0
        captured = capsys.readouterr()
        assert "truncated trailing write" in captured.err
        assert "execution tree" in captured.out

    def test_tree_on_eventless_run(self, tmp_path, capsys):
        path = tmp_path / "meta-only.jsonl"
        path.write_text('{"kind": "meta", "record": "schema", '
                        '"version": 2}\n')
        assert main(["tree", str(path)]) == 1
        assert "no step/fork events" in capsys.readouterr().err

    def test_speccov_on_eventless_run(self, tmp_path, capsys):
        path = tmp_path / "meta-only.jsonl"
        path.write_text('{"kind": "meta", "record": "schema", '
                        '"version": 2}\n')
        assert main(["speccov", str(path)]) == 1
        assert "no step events" in capsys.readouterr().err

    def test_explore_prints_unified_coverage(self, run_file, tmp_path,
                                             capsys):
        source = tmp_path / "branchy2.s"
        source.write_text(BRANCHY)
        assert main(["explore", "rv32", str(source)]) == 0
        out = capsys.readouterr().out
        assert "coverage:" in out
        assert "speccov[rv32]" in out


@pytest.fixture
def health_run(tmp_path):
    """An exploration persisted with the health monitor attached."""
    source = tmp_path / "branchy.s"
    source.write_text(BRANCHY)
    run = tmp_path / "health.jsonl"
    assert main(["explore", "rv32", str(source),
                 "--telemetry-out", str(run),
                 "--health", "--health-every", "4"]) == 0
    return str(run)


def _write_sidecar(path, rate, wall_time=1.0):
    """Minimal synthetic telemetry sidecar (timing-noise-free, so the
    diffstats exit-code assertions are deterministic)."""
    import json
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
                    "wall_time": wall_time, "stop_reason": "exhausted",
                    "telemetry": {}})
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return str(path)


class TestHealthCLI:
    """PR 4: --health / --max-seconds explore flags."""

    def test_explore_health_report_contents(self, tmp_path, capsys):
        source = tmp_path / "branchy.s"
        source.write_text(BRANCHY)
        assert main(["explore", "rv32", str(source),
                     "--health", "--health-every", "4"]) == 0
        out = capsys.readouterr().out
        assert "== health monitor ==" in out
        assert "health: samples=" in out
        assert "watchdog: healthy (0 diagnoses)" in out

    def test_explore_max_seconds_deadline(self, demo_file, capsys):
        assert main(["explore", "rv32", demo_file,
                     "--max-seconds", "0"]) == 0
        assert "stop=deadline" in capsys.readouterr().out


class TestRemovedOptions:
    """The watchdog's actions, the live metrics endpoint, Prometheus
    output, ``repro top`` and attribution's sampling knobs are gone:
    asking for them is argparse's usage error, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["explore", "rv32", "{source}", "--on-pressure", "stop"],
        ["explore", "rv32", "{source}", "--serve-metrics", "0"],
        ["top", "{run}"],
        ["metrics", "{run}", "--prom"],
        ["explore", "rv32", "{source}", "--attr", "full"],
        ["explore", "rv32", "{source}", "--attr-every", "4"],
        ["record", "rv32", "{source}", "--attr", "off"],
    ], ids=["on-pressure", "serve-metrics", "top", "metrics-prom",
            "attr-full", "attr-every", "record-attr-off"])
    def test_usage_error(self, argv, clean_file, run_file, capsys):
        argv = [arg.format(source=clean_file, run=run_file)
                for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "Traceback" not in err


class _ClosedPipe:
    """A stdout whose reader has gone: every write fails as a write to a
    pipe closed at the far end does."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self):
        pass

    def fileno(self):
        return self._fd


class TestBrokenPipe:
    """A reader piped into a consumer that closes early (``repro stats
    run.jsonl | head -1``) exits 1 without a traceback, its stdout
    pointed at the null device so the flush at exit cannot fail."""

    @pytest.fixture
    def attr_run(self, tmp_path):
        source = tmp_path / "branchy.s"
        source.write_text(BRANCHY)
        run = tmp_path / "attr.jsonl"
        assert main(["explore", "rv32", str(source), "--attr",
                     "--telemetry-out", str(run)]) == 0
        return str(run)

    @pytest.mark.parametrize("command", ["stats", "tree", "metrics", "hot"])
    def test_reader_exits_quietly(self, command, attr_run, tmp_path,
                                  capsys):
        capsys.readouterr()
        fd = os.open(str(tmp_path / "stdout"), os.O_WRONLY | os.O_CREAT)
        saved = sys.stdout
        sys.stdout = _ClosedPipe(fd)
        try:
            code = main([command, attr_run])
            redirected = os.path.samestat(os.fstat(fd),
                                          os.stat(os.devnull))
        finally:
            sys.stdout = saved
            os.close(fd)
        assert code == 1
        assert redirected
        assert capsys.readouterr().err == ""


class TestMetricsCLI:
    def test_metrics_table(self, health_run, capsys):
        assert main(["metrics", health_run]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "decode.cache_hit" in out
        assert "solver.check_ms" in out
        # The counts the run summary carries are not repeated here.
        assert "engine." not in out
        assert "health." not in out
        assert "solver.cache" not in out

    def test_metrics_without_summary_is_graceful(self, tmp_path,
                                                 capsys):
        path = tmp_path / "meta-only.jsonl"
        path.write_text('{"kind": "meta", "record": "schema", '
                        '"version": 3}\n'
                        '{"kind": "step", "isa": "rv32", "state": 0, '
                        '"pc": 4096, "ts": 0.0}\n')
        assert main(["metrics", str(path)]) == 1
        err = capsys.readouterr().err
        assert "no metrics section" in err
        assert "Traceback" not in err


#: A schema-v5 sidecar: ``repro explore rv32 <exerciser> --attr
#: --telemetry-out``, recorded before the run summary carried each count
#: once.  Its attr block's ``source`` and its ``env.platform`` are
#: cleared; they named the recording checkout and host.
V5_SIDECAR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "obs", "sidecar_v5_rv32.jsonl")


@pytest.fixture
def exerciser_file(tmp_path):
    from repro.programs.kernels import exerciser
    from repro.programs.portable import lower
    path = tmp_path / "exerciser.s"
    path.write_text(lower(exerciser(), "rv32"))
    return str(path)


def _explore_sidecar(exerciser_file, path, *flags):
    assert main(["explore", "rv32", exerciser_file,
                 "--telemetry-out", path] + list(flags)) == 2
    from repro.obs import load_run
    return load_run(path)


class TestSidecarCountsOnce:
    def test_default_sidecar_carries_each_count_once(
            self, exerciser_file, tmp_path, capsys):
        from repro.obs.events import SCHEMA_VERSION
        run = _explore_sidecar(exerciser_file, str(tmp_path / "run.jsonl"))
        capsys.readouterr()
        assert SCHEMA_VERSION == run.schema_version == 6
        summary = run.run_summary()
        telemetry = summary["telemetry"]
        counters = telemetry["metrics"]["counters"]
        assert telemetry["solver"]["checks"] > 0
        assert not [name for name in counters
                    if name.split(".")[0] in ("engine", "solver",
                                              "health")]
        assert "wall_time" in summary and "wall_time" not in telemetry
        assert (summary["paths"], summary["defects"], summary["forks"],
                summary["pruned"]) == (1, 1, 1, 0)

    def test_v5_sidecar_still_reads(self, capsys):
        from repro.obs import load_run
        assert load_run(V5_SIDECAR).schema_version == 5
        assert main(["stats", V5_SIDECAR]) == 0
        out = capsys.readouterr().out
        assert "run summary: paths=1 defects=1" in out
        assert "solver cache: hits=2 model_reuse=1" in out
        assert main(["metrics", V5_SIDECAR]) == 0
        assert "engine.steps" in capsys.readouterr().out
        assert main(["hot", V5_SIDECAR]) == 0
        assert "hottest rules:" in capsys.readouterr().out

    def test_diffstats_v5_against_v6(self, exerciser_file, tmp_path,
                                     capsys):
        current = str(tmp_path / "v6.jsonl")
        _explore_sidecar(exerciser_file, current, "--attr")
        capsys.readouterr()
        assert main(["diffstats", V5_SIDECAR, current,
                     "--threshold", "1000"]) == 0
        captured = capsys.readouterr()
        assert "solver.checks" in captured.out
        assert "solver.cache_hit_ratio" in captured.out
        assert "Traceback" not in captured.err


class TestDiffstatsCLI:
    def test_equal_runs_exit_zero(self, tmp_path, capsys):
        a = _write_sidecar(tmp_path / "a.jsonl", 1000.0)
        b = _write_sidecar(tmp_path / "b.jsonl", 1000.0)
        assert main(["diffstats", a, b]) == 0
        assert "regressions: 0" in capsys.readouterr().out

    def test_injected_regression_exits_three(self, tmp_path, capsys):
        a = _write_sidecar(tmp_path / "a.jsonl", 1000.0)
        b = _write_sidecar(tmp_path / "b.jsonl", 700.0)   # 30% slower
        assert main(["diffstats", a, b]) == 3
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "health.steps_per_sec.mean" in out

    def test_threshold_flag(self, tmp_path):
        a = _write_sidecar(tmp_path / "a.jsonl", 1000.0)
        b = _write_sidecar(tmp_path / "b.jsonl", 700.0)
        assert main(["diffstats", a, b, "--threshold", "0.5"]) == 0


class TestDegenerateTelemetryInputs:
    """PR 4 satellite: every reader fails gracefully, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["stats"], ["tree"], ["speccov"], ["metrics"],
    ])
    def test_missing_file(self, argv, tmp_path, capsys):
        assert main(argv[:1] + [str(tmp_path / "absent.jsonl")]
                    + argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["stats"], ["metrics"],
    ])
    def test_empty_file(self, argv, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(argv[:1] + [str(path)] + argv[1:]) == 1
        captured = capsys.readouterr()
        assert "empty" in captured.err
        assert "Traceback" not in captured.err

    def test_diffstats_missing_either_side(self, tmp_path, capsys):
        real = _write_sidecar(tmp_path / "a.jsonl", 1000.0)
        absent = str(tmp_path / "absent.jsonl")
        assert main(["diffstats", absent, real]) == 1
        assert main(["diffstats", real, absent]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err

    def test_zero_exploration_run(self, tmp_path, capsys):
        # A run that stopped before executing anything (e.g. a zero
        # deadline) still yields a parseable, reportable sidecar.
        source = tmp_path / "branchy.s"
        source.write_text(BRANCHY)
        run = tmp_path / "empty-run.jsonl"
        assert main(["explore", "rv32", str(source),
                     "--max-seconds", "0",
                     "--telemetry-out", str(run)]) == 0
        capsys.readouterr()
        assert main(["stats", str(run)]) == 0
        assert "stop=deadline" in capsys.readouterr().out

    def test_schema_v1_sidecar_still_reads(self, tmp_path, capsys):
        # Old sidecars predate health events; readers must degrade
        # gracefully, not crash.
        path = tmp_path / "v1.jsonl"
        path.write_text('{"kind": "meta", "record": "schema", '
                        '"version": 1}\n'
                        '{"kind": "step", "isa": "rv32", "state": 0, '
                        '"pc": 4096, "ts": 0.0, '
                        '"data": {"mnemonic": "addi"}}\n')
        assert main(["stats", str(path)]) == 0
        capsys.readouterr()
        assert main(["diffstats", str(path), str(path)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err


class TestParsing:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
