"""Run comparison (`repro diffstats`): metric extraction, judged by
the one regression rule of `repro.bench`.

The acceptance pin: an injected >= 20% steps/sec regression between two
otherwise-identical runs MUST be flagged.
"""

import json

import pytest

from repro.bench import compare_reports, render_comparison
from repro.obs import extract_metrics, load_run


def write_run(path, rates, wall_time=1.0, instructions=1000, paths=4,
              defects=1, frontier=5, solver_checks=100):
    """Synthesize a minimal but realistic telemetry sidecar."""
    lines = [{"kind": "meta", "record": "schema", "version": 3}]
    for seq, rate in enumerate(rates):
        lines.append({
            "v": 1, "kind": "health", "ts": 0.1 * seq, "isa": "rv32",
            "state_id": -1, "pc": 0,
            "data": {"sample": {"v": 1, "seq": seq, "t": 0.1 * seq,
                                "steps_per_sec": rate,
                                "frontier": frontier,
                                "solver": {"share": 0.25}}}})
    lines.append({
        "kind": "meta", "record": "run_summary", "isa": "rv32",
        "paths": paths, "defects": defects,
        "instructions": instructions, "wall_time": wall_time,
        "stop_reason": "exhausted",
        "telemetry": {"solver": {"checks": solver_checks,
                                 "solve_time": 0.2,
                                 "cache_hit_sat": 40},
                      "phases": {"solver": {"total_s": 0.2}}}})
    with open(path, "w") as handle:
        for record in lines:
            handle.write(json.dumps(record) + "\n")
    return str(path)


@pytest.fixture
def baseline(tmp_path):
    return write_run(tmp_path / "a.jsonl", [1000.0, 1100.0, 1050.0])


def values(path):
    """``{metric id: value}`` of one sidecar's one-sample report."""
    report = extract_metrics(load_run(path))
    assert all(len(result["samples"]) == 1
               for result in report["results"])
    return {result["id"]: result["samples"][0]["value"]
            for result in report["results"]}


def compare(path_a, path_b, threshold=0.20):
    """What ``repro diffstats --threshold`` computes."""
    return compare_reports(extract_metrics(load_run(path_a)),
                           extract_metrics(load_run(path_b)),
                           path_a=path_a, path_b=path_b,
                           min_rel=threshold)


def rows_by_id(comparison):
    return {row.bench_id: row for row in comparison.rows}


def flagged(comparison, flag):
    return {row.bench_id for row in comparison.rows if row.flag == flag}


class TestExtract:
    def test_health_series_metrics(self, baseline):
        metrics = values(baseline)
        assert metrics["health.steps_per_sec.mean"] == pytest.approx(1050.0)
        assert metrics["health.steps_per_sec.final"] == 1050.0
        assert metrics["health.frontier.peak"] == 5
        assert metrics["health.solver_share.mean"] == pytest.approx(0.25)

    def test_summary_metrics(self, baseline):
        metrics = values(baseline)
        assert metrics["run.wall_time_s"] == 1.0
        assert metrics["run.instructions_per_sec"] == 1000.0
        assert metrics["solver.cache_hit_ratio"] == pytest.approx(0.4)
        assert metrics["phase.solver.total_s"] == pytest.approx(0.2)

    def test_healthless_run_still_extracts_summary(self, tmp_path):
        path = write_run(tmp_path / "nohealth.jsonl", rates=[])
        metrics = values(path)
        assert "health.steps_per_sec.mean" not in metrics
        assert "run.wall_time_s" in metrics


class TestCompare:
    def test_identical_runs_have_no_flags(self, baseline, tmp_path):
        other = write_run(tmp_path / "b.jsonl",
                          [1000.0, 1100.0, 1050.0])
        comparison = compare(baseline, other)
        assert comparison.regressions == []
        assert comparison.improvements == []
        assert {row.flag for row in comparison.rows} == {"ok"}

    def test_injected_steps_per_sec_regression_is_flagged(
            self, baseline, tmp_path):
        # 30% slower than baseline: past the 20% default threshold.
        other = write_run(tmp_path / "slow.jsonl",
                          [700.0, 770.0, 735.0])
        regressed = flagged(compare(baseline, other), "regression")
        assert "health.steps_per_sec.mean" in regressed
        assert "health.steps_per_sec.final" in regressed

    def test_direction_higher_means_increase_is_improvement(
            self, baseline, tmp_path):
        other = write_run(tmp_path / "fast.jsonl",
                          [2000.0, 2200.0, 2100.0])
        comparison = compare(baseline, other)
        assert "health.steps_per_sec.mean" in flagged(comparison,
                                                      "improvement")
        assert not any(row.bench_id.startswith("health.steps_per_sec")
                       for row in comparison.regressions)

    def test_lower_is_better_for_wall_time(self, baseline, tmp_path):
        other = write_run(tmp_path / "slower.jsonl",
                          [1000.0, 1100.0, 1050.0], wall_time=2.0)
        assert "run.wall_time_s" in flagged(compare(baseline, other),
                                            "regression")

    def test_info_metrics_are_changed_never_regression(
            self, baseline, tmp_path):
        other = write_run(tmp_path / "more.jsonl",
                          [1000.0, 1100.0, 1050.0], defects=9)
        comparison = compare(baseline, other)
        row = rows_by_id(comparison)["run.defects"]
        assert row.flag == "changed"
        assert row.verdict.worse_ratio is None
        assert "run.defects" not in flagged(comparison, "regression")

    def test_threshold_is_respected(self, baseline, tmp_path):
        # 30% regression passes a 50% threshold.
        other = write_run(tmp_path / "meh.jsonl", [700.0, 770.0, 735.0])
        comparison = compare(baseline, other, threshold=0.5)
        assert not any(row.bench_id.startswith("health.")
                       for row in comparison.regressions)

    def test_metric_only_in_one_run(self, baseline, tmp_path):
        other = write_run(tmp_path / "nohealth.jsonl", rates=[])
        gone = flagged(compare(baseline, other), "gone")
        assert "health.steps_per_sec.mean" in gone

    def test_report_mentions_regressions(self, baseline, tmp_path):
        other = write_run(tmp_path / "slow.jsonl",
                          [700.0, 770.0, 735.0])
        report = render_comparison(compare(baseline, other))
        assert "REGRESSION" in report
        assert "regressions:" in report


class TestEdgeCases:
    """Boundary semantics: exact threshold, one-sided metrics, zero
    baselines.  None of these may traceback; each must flag (or not)
    per the documented rules."""

    def test_move_exactly_at_threshold_is_inside_the_band(
            self, baseline, tmp_path):
        # 25% slower, with every division exact in binary floating
        # point: a move exactly at the band's edge is inside the band.
        other = write_run(tmp_path / "edge.jsonl",
                          [750.0, 825.0, 787.5])
        comparison = compare(baseline, other, threshold=0.25)
        row = rows_by_id(comparison)["health.steps_per_sec.mean"]
        assert row.verdict.worse_ratio == 0.25
        assert row.verdict.band.lo == 787.5
        assert row.flag == "ok"

    def test_just_under_threshold_is_ok(self, baseline, tmp_path):
        other = write_run(tmp_path / "under.jsonl",
                          [750.0, 825.0, 787.5])
        comparison = compare(baseline, other, threshold=0.2500001)
        row = rows_by_id(comparison)["health.steps_per_sec.mean"]
        assert row.flag == "ok"

    def test_metric_missing_from_baseline_is_new(self, tmp_path):
        a = write_run(tmp_path / "a.jsonl", rates=[])
        b = write_run(tmp_path / "b.jsonl", [1000.0])
        comparison = compare(a, b)
        row = rows_by_id(comparison)["health.steps_per_sec.mean"]
        assert row.flag == "new"
        assert row.verdict.baseline is None
        assert row.verdict.candidate == 1000.0
        assert row.verdict.delta_ratio is None
        assert row.bench_id not in flagged(comparison, "regression")
        assert "NEW" in render_comparison(comparison)

    def test_metric_missing_from_candidate_is_gone(self, baseline,
                                                   tmp_path):
        other = write_run(tmp_path / "b.jsonl", rates=[])
        comparison = compare(baseline, other)
        row = rows_by_id(comparison)["health.steps_per_sec.mean"]
        assert row.flag == "gone"
        assert row.verdict.candidate is None
        assert row.verdict.delta_ratio is None
        assert "GONE" in render_comparison(comparison)

    def test_zero_baseline_is_changed_not_divided(self, tmp_path):
        a = write_run(tmp_path / "a.jsonl", [1000.0], solver_checks=0)
        b = write_run(tmp_path / "b.jsonl", [1000.0], solver_checks=50)
        comparison = compare(a, b)
        row = rows_by_id(comparison)["solver.checks"]
        assert row.flag == "changed"
        assert row.verdict.delta_ratio is None
        assert row.bench_id not in flagged(comparison, "regression")
        # The zero-baseline row renders its delta as "-", never raising
        # ZeroDivisionError.
        line = next(l for l in render_comparison(comparison).splitlines()
                    if l.strip().startswith("solver.checks "))
        assert "CHANGED" in line

    def test_zero_on_both_sides_is_ok(self, tmp_path):
        a = write_run(tmp_path / "a.jsonl", [1000.0], solver_checks=0)
        b = write_run(tmp_path / "b.jsonl", [1000.0], solver_checks=0)
        row = rows_by_id(compare(a, b))["solver.checks"]
        assert row.flag == "ok"
        assert row.verdict.delta_ratio is None


class TestDiffstatsCli:
    def test_exit_3_on_regression(self, baseline, tmp_path, capsys):
        from repro.cli import main
        other = write_run(tmp_path / "slow.jsonl",
                          [700.0, 770.0, 735.0])
        assert main(["diffstats", baseline, other]) == 3
        assert "REGRESSION" in capsys.readouterr().out

    def test_exit_0_when_clean(self, baseline, tmp_path, capsys):
        from repro.cli import main
        other = write_run(tmp_path / "same.jsonl",
                          [1000.0, 1100.0, 1050.0])
        assert main(["diffstats", baseline, other]) == 0

    def test_zero_baseline_exits_cleanly(self, tmp_path, capsys):
        from repro.cli import main
        a = write_run(tmp_path / "a.jsonl", [1000.0], solver_checks=0)
        b = write_run(tmp_path / "b.jsonl", [1000.0], solver_checks=75)
        assert main(["diffstats", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "CHANGED" in out and "Traceback" not in out
