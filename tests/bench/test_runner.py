"""Runner report schema, declarative expectations, and the statistical
report-vs-report comparison gate."""

import json

import pytest

from repro.bench import (REPORT_SCHEMA, BenchError, Benchmark, Sample,
                         all_benchmarks, benchmark, compare_reports,
                         default_report_path, evaluate_expectations,
                         get, load_report, render_comparison,
                         render_report, run_benchmarks, suite_benchmarks,
                         write_report)


def _register(value=2.0, expect_min=None, expect_max=None,
              bench_id="syn.a", direction="higher"):
    return Benchmark(bench_id, lambda: value, suite="quick", unit="x",
                     direction=direction, reps=3, warmup=0,
                     expect_min=expect_min, expect_max=expect_max)


class TestRegistry:
    def test_decorator_registers_and_get(self):
        @benchmark("syn.deco", suite="quick", unit="s",
                   direction="lower", reps=1, warmup=0)
        def _fn():
            return 1.0
        assert get("syn.deco").unit == "s"
        assert [b.id for b in suite_benchmarks("quick")] == ["syn.deco"]

    def test_unknown_bench_raises(self):
        with pytest.raises(BenchError):
            get("no.such.bench")

    def test_bad_metadata_rejected(self):
        with pytest.raises(BenchError):
            Benchmark("x", lambda: 1, suite="weekly")
        with pytest.raises(BenchError):
            Benchmark("x", lambda: 1, direction="sideways")
        with pytest.raises(BenchError):
            Benchmark("x", lambda: 1, reps=0)

    def test_sample_normalization(self):
        assert Sample.of(1.5).value == 1.5
        assert Sample.of(Sample(2.0, wall_s=0.1)).wall_s == 0.1
        rich = Sample.of({"value": 3.0, "wall_s": 0.2, "paths": 7})
        assert rich.wall_s == 0.2 and rich.extra == {"paths": 7}
        with pytest.raises(BenchError):
            Sample.of("fast")
        with pytest.raises(BenchError):
            Sample.of({"wall_s": 0.2})


class TestRunReport:
    def test_report_shape(self):
        from repro.bench import register
        register(_register(expect_min=1.0))
        report = run_benchmarks(all_benchmarks(), suite="quick")
        assert report["schema"] == REPORT_SCHEMA
        assert report["suite"] == "quick"
        assert report["env_digest"].startswith("sha256:")
        (result,) = report["results"]
        assert result["id"] == "syn.a"
        assert result["reps"] == 3
        assert result["median"] == 2.0 and result["mad"] == 0.0
        assert [s["value"] for s in result["samples"]] == [2.0] * 3
        (exp,) = result["expectations"]
        assert exp == {"kind": "min", "threshold": 1.0,
                       "observed": 2.0, "passed": True}

    def test_failed_expectation_recorded(self):
        from repro.bench import register
        register(_register(value=1.0, expect_min=5.0))
        report = run_benchmarks(all_benchmarks())
        (exp,) = report["results"][0]["expectations"]
        assert exp["passed"] is False
        assert "FAIL" in render_report(report)

    def test_reps_override(self):
        from repro.bench import register
        calls = []
        register(Benchmark("syn.count", lambda: calls.append(1) or 1.0,
                           reps=5, warmup=2))
        run_benchmarks(all_benchmarks(), reps=1, warmup=0)
        assert len(calls) == 1

    def test_evaluate_expectations_both_bounds(self):
        bench = _register(expect_min=1.0, expect_max=3.0)
        rows = evaluate_expectations(bench, 2.0)
        assert [r["passed"] for r in rows] == [True, True]
        rows = evaluate_expectations(bench, 4.0)
        assert [r["passed"] for r in rows] == [True, False]
        # Inclusive: a reading exactly at either bar passes.
        for observed in (1.0, 3.0):
            rows = evaluate_expectations(bench, observed)
            assert [r["passed"] for r in rows] == [True, True]

    def test_write_load_round_trip(self, tmp_path):
        from repro.bench import register
        register(_register())
        report = run_benchmarks(all_benchmarks())
        path = str(tmp_path / "BENCH_test.json")
        write_report(report, path)
        assert load_report(path)["results"][0]["median"] == 2.0

    def test_load_report_rejects_garbage(self, tmp_path):
        missing = str(tmp_path / "absent.json")
        with pytest.raises(BenchError):
            load_report(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BenchError):
            load_report(str(bad))
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": "repro-bench/99",
                                     "results": []}))
        with pytest.raises(BenchError):
            load_report(str(wrong))

    def test_default_report_path_basename(self):
        assert default_report_path().endswith("BENCH_9.json")


def _report_with(values, direction="higher", expect_min=None,
                 bench_id="syn.a"):
    from repro.bench import clear_registry, register
    clear_registry()
    series = list(values)
    register(Benchmark(bench_id, lambda: series.pop(0), suite="quick",
                       unit="x", direction=direction, reps=len(values),
                       warmup=0, expect_min=expect_min))
    return run_benchmarks(all_benchmarks())


class TestCompareReports:
    def test_identical_reports_clean(self):
        report = _report_with([2.0, 2.1, 1.95])
        comparison = compare_reports(report, report)
        assert comparison.regressions == []
        assert comparison.env_match is True
        assert "REGRESSION" not in render_comparison(comparison)

    def test_injected_regression_flagged(self):
        base = _report_with([2.0, 2.1, 1.95])
        bad = _report_with([1.0, 1.05, 0.98])    # throughput halved
        comparison = compare_reports(base, bad)
        (row,) = comparison.regressions
        assert row.bench_id == "syn.a"
        assert row.verdict.worse_ratio > 0.4
        assert "REGRESSION" in render_comparison(comparison)

    def test_improvement_is_not_a_regression(self):
        base = _report_with([2.0, 2.1, 1.95])
        better = _report_with([4.0, 4.1, 3.9])
        comparison = compare_reports(base, better)
        assert comparison.regressions == []
        assert len(comparison.improvements) == 1

    def test_noise_within_band_is_ok(self):
        base = _report_with([2.0, 2.05, 1.95])
        wiggle = _report_with([1.98, 2.02, 2.01])
        assert compare_reports(base, wiggle).regressions == []

    def test_failed_expectation_gates_even_without_band_move(self):
        # The migrated CI guards: an absolute floor that fails in B
        # must gate even if A and B are statistically identical.
        base = _report_with([2.0, 2.0, 2.0])
        candidate = _report_with([2.0, 2.0, 2.0], expect_min=5.0)
        comparison = compare_reports(base, candidate)
        (row,) = comparison.regressions
        assert row.flag == "regression"
        assert row.verdict.flag == "ok"
        assert row.to_dict()["flag"] == "regression"

    def test_one_sided_benchmarks_are_new_or_gone(self):
        base = _report_with([2.0, 2.0, 2.0], bench_id="syn.old")
        candidate = _report_with([3.0, 3.0, 3.0], bench_id="syn.new")
        comparison = compare_reports(base, candidate)
        rows = {row.bench_id: row for row in comparison.rows}
        assert rows["syn.old"].flag == "gone"
        assert rows["syn.new"].flag == "new"
        assert comparison.regressions == []
        # The measured side's median shows; nothing is judged.
        old, new = rows["syn.old"].to_dict(), rows["syn.new"].to_dict()
        assert (old["baseline_median"], old["candidate_median"]) == \
            (2.0, None)
        assert (new["baseline_median"], new["candidate_median"]) == \
            (None, 3.0)
        assert old["band"] is None and new["delta_ratio"] is None
        table = render_comparison(comparison)
        assert "GONE" in table and "NEW" in table

    def test_direction_lower_is_better(self):
        base = _report_with([1.0, 1.0, 1.0], direction="lower")
        slower = _report_with([1.5, 1.5, 1.5], direction="lower")
        assert len(compare_reports(base, slower).regressions) == 1
        assert compare_reports(slower, base).regressions == []

    def test_to_dict_payload(self):
        base = _report_with([2.0, 2.0, 2.0])
        payload = compare_reports(base, base).to_dict()
        assert payload["regressions"] == 0
        assert payload["rows"][0]["flag"] == "ok"
