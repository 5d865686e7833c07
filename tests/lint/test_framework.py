"""Pass framework, runner, baseline and rendering behaviour."""

import json
import os

import pytest

from repro.lint import (
    FAMILIES,
    SMT,
    STRUCTURAL,
    TRANSVAL,
    Baseline,
    Finding,
    LintConfig,
    LintError,
    all_passes,
    load_baseline,
    pass_by_id,
    render_json,
    render_sarif,
    render_text,
    run_lint,
    run_lint_all,
    write_baseline,
)
from repro.obs import Obs

SPEC_DIR = os.path.join(os.path.dirname(__file__), "specs")


def fixture(name):
    return os.path.join(SPEC_DIR, name + ".adl")


class TestRegistry:
    def test_all_shipped_passes_registered(self):
        ids = [p.id for p in all_passes()]
        for expected in ("translation", "ir-width", "use-before-def",
                         "dead-assignment", "shadowed-rule",
                         "syntax-operands", "missing-pc-update",
                         "flag-completeness", "smt-ambiguity",
                         "smt-completeness", "smt-roundtrip",
                         "smt-obligations"):
            assert expected in ids

    def test_passes_grouped_in_family_order(self):
        families = [p.family for p in all_passes()]
        # structural, then smt, then transval — never interleaved.
        assert families == sorted(families, key=FAMILIES.index)
        assert families.index(SMT) > 0
        assert TRANSVAL in families

    def test_pass_by_id_unknown(self):
        with pytest.raises(KeyError):
            pass_by_id("no-such-pass")

    def test_unique_ids_and_titles(self):
        passes = all_passes()
        assert len({p.id for p in passes}) == len(passes)
        assert all(p.title for p in passes)


class TestConfig:
    def test_enable_restricts(self):
        config = LintConfig(enable=["dead-assignment"])
        report = run_lint(fixture("dead_temp"), config=config)
        assert report.passes_run == ["dead-assignment"]
        assert all(f.pass_id == "dead-assignment"
                   for f in report.findings)

    def test_disable_removes(self):
        config = LintConfig(disable=["smt-completeness"],
                            families=[STRUCTURAL, SMT])
        report = run_lint(fixture("clean"), config=config)
        assert "smt-completeness" not in report.passes_run
        assert not report.findings  # completeness was the only reporter

    def test_family_restricts(self):
        config = LintConfig(families=[TRANSVAL])
        report = run_lint(fixture("clean"), config=config)
        assert report.passes_run == ["transval-symbolic"]
        assert all(f.pass_id.startswith("transval-")
                   for f in report.findings)

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            LintConfig(families=["bogus"]).selected_passes()

    def test_unknown_pass_id_raises(self):
        with pytest.raises(KeyError):
            LintConfig(enable=["bogus"]).selected_passes()
        with pytest.raises(KeyError):
            LintConfig(disable=["bogus"]).selected_passes()


class TestRunner:
    def test_builtin_name_resolves(self):
        report = run_lint("rv32")
        assert report.spec_name == "rv32"
        assert report.path.endswith("rv32.adl")

    def test_unknown_spec_raises_lint_error(self):
        with pytest.raises(LintError):
            run_lint("definitely-not-a-spec")

    def test_unparseable_file_raises_lint_error(self, tmp_path):
        bad = tmp_path / "bad.adl"
        bad.write_text("architecture broken {")
        with pytest.raises(LintError):
            run_lint(str(bad))

    def test_run_lint_all_covers_builtins(self):
        reports = run_lint_all()
        assert [r.spec_name for r in reports] == sorted(
            r.spec_name for r in reports)
        assert len(reports) == 5

    def test_findings_are_deterministic(self):
        first = run_lint(fixture("shadowed"))
        second = run_lint(fixture("shadowed"))
        strip = lambda report: [  # noqa: E731
            {k: v for k, v in f.to_dict().items()}
            for f in report.findings]
        assert strip(first) == strip(second)

    def test_timings_recorded_per_pass(self):
        report = run_lint(fixture("clean"))
        assert [t.pass_id for t in report.timings] == report.passes_run
        smt_timings = [t for t in report.timings
                       if t.pass_id.startswith("smt-")]
        assert any(t.solver_checks > 0 for t in smt_timings)

    def test_metrics_counters_emitted(self):
        obs = Obs(metrics=True, profile=True)
        report = run_lint(fixture("shadowed"), obs=obs)
        counters = obs.metrics.counters_snapshot()
        assert counters["lint.specs"] == 1
        assert counters["lint.findings.error"] == len(report.errors())
        assert counters["lint.passes_run"] == len(report.passes_run)
        assert counters["lint.solver.checks"] >= 1
        phases = obs.profiler.snapshot()
        assert any(name.startswith("lint.") for name in phases)


class TestBaseline:
    def test_round_trip(self, tmp_path):
        report = run_lint(fixture("shadowed"))
        path = str(tmp_path / "baseline.json")
        write_baseline(path, report.findings)
        baseline = load_baseline(path)
        assert len(baseline) == len({f.fingerprint()
                                     for f in report.findings})
        kept, suppressed = baseline.split(report.findings)
        assert not kept
        assert len(suppressed) == len(report.findings)

    def test_fingerprint_survives_line_moves(self):
        a = Finding("p", "error", "msg", path="x/spec.adl", line=10,
                    instruction="add", witness=0x10)
        b = Finding("p", "error", "msg", path="y/spec.adl", line=99,
                    instruction="add", witness=0x20)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_changes_with_message(self):
        a = Finding("p", "error", "msg", instruction="add")
        b = Finding("p", "error", "other msg", instruction="add")
        assert a.fingerprint() != b.fingerprint()

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not": "a baseline"}))
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_new_finding_not_suppressed(self, tmp_path):
        report = run_lint(fixture("clean"))
        path = str(tmp_path / "baseline.json")
        write_baseline(path, report.findings)
        baseline = load_baseline(path)
        novel = Finding("translation", "error", "brand new",
                        path=fixture("clean"))
        assert not baseline.matches(novel)
        assert Baseline().matches(novel) is False


class TestRendering:
    def test_text_summary_line(self):
        report = run_lint(fixture("missing_pc"))
        text = render_text([report])
        assert "missing-pc-update" in text
        assert "1 error" in text
        assert text.strip().splitlines()[-1].startswith("lint:")

    def test_json_envelope(self):
        report = run_lint(fixture("shadowed"))
        data = json.loads(render_json([report]))
        assert data["format"] == "repro-lint"
        assert data["counts"]["error"] == len(report.errors())
        (entry,) = data["reports"]
        assert entry["spec"] == "shadowed"
        assert all("fingerprint" in f for f in entry["findings"])

    def test_sarif_minimal_shape(self):
        report = run_lint(fixture("shadowed"))
        data = json.loads(render_sarif([report]))
        assert data["version"] == "2.1.0"
        (run,) = data["runs"]
        rules = run["tool"]["driver"]["rules"]
        assert {r["id"] for r in rules} >= {"shadowed-rule",
                                            "smt-ambiguity"}
        results = run["results"]
        assert len(results) == len(report.findings)
        for result in results:
            assert result["level"] in ("error", "warning", "note")
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"]

    def test_sarif_suppressed_findings_marked(self):
        report = run_lint(fixture("missing_pc"))
        suppressed = list(report.findings)
        report.findings = []
        data = json.loads(render_sarif([report], suppressed))
        marked = [r for r in data["runs"][0]["results"]
                  if r.get("suppressions")]
        assert len(marked) == len(suppressed)

    def test_witness_rendered_as_hex(self):
        report = run_lint(fixture("shadowed"))
        entry = json.loads(render_json([report]))["reports"][0]
        witnesses = [f["witness"] for f in entry["findings"]
                     if "witness" in f]
        assert witnesses
        assert all(w.startswith("0x") for w in witnesses)
