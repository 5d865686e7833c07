"""Rule-level cost attribution: reconciliation, sampling, renderers.

Acceptance pins:
* attribution and the phase profiler share one timer, so on the
  exerciser kernel, on rv32 AND mips32, the attr block's eval/solver
  call counts and seconds EQUAL the ``eval``/``solver`` phase totals;
* flamegraph weights sum to the attributed total;
* the heat map / flamegraph / report round-trip through JSON (the
  sidecar wire format) unchanged;
* the attr block rides into the run store as ``attr.json`` and never
  perturbs the run key (observe-only);
* degenerate inputs (missing block, pre-v5 sidecar) degrade to empty
  output, never a traceback.
"""

import json

import pytest

from repro.cli import main
from repro.core import Engine, EngineConfig
from repro.obs import AttrConfig, Obs
from repro.obs.attr import (ATTR_SCHEMA_VERSION, ENGINE_BUCKET,
                            CostAttribution, annotate_spec_costs,
                            hot_report, hot_rules_lines, ir_kind)
from repro.obs.flame import chrome_trace, collapsed_stacks, render_collapsed
from repro.programs import build_kernel


def explore_attr(target, mode="full", sample_every=16, profile=True):
    model, image = build_kernel("exerciser", target)
    obs = Obs(metrics=True, profile=profile)
    config = EngineConfig(obs=obs,
                          attr=AttrConfig(mode, sample_every=sample_every))
    engine = Engine(model, config=config)
    engine.load_image(image)
    result = engine.explore()
    return engine, result, result.telemetry["attr"]


@pytest.fixture(scope="module", params=["rv32", "mips32"])
def full_run(request):
    """One full-mode instrumented exerciser exploration per ISA."""
    return request.param, explore_attr(request.param, mode="full")


class TestReconciliation:
    """The pinned contract: attr and profiler agree on the exerciser."""

    def test_call_counts_reconcile_exactly(self, full_run):
        _, (engine, result, block) = full_run
        phases = result.telemetry["phases"]
        assert block["eval_calls"] == phases["eval"]["calls"] > 0
        assert block["solver_checks"] == phases["solver"]["calls"] > 0

    def test_times_reconcile_exactly(self, full_run):
        """One clock reading feeds both ledgers, so the seconds are
        equal, not just close."""
        _, (engine, result, block) = full_run
        phases = result.telemetry["phases"]
        assert block["eval_s"] == phases["eval"]["total_s"] > 0
        assert block["solver_s"] == phases["solver"]["total_s"] > 0

    def test_rule_totals_sum_to_block_totals(self, full_run):
        _, (engine, _, block) = full_run
        rules = block["rules"].values()
        assert sum(rule["steps"] for rule in rules) == block["steps"]
        assert abs(sum(rule["eval_s"] for rule in rules)
                   - block["eval_s"]) < 1e-9
        assert abs(sum(rule["solver_s"] for rule in rules)
                   - block["solver_s"]) < 1e-9
        assert sum(rule["solver_checks"] for rule in rules) \
            == block["solver_checks"]
        assert sum(rule["forks"] for rule in rules) == block["forks"]

    def test_snapshot_shape_and_provenance(self, full_run):
        target, (engine, _, block) = full_run
        assert block["version"] == ATTR_SCHEMA_VERSION
        assert block["isa"] == target
        assert block["mode"] == "full"
        assert block["rules"], "exerciser must attribute rules"
        # Spec provenance rides along for the heat map.
        attributed = [name for name in block["rules"]
                      if name != ENGINE_BUCKET]
        assert attributed
        for name in attributed:
            entry = block["rules"][name]
            assert entry["mnemonic"]
            lo, hi = entry["lines"]
            assert 0 < lo <= hi

    def test_branch_sites_carry_solver_blame(self, full_run):
        _, (engine, _, block) = full_run
        sites = block["sites"]
        assert sites, "the exerciser branches on input"
        blamed = sum(entry["solver_s"] for entry in sites.values())
        assert blamed > 0
        assert blamed <= block["solver_s"] + 1e-9
        for pc, entry in sites.items():
            assert pc.startswith("0x")
            assert entry["rule"] in block["rules"]

    def test_ir_rollup_populates_in_full_mode(self, full_run):
        _, (engine, _, block) = full_run
        rollup = block["ir"]
        assert rollup
        # Operator-qualified kinds separate add from compare.
        assert any(kind.startswith("BinOp:") for kind in rollup)
        for entry in rollup.values():
            assert entry["self_s"] <= entry["total_s"] + 1e-9


class TestSampling:
    def test_sampled_mode_bounds_deep_steps(self):
        _, result, block = explore_attr("rv32", mode="sampled",
                                        sample_every=4)
        assert block["mode"] == "sampled"
        assert block["sample_every"] == 4
        # Deep steps are exactly every 4th step, starting at the first.
        assert block["deep_steps"] == (block["steps"] + 3) // 4
        # Rule-level charging still covers EVERY step.
        assert block["eval_calls"] == block["steps"]
        assert block["eval_calls"] == result.telemetry["phases"]["eval"][
            "calls"]

    def test_full_mode_probes_every_step(self):
        _, _, block = explore_attr("rv32", mode="full")
        assert block["deep_steps"] == block["steps"]

    def test_attr_metrics_exported(self):
        engine, _, block = explore_attr("rv32", mode="sampled",
                                        sample_every=8)
        metrics = engine.config.obs.metrics
        assert metrics.counter("attr.steps").value == block["steps"]
        assert metrics.counter("attr.deep_steps").value \
            == block["deep_steps"]
        assert metrics.histogram("attr.step_eval_ms").count \
            == block["deep_steps"]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            AttrConfig("always")


class TestUnitCharging:
    """CostAttribution in isolation: the ledger arithmetic."""

    def test_ir_self_time_excludes_children_and_solver(self):
        attr = CostAttribution(AttrConfig("full"))
        attr.begin_step("addi", 0x1000)
        attr.ir_enter("BinOp:add")
        attr.ir_enter("Const")
        attr.ir_exit()
        attr.on_solver_check(0.5, "sat")
        attr.ir_exit()
        attr.end_step(0.001)
        cost = attr.rules["addi"]
        outer = cost.ir["BinOp:add"]
        inner = cost.ir["Const"]
        # The child's elapsed and the solver's 0.5s are both excluded
        # from the outer frame's self time.
        assert outer.self_time <= outer.total - inner.total - 0.5 + 1e-6
        assert cost.solver_by_ir["BinOp:add"] == 0.5
        assert cost.solver_s == 0.5

    def test_out_of_step_solver_work_hits_engine_bucket(self):
        attr = CostAttribution(AttrConfig())
        attr.on_solver_check(0.25, "sat")
        attr.on_solver_cache("exact")
        block = attr.snapshot()
        assert block["rules"][ENGINE_BUCKET]["solver_s"] == 0.25
        assert block["rules"][ENGINE_BUCKET]["cache_hits"] == 1

    def test_zero_activity_rules_dropped_from_snapshot(self):
        attr = CostAttribution(AttrConfig())
        block = attr.snapshot()
        assert block["rules"] == {}
        assert block["sites"] == {}

    def test_frames_left_open_are_closed_and_counted(self):
        """A path that ends mid-expression never exits its frames;
        ir_unwind (and end_step) close and count them."""
        attr = CostAttribution(AttrConfig("full"))
        attr.begin_step("lw", 0x1000)
        attr.ir_enter("ReadReg")
        attr.ir_enter("Load")
        attr.ir_unwind()
        attr.ir_enter("Field")
        attr.end_step(0.001)
        ir = attr.rules["lw"].ir
        assert {kind: cost.calls for kind, cost in ir.items()} == {
            "ReadReg": 1, "Load": 1, "Field": 1}
        assert ir["Load"].total <= ir["ReadReg"].total

    def test_fork_closes_frames_of_a_branch_that_dies(self):
        """The plan driver under the engine: a forked branch that dies
        inside a probed expression must not leave its frames open around
        the sibling branch."""
        from repro.compile.driver import Outcome, PathEnd, drive
        from repro.compile.symbolic import S_IF, S_LOCAL
        from repro.smt import terms as T

        model, image = build_kernel("exerciser", "rv32")
        engine = Engine(model, config=EngineConfig(
            attr=AttrConfig("full")))
        engine.load_image(image)
        state = engine.initial_state()
        depths = []

        def cond(E, S, FT, L, D):
            return T.eq(T.var("in_0", 8), T.bv(0, 8))

        def dies(E, S, FT, L, D):
            E.attr.ir_enter("Load")
            raise PathEnd("oob-load")

        def survives(E, S, FT, L, D):
            depths.append(len(E.attr._ir_stack))
            return T.bv(0, 8)

        plan = ((S_IF, cond, ((S_LOCAL, "x", dies),),
                 ((S_LOCAL, "x", survives),)),)
        engine.attr.begin_step("lw", state.pc)
        finished = drive(engine, state, plan, {}, None, Outcome())
        assert len(finished) == 1
        assert depths == [0]
        assert engine.attr.rules["lw"].ir["Load"].calls == 1

    def test_ir_kind_labels(self):
        from repro.ir import nodes as N
        const = N.Const(1, 8)
        assert ir_kind(const) == "Const"
        assert ir_kind(N.BinOp("add", const, const, 8)) == "BinOp:add"
        assert ir_kind(N.UnOp("not", const, 8)) == "UnOp:not"


class TestFlamegraph:
    def test_weights_sum_to_attributed_total(self, full_run):
        _, (engine, _, block) = full_run
        stacks = collapsed_stacks(block)
        assert stacks
        total_us = sum(frame["us"] for frame in stacks)
        want_us = (block["eval_s"] + block["solver_s"]) * 1e6
        # Integer-microsecond rounding: one count per emitted line.
        assert abs(total_us - want_us) <= len(stacks) + 1

    def test_collapsed_format_round_trips_json(self, full_run):
        target, (engine, _, block) = full_run
        wire = json.loads(json.dumps(block))
        text = render_collapsed(wire)
        for line in text.splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert stack.startswith(target + ";")
            assert int(weight) > 0
        assert text == render_collapsed(block)

    def test_solver_frames_present(self, full_run):
        _, (engine, _, block) = full_run
        text = render_collapsed(block)
        assert ";solver " in text

    def test_chrome_trace_shape(self, full_run):
        _, (engine, _, block) = full_run
        trace = json.loads(json.dumps(chrome_trace(block)))
        events = trace["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0


class TestRenderers:
    def test_hot_report_round_trips_json(self, full_run):
        _, (engine, _, block) = full_run
        wire = json.loads(json.dumps(block))
        text = hot_report(wire)
        assert "cost attribution" in text
        assert "hottest rules:" in text
        assert text == hot_report(block)

    def test_min_share_filters_rows(self, full_run):
        _, (engine, _, block) = full_run
        everything = hot_rules_lines(block, top=100, min_share=0.0)
        dominant = hot_rules_lines(block, top=100, min_share=0.99)
        assert len(dominant) < len(everything)

    def test_annotate_emits_heat_margins(self, full_run):
        target, (engine, _, block) = full_run
        wire = json.loads(json.dumps(block))
        text = annotate_spec_costs(wire)
        lines = text.splitlines()
        with open(block["source"]) as handle:
            source_len = len(handle.read().splitlines())
        assert len(lines) == source_len + 3        # header + blank
        assert any("%" in line.split("|", 1)[0] for line in lines[3:])
        # Every source line survives verbatim to the right of the bar.
        assert lines[3:][0].split("|", 1)[1] is not None

    def test_degenerate_inputs_never_traceback(self):
        assert hot_rules_lines(None) == []
        assert hot_rules_lines({"rules": "oops"}) == []
        assert hot_rules_lines({}) == []
        assert "no attribution block" in hot_report(None)
        assert "no attribution block" in hot_report({"steps": 3})
        assert collapsed_stacks(None) == []
        assert render_collapsed({}) == ""
        assert chrome_trace(None)["traceEvents"] == []
        with pytest.raises(ValueError):
            annotate_spec_costs({"not": "a block"})


class TestRunStore:
    def test_attr_json_artifact_round_trips(self, tmp_path):
        from repro.runstore import RunStore, record_exploration

        model, image = build_kernel("maze", "rv32", depth=2, solution=0b10)
        store = RunStore(str(tmp_path / "store"))
        config = EngineConfig(obs=Obs(metrics=True, profile=True),
                              attr=AttrConfig("full"))
        result, stored = record_exploration(store, model, image, config)
        block = stored.attr()
        assert block is not None
        assert block["version"] == ATTR_SCHEMA_VERSION
        assert block == result.telemetry["attr"]

    def test_attr_never_perturbs_the_run_key(self, tmp_path):
        from repro.runstore import RunStore, run_key, spec_digest

        model, image = build_kernel("maze", "rv32", depth=2, solution=0b10)
        store = RunStore(str(tmp_path / "store"))
        spec = spec_digest(model)
        plain = run_key(model.name, spec, image, EngineConfig(), "dfs",
                        0, [])
        attributed = run_key(model.name, spec, image,
                             EngineConfig(attr=AttrConfig("full")),
                             "dfs", 0, [])
        assert store.run_id_for(plain) == store.run_id_for(attributed)

    def test_missing_artifact_degrades_to_none(self, tmp_path):
        from repro.runstore import RunStore, record_exploration

        model, image = build_kernel("maze", "rv32", depth=2, solution=0b10)
        store = RunStore(str(tmp_path / "store"))
        result, stored = record_exploration(store, model, image,
                                            EngineConfig())
        assert stored.attr() is None


BRANCHY = """
.org 0x1000
.entry start
start:
    inb x1
    addi x2, x0, 10
    beq x1, x2, yes
    addi x3, x0, 1
    jal x0, done
yes:
    addi x3, x0, 2
done:
    outb x3
    halt 0
"""


class TestCli:
    @pytest.fixture
    def branchy(self, tmp_path):
        path = tmp_path / "branchy.s"
        path.write_text(BRANCHY)
        return str(path)

    @pytest.fixture
    def sidecar(self, branchy, tmp_path, capsys):
        out = str(tmp_path / "run.jsonl")
        assert main(["explore", "rv32", branchy, "--attr", "full",
                     "--profile", "--telemetry-out", out]) == 0
        capsys.readouterr()
        return out

    def test_explore_prints_attr_report(self, branchy, capsys):
        assert main(["explore", "rv32", branchy, "--attr"]) == 0
        out = capsys.readouterr().out
        assert "cost attribution" in out
        assert "hottest rules:" in out

    def test_runfile_attr_block_accessor(self, sidecar):
        from repro.obs import load_run
        block = load_run(sidecar).attr_block()
        assert block is not None
        assert block["version"] == ATTR_SCHEMA_VERSION

    def test_runfile_attr_block_tolerates_plain_runs(self, branchy,
                                                     tmp_path, capsys):
        from repro.obs import load_run
        out = str(tmp_path / "plain.jsonl")
        assert main(["explore", "rv32", branchy,
                     "--telemetry-out", out]) == 0
        capsys.readouterr()
        assert load_run(out).attr_block() is None

    def test_hot_from_sidecar(self, sidecar, capsys):
        assert main(["hot", sidecar]) == 0
        out = capsys.readouterr().out
        assert "cost attribution" in out
        assert "beq" in out

    def test_hot_json_round_trips(self, sidecar, capsys):
        assert main(["hot", sidecar, "--json"]) == 0
        block = json.loads(capsys.readouterr().out)
        assert block["version"] == ATTR_SCHEMA_VERSION
        assert block["rules"]

    def test_hot_writes_flamegraph_and_trace(self, sidecar, tmp_path,
                                             capsys):
        folded = str(tmp_path / "out.folded")
        trace = str(tmp_path / "out.json")
        assert main(["hot", sidecar, "--flame", folded,
                     "--trace", trace]) == 0
        capsys.readouterr()
        with open(folded) as handle:
            lines = handle.read().splitlines()
        assert lines and all(line.startswith("rv32;") for line in lines)
        with open(trace) as handle:
            assert json.load(handle)["traceEvents"]

    def test_hot_annotate_heat_map(self, sidecar, tmp_path, capsys):
        out = str(tmp_path / "heat.txt")
        assert main(["hot", sidecar, "--annotate", "--out", out]) == 0
        capsys.readouterr()
        with open(out) as handle:
            text = handle.read()
        assert "spec cost heat map: rv32" in text
        assert "%" in text

    def test_stats_shows_hottest_rules(self, sidecar, capsys):
        assert main(["stats", sidecar]) == 0
        out = capsys.readouterr().out
        assert "hottest rules" in out
        assert "beq" in out

    def test_hot_from_store_run_id(self, branchy, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["record", "rv32", branchy, "--store", store]) == 0
        out = capsys.readouterr().out
        run_id = out.split("recorded ")[1].split()[0]
        assert main(["hot", run_id, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "cost attribution" in out
        assert "beq" in out

    def test_hot_without_attr_is_clean_error(self, branchy, tmp_path,
                                             capsys):
        out = str(tmp_path / "plain.jsonl")
        assert main(["explore", "rv32", branchy,
                     "--telemetry-out", out]) == 0
        capsys.readouterr()
        assert main(["hot", out]) == 1
        err = capsys.readouterr().err
        assert "no cost-attribution block" in err

    def test_hot_unknown_target_is_clean_error(self, tmp_path, capsys):
        assert main(["hot", "deadbeef", "--store",
                     str(tmp_path / "empty")]) == 1
        assert "neither" in capsys.readouterr().err

    def test_stats_degrades_without_attr(self, branchy, tmp_path,
                                         capsys):
        out = str(tmp_path / "plain.jsonl")
        assert main(["explore", "rv32", branchy,
                     "--telemetry-out", out]) == 0
        capsys.readouterr()
        assert main(["stats", out]) == 0
        assert "hottest rules" not in capsys.readouterr().out

    def test_record_off_skips_attribution(self, branchy, tmp_path,
                                          capsys):
        store = str(tmp_path / "store")
        assert main(["record", "rv32", branchy, "--store", store,
                     "--attr", "off"]) == 0
        out = capsys.readouterr().out
        run_id = out.split("recorded ")[1].split()[0]
        assert main(["hot", run_id, "--store", store]) == 1
        assert "no cost-attribution profile" in capsys.readouterr().err
