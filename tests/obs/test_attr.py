"""Rule-level cost attribution: reconciliation, renderers, the CLI.

Acceptance pins:
* attribution and the phase profiler share one timer, so on the
  exerciser kernel, on rv32 AND mips32, the attr block's eval/solver
  call counts and seconds EQUAL the ``eval``/``solver`` phase totals;
* every step is charged: each rule's steps equal the ``step`` events
  of its instruction;
* attribution reads the one counter set: the rules' forks, cache hits
  and solver checks sum to the result's forks, the solver stats' cache
  answers and the ``solver`` phase's calls;
* a second exploration in the same process charges the same integer
  tables, term requests included, on all five ISAs;
* flamegraph weights sum to the attributed total;
* the heat map / flamegraph / report round-trip through JSON (the
  sidecar wire format) unchanged;
* the attr block rides into the run store in ``result.json`` and never
  perturbs the run key (observe-only);
* degenerate inputs (missing block, pre-v5 sidecar) degrade to empty
  output, never a traceback, and a version-2 block (per-IR-kind tables,
  sampling fields) still renders.
"""

import collections
import json
import os

import pytest

from repro.cli import main
from repro.core import Engine, EngineConfig
from repro.obs import JsonlSink, Obs
from repro.obs.attr import (ATTR_SCHEMA_VERSION, ENGINE_BUCKET,
                            CostAttribution, annotate_spec_costs,
                            hot_report, hot_rules_lines)
from repro.obs.flame import chrome_trace, collapsed_stacks, render_collapsed
from repro.obs.sinks import RingBufferSink
from repro.programs import build_kernel
from repro.smt import Solver
from repro.smt.solver import cache_answers

ALL_TARGETS = ["rv32", "mips32", "armlite", "pred32", "vlx"]

#: A version-2 ``attr`` block: the rv32 exerciser explored with the
#: default sampled attribution of that schema (every 16th step deep).
#: Its ``source`` is cleared; the recorded path named the recording
#: checkout.
V2_BLOCK_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "attr_v2_rv32.json")

#: Keys of a version-2 block that version 3 no longer writes.
V2_ONLY_KEYS = {"ir", "mode", "sample_every", "deep_steps"}


def integer_tables(block):
    """A block's integer fields: totals, every rule and every site."""
    def ints(entry):
        return {key: value for key, value in entry.items()
                if type(value) is int}
    return (ints(block),
            {name: ints(entry) for name, entry in block["rules"].items()},
            {pc: ints(entry) for pc, entry in block["sites"].items()})


def explore_attr(target, profile=True, sink=None):
    model, image = build_kernel("exerciser", target)
    obs = Obs(metrics=True, profile=profile)
    if sink is not None:
        obs.add_sink(sink)
    engine = Engine(model, config=EngineConfig(obs=obs, attr=True))
    engine.load_image(image)
    result = engine.explore()
    return engine, result, result.telemetry["attr"]


@pytest.fixture(scope="module", params=["rv32", "mips32"])
def attr_run(request):
    """One attributed, profiled exerciser exploration per ISA."""
    return request.param, explore_attr(request.param)


class TestReconciliation:
    """The pinned contract: attr and profiler agree on the exerciser."""

    def test_call_counts_reconcile_exactly(self, attr_run):
        _, (engine, result, block) = attr_run
        phases = result.telemetry["phases"]
        assert block["eval_calls"] == phases["eval"]["calls"] > 0
        assert block["solver_checks"] == phases["solver"]["calls"] > 0
        # The summary line names the same count: solved queries, not
        # every check() call (the query cache answers the rest).
        assert " solver_checks=%d " % block["solver_checks"] \
            in result.summary()
        assert result.solver_stats["checks"] > block["solver_checks"]

    def test_times_reconcile_exactly(self, attr_run):
        """One clock reading feeds both ledgers, so the seconds are
        equal, not just close."""
        _, (engine, result, block) = attr_run
        phases = result.telemetry["phases"]
        assert block["eval_s"] == phases["eval"]["total_s"] > 0
        assert block["solver_s"] == phases["solver"]["total_s"] > 0

    def test_rule_totals_sum_to_block_totals(self, attr_run):
        _, (engine, _, block) = attr_run
        rules = block["rules"].values()
        assert sum(rule["steps"] for rule in rules) == block["steps"]
        assert abs(sum(rule["eval_s"] for rule in rules)
                   - block["eval_s"]) < 1e-9
        assert abs(sum(rule["solver_s"] for rule in rules)
                   - block["solver_s"]) < 1e-9
        assert sum(rule["solver_checks"] for rule in rules) \
            == block["solver_checks"]
        assert sum(rule["forks"] for rule in rules) == block["forks"]

    @pytest.mark.parametrize("target", ["rv32", "mips32"])
    def test_rule_steps_match_step_events(self, target):
        """Every step is charged to its rule."""
        ring = RingBufferSink(capacity=100000)
        _, _, block = explore_attr(target, profile=False, sink=ring)
        events = collections.Counter(
            event.data["instr"] for event in ring.events("step"))
        rules = block["rules"].values()
        assert {name: entry["steps"]
                for name, entry in block["rules"].items()
                if entry["steps"]} == dict(events)
        assert sum(rule["steps"] for rule in rules) == block["steps"] \
            == sum(events.values()) == block["eval_calls"] > 0

    def test_rules_sum_to_the_one_counter_set(self, attr_run):
        """Every rule charge is a delta of the counts the run keeps."""
        _, (engine, result, block) = attr_run
        rules = block["rules"].values()
        assert sum(rule["forks"] for rule in rules) \
            == result.states_forked > 0
        assert sum(rule["cache_hits"] for rule in rules) \
            == cache_answers(result.solver_stats) > 0
        assert sum(rule["cache_misses"] for rule in rules) \
            == result.solver_stats["cache_misses"]
        assert sum(rule["solver_checks"] for rule in rules) \
            == result.telemetry["phases"]["solver"]["calls"] > 0

    def test_second_exploration_charges_the_same_counts(self):
        """Term requests, unlike pool misses, do not depend on what the
        process built before: exploring twice charges equal tables."""
        for target in ALL_TARGETS:
            _, _, first = explore_attr(target, profile=False)
            _, _, second = explore_attr(target, profile=False)
            assert integer_tables(first) == integer_tables(second), target
            assert any(entry["term_requests"]
                       for entry in second["rules"].values()), target

    def test_snapshot_shape_and_provenance(self, attr_run):
        target, (engine, _, block) = attr_run
        assert block["version"] == ATTR_SCHEMA_VERSION == 4
        assert block["isa"] == target
        assert not V2_ONLY_KEYS & set(block)
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
            assert "ir" not in entry and "solver_by_ir" not in entry

    def test_branch_sites_carry_solver_blame(self, attr_run):
        _, (engine, _, block) = attr_run
        sites = block["sites"]
        assert sites, "the exerciser branches on input"
        blamed = sum(entry["solver_s"] for entry in sites.values())
        assert blamed > 0
        assert blamed <= block["solver_s"] + 1e-9
        for pc, entry in sites.items():
            assert pc.startswith("0x")
            assert entry["rule"] in block["rules"]


class TestUnitCharging:
    """CostAttribution in isolation: the ledger arithmetic."""

    def test_out_of_step_solver_work_hits_engine_bucket(self):
        from repro.smt import terms as T
        solver = Solver()
        attr = CostAttribution(solver_stats=solver.stats)
        cond = T.ult(T.bv(9, 8), T.var("attr_x", 8))
        assert solver.check(extra=[cond]) == "sat"      # solved
        assert solver.check(extra=[cond]) == "sat"      # exact hit
        block = attr.snapshot()
        engine = block["rules"][ENGINE_BUCKET]
        assert engine["solver_s"] == solver.stats.solve_time \
            == block["solver_s"] > 0
        assert engine["solver_checks"] == block["solver_checks"] == 1
        assert engine["cache_hits"] == block["cache_hits"] == 1
        assert engine["cache_misses"] == 1
        assert engine["steps"] == 0
        assert block["sites"] == {}

    def test_term_requests_charged_on_every_step(self):
        from repro.smt import terms as T
        previous = T.set_pool(T.TermPool())
        try:
            attr = CostAttribution()
            for step in range(3):
                attr.begin_step("add", 0x1000 + 4 * step)
                T.bv(step + 2, 8)       # one new term per step
                T.bv(step + 2, 8)       # and one the pool already has
                attr.end_step(0.001)
            block = attr.snapshot()
        finally:
            T.set_pool(previous)
        assert block["rules"]["add"]["term_requests"] == 6

    def test_zero_activity_rules_dropped_from_snapshot(self):
        attr = CostAttribution()
        block = attr.snapshot()
        assert block["rules"] == {}
        assert block["sites"] == {}


class TestFlamegraph:
    def test_weights_sum_to_attributed_total(self, attr_run):
        _, (engine, _, block) = attr_run
        stacks = collapsed_stacks(block)
        assert stacks
        total_us = sum(frame["us"] for frame in stacks)
        want_us = (block["eval_s"] + block["solver_s"]) * 1e6
        # Integer-microsecond rounding: one count per emitted line.
        assert abs(total_us - want_us) <= len(stacks) + 1

    def test_collapsed_format_round_trips_json(self, attr_run):
        target, (engine, _, block) = attr_run
        wire = json.loads(json.dumps(block))
        text = render_collapsed(wire)
        for line in text.splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert stack.startswith(target + ";")
            assert stack.split(";")[2:] in ([], ["solver"])
            assert int(weight) > 0
        assert text == render_collapsed(block)

    def test_solver_frames_present(self, attr_run):
        _, (engine, _, block) = attr_run
        text = render_collapsed(block)
        assert ";solver " in text

    def test_chrome_trace_shape(self, attr_run):
        _, (engine, _, block) = attr_run
        trace = json.loads(json.dumps(chrome_trace(block)))
        events = trace["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0


class TestRenderers:
    def test_hot_report_round_trips_json(self, attr_run):
        _, (engine, _, block) = attr_run
        wire = json.loads(json.dumps(block))
        text = hot_report(wire)
        assert "cost attribution" in text
        assert "hottest rules:" in text
        assert text == hot_report(block)

    def test_min_share_filters_rows(self, attr_run):
        _, (engine, _, block) = attr_run
        everything = hot_rules_lines(block, top=100, min_share=0.0)
        dominant = hot_rules_lines(block, top=100, min_share=0.99)
        assert len(dominant) < len(everything)

    def test_annotate_emits_heat_margins(self, attr_run):
        target, (engine, _, block) = attr_run
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


class TestVersion2Block:
    """A block written before version 3 still renders everywhere; its
    per-IR-kind tables are ignored."""

    @pytest.fixture(scope="class")
    def block(self):
        with open(V2_BLOCK_PATH) as handle:
            block = json.load(handle)
        assert block["version"] == 2
        assert V2_ONLY_KEYS <= set(block)
        assert any("solver_by_ir" in entry
                   for entry in block["rules"].values())
        return block

    @pytest.fixture
    def sidecar(self, block, tmp_path):
        path = str(tmp_path / "v2.jsonl")
        sink = JsonlSink(path)
        sink.write_meta({"record": "run_summary", "isa": "rv32",
                         "paths": 2, "defects": 0,
                         "telemetry": {"attr": block}})
        sink.close()
        return path

    def test_renderers(self, block):
        text = hot_report(block)
        assert "hottest rules:" in text
        assert "hottest branch sites" in text
        stacks = collapsed_stacks(block)
        assert all(row["stack"][2:] in ([], ["solver"]) for row in stacks)
        total_us = sum(row["us"] for row in stacks)
        want_us = (block["eval_s"] + block["solver_s"]) * 1e6
        assert abs(total_us - want_us) <= len(stacks) + 1
        assert render_collapsed(block).startswith("rv32;")
        assert chrome_trace(block)["traceEvents"]
        assert "spec cost heat map: rv32" in annotate_spec_costs(block)

    def test_cli_readers(self, sidecar, capsys):
        assert main(["hot", sidecar]) == 0
        assert "hottest rules:" in capsys.readouterr().out
        assert main(["stats", sidecar]) == 0
        assert "hottest rules" in capsys.readouterr().out


class TestRunStore:
    def test_attr_json_artifact_round_trips(self, tmp_path):
        from repro.runstore import RunStore, record_exploration

        model, image = build_kernel("maze", "rv32", depth=2, solution=0b10)
        store = RunStore(str(tmp_path / "store"))
        config = EngineConfig(obs=Obs(metrics=True, profile=True),
                              attr=True)
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
                             EngineConfig(attr=True),
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
        assert main(["explore", "rv32", branchy, "--attr",
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

    def test_hot_stored_run_without_attr_is_clean_error(
            self, branchy, tmp_path, capsys):
        from repro.isa import assemble, build
        from repro.runstore import RunStore, record_exploration

        store = str(tmp_path / "store")
        model = build("rv32")
        _, stored = record_exploration(
            RunStore(store), model, assemble(model, BRANCHY),
            EngineConfig())
        assert main(["hot", stored.run_id, "--store", store]) == 1
        assert "no cost-attribution profile" in capsys.readouterr().err
