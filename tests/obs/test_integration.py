"""End-to-end: an instrumented exploration emits coherent telemetry.

The acceptance invariants: ``path_end`` events == result.paths,
``defect`` events == result.defects, fork events carry real state ids —
on more than one ISA, since the engine is retargetable.
"""

import pytest

from repro.core import Engine, EngineConfig
from repro.isa import assemble, build
from repro.obs import Obs, RingBufferSink
from repro.programs import build_kernel

# A two-branch program with a reachable trap, via the portable builder
# (one source, every ISA).
KERNEL = ("maze", {"depth": 2, "solution": 0b10})


def explore_with_ring(target, profile=False):
    model, image = build_kernel(KERNEL[0], target, **KERNEL[1])
    obs = Obs(metrics=True, profile=profile)
    ring = RingBufferSink(capacity=100000)
    obs.add_sink(ring)
    engine = Engine(model, config=EngineConfig(obs=obs))
    engine.load_image(image)
    result = engine.explore()
    return engine, result, ring


@pytest.mark.parametrize("target", ["rv32", "mips32"])
class TestEventCoherence:
    def test_path_end_events_match_paths(self, target):
        _, result, ring = explore_with_ring(target)
        ends = ring.events("path_end")
        assert len(ends) == len(result.paths)
        assert ({event.state_id for event in ends}
                == {path.state.state_id for path in result.paths})

    def test_defect_events_match_defects(self, target):
        _, result, ring = explore_with_ring(target)
        defects = ring.events("defect")
        assert len(defects) == len(result.defects)
        assert ({event.data["defect_kind"] for event in defects}
                == {defect.kind for defect in result.defects})
        assert ({event.state_id for event in defects}
                == {defect.state_id for defect in result.defects})

    def test_fork_events_have_real_children(self, target):
        _, result, ring = explore_with_ring(target)
        forks = ring.events("fork")
        assert forks, "a branching maze must fork"
        ended = {event.state_id for event in ring.events("path_end")}
        ended |= {event.state_id for event in ring.events("defect")}
        all_children = set()
        for event in forks:
            children = event.data["children"]
            assert len(children) >= 2
            all_children.update(children)
        # Every finished state is the root or a fork child.
        roots = {event.state_id for event in ring.events("step")}
        assert ended <= (all_children | roots)

    def test_events_tagged_with_isa(self, target):
        _, _, ring = explore_with_ring(target)
        assert {event.isa for event in ring.events()} == {target}

    def test_step_events_match_instruction_count(self, target):
        _, result, ring = explore_with_ring(target)
        assert len(ring.events("step")) == result.instructions_executed


class TestTelemetrySnapshot:
    def test_result_carries_telemetry(self):
        _, result, _ = explore_with_ring("rv32")
        telemetry = result.telemetry
        assert telemetry["isa"] == "rv32"
        # Each count lives on the result, once: the telemetry repeats
        # none of it.
        assert not {"solver", "wall_time"} & set(telemetry)
        assert not [name for name in telemetry["metrics"]["counters"]
                    if name.split(".")[0] in ("engine", "solver",
                                              "health")]
        summary = result.run_summary("rv32")
        assert (summary["paths"], summary["defects"], summary["forks"],
                summary["pruned"]) == (len(result.paths),
                                       len(result.defects),
                                       result.states_forked,
                                       result.states_pruned)
        assert summary["telemetry"] == dict(telemetry,
                                            solver=result.solver_stats)

    def test_profiler_phases_populated(self):
        _, result, _ = explore_with_ring("rv32", profile=True)
        phases = result.telemetry["phases"]
        for name in ("decode", "eval", "strategy", "solver"):
            assert name in phases, "missing phase %r" % name
            assert phases[name]["calls"] > 0


class TestPerExplorationDeltas:
    """The solver-stats lifetime bug: explore() twice must not inflate."""

    def test_second_explore_reports_own_solver_stats(self):
        model, image = build_kernel(KERNEL[0], "rv32", **KERNEL[1])
        engine = Engine(model)
        engine.load_image(image)
        first = engine.explore()
        second = engine.explore()
        assert first.solver_stats["checks"] > 0
        # Identical workload: the second run must not report cumulative
        # counts (the old bug doubled them).
        assert second.solver_stats["checks"] <= \
            first.solver_stats["checks"]
        assert second.solver_stats["solve_time"] <= \
            first.solver_stats["solve_time"] * 10

    def test_second_explore_reports_own_counters(self):
        model, image = build_kernel(KERNEL[0], "rv32", **KERNEL[1])
        engine = Engine(model)
        engine.load_image(image)
        first = engine.explore()
        second = engine.explore()
        c1 = first.telemetry["metrics"]["counters"]
        c2 = second.telemetry["metrics"]["counters"]
        # Identical workload: the second run's decode counts are its
        # own, one per instruction, not the two runs' sum.
        for counters, result in ((c1, first), (c2, second)):
            assert counters.get("decode.cache_hit", 0) \
                + counters.get("decode.cache_miss", 0) \
                == result.instructions_executed > 0
        assert second.instructions_executed == first.instructions_executed


class TestDisabledObs:
    def test_fully_disabled_obs_still_explores(self):
        model, image = build_kernel(KERNEL[0], "rv32", **KERNEL[1])
        engine = Engine(model, config=EngineConfig(obs=Obs.disabled()))
        engine.load_image(image)
        result = engine.explore()
        assert result.paths or result.defects
        assert result.telemetry["metrics"]["counters"] == {}
        assert result.telemetry["phases"] == {}
        assert result.telemetry["events_emitted"] == 0

    def test_default_engine_has_counters_but_no_events(self):
        model, image = build_kernel(KERNEL[0], "rv32", **KERNEL[1])
        engine = Engine(model)
        engine.load_image(image)
        result = engine.explore()
        counters = result.telemetry["metrics"]["counters"]
        assert counters["decode.cache_hit"] \
            + counters.get("decode.cache_miss", 0) \
            == result.instructions_executed
        assert result.telemetry["events_emitted"] == 0


class TestDecodeCacheTelemetry:
    def test_decode_cache_events_and_counters(self):
        model, image = build_kernel(KERNEL[0], "rv32", **KERNEL[1])
        model.decoder.cache_clear()
        obs = Obs(metrics=True)
        ring = RingBufferSink(capacity=100000)
        obs.add_sink(ring)
        engine = Engine(model, config=EngineConfig(obs=obs))
        engine.load_image(image)
        result = engine.explore()
        events = ring.events("decode_cache")
        assert len(events) == result.instructions_executed
        hits = sum(1 for event in events if event.data["hit"])
        misses = len(events) - hits
        counters = result.telemetry["metrics"]["counters"]
        assert counters["decode.cache_hit"] == hits
        assert counters["decode.cache_miss"] == misses


class TestMergeTelemetry:
    def test_merge_events_emitted(self):
        model, image = build_kernel("diamonds", "rv32", count=4)
        obs = Obs(metrics=True)
        ring = RingBufferSink(capacity=100000)
        obs.add_sink(ring)
        engine = Engine(model, strategy="bfs",
                        config=EngineConfig(merge_states=True, obs=obs))
        engine.load_image(image)
        engine.explore()
        merges = ring.events("merge")
        assert merges
        assert engine.strategy.merges == len(merges)
        for event in merges:
            assert len(event.data["merged_from"]) == 2
