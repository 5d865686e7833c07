"""Health monitor: sampler, watchdog, determinism.

The contracts under test:

* the sampler is read-only and step-count-driven, so a monitored run
  explores exactly the same tree as an unmonitored one;
* the watchdog speaks only when a threshold is configured and crossed,
  and on a healthy run it stays silent;
* diagnoses only report: there is no action to configure.
"""

import pytest

from repro.core import Engine, EngineConfig
from repro.obs import (HEALTH, WATCHDOG, HealthConfig, HealthMonitor,
                       Obs, RingBufferSink, health_summary_line)
from repro.obs.health import (FRONTIER_PRESSURE, HEALTH_SCHEMA,
                              POOL_PRESSURE, SOLVER_DOMINATED, STALL)
from repro.programs import build_kernel

KERNEL = ("maze", {"depth": 5, "solution": 0b10110})


def run_maze(health=None, strategy="dfs", sink=False, **config_kwargs):
    model, image = build_kernel(KERNEL[0], "rv32", **KERNEL[1])
    obs = Obs(metrics=True)
    ring = None
    if sink:
        ring = RingBufferSink(capacity=100000)
        obs.add_sink(ring)
    config = EngineConfig(obs=obs, health=health,
                          collect_coverage=True, **config_kwargs)
    engine = Engine(model, config=config, strategy=strategy)
    engine.load_image(image)
    result = engine.explore()
    return engine, result, ring


def fingerprint(result):
    """Order-independent digest of what a run found."""
    leaves = sorted((p.status, p.input_bytes, p.exit_code)
                    for p in result.paths)
    defects = sorted((d.kind, d.pc, d.input_bytes)
                     for d in result.defects)
    return (leaves, defects, result.instructions_executed)


class TestSampler:
    def test_samples_fire_on_step_cadence(self):
        health = HealthConfig(sample_every_steps=64)
        engine, result, _ = run_maze(health=health)
        monitor = engine.health
        assert monitor is not None
        expected = result.instructions_executed // 64
        assert monitor.total_samples == expected
        assert result.telemetry["health"]["samples"] == expected

    def test_sample_schema(self):
        health = HealthConfig(sample_every_steps=64)
        engine, result, _ = run_maze(health=health)
        sample = engine.health.samples[-1]
        assert sample["v"] == HEALTH_SCHEMA
        for key in ("seq", "t", "steps", "steps_per_sec", "frontier",
                    "coverage", "paths", "defects", "instructions",
                    "solver", "pool", "top_states"):
            assert key in sample
        for key in ("checks", "solve_time", "share", "hit_ratio"):
            assert key in sample["solver"]
        for key in ("interned", "grown"):
            assert key in sample["pool"]

    def test_health_events_emitted_and_flushed(self):
        health = HealthConfig(sample_every_steps=64)
        engine, _, ring = run_maze(health=health, sink=True)
        events = ring.events(HEALTH)
        assert len(events) == engine.health.total_samples
        assert all(event.data["sample"]["v"] == HEALTH_SCHEMA
                   for event in events)

    def test_top_states_bounded_and_sorted(self):
        health = HealthConfig(sample_every_steps=16, top_k=3)
        engine, _, _ = run_maze(health=health, strategy="bfs")
        saw_states = False
        for sample in engine.health.samples:
            top = sample["top_states"]
            assert len(top) <= 3
            weights = [f["path_terms"] + f["pages"] for f in top]
            assert weights == sorted(weights, reverse=True)
            saw_states = saw_states or bool(top)
        assert saw_states, "bfs keeps a frontier; some sample must see it"

    def test_healthy_run_has_zero_diagnoses(self):
        engine, _, _ = run_maze(health=HealthConfig(sample_every_steps=16))
        assert engine.health.diagnoses == []
        assert "healthy" in engine.health.report()

    def test_summary_line(self):
        health = HealthConfig(sample_every_steps=64)
        _, result, _ = run_maze(health=health)
        line = result.health_line()
        assert line is not None and line.startswith("health: samples=")
        assert health_summary_line(None) is None
        assert health_summary_line({"samples": 0}) is None
        assert health_summary_line("garbage") is None

    def test_unmonitored_run_has_no_health_telemetry(self):
        _, result, _ = run_maze(health=None)
        assert "health" not in result.telemetry
        assert result.health_line() is None


class TestDeterminism:
    def test_monitor_on_vs_off_identical_exploration(self):
        _, bare, _ = run_maze(health=None)
        _, monitored, _ = run_maze(
            health=HealthConfig(sample_every_steps=16))
        assert fingerprint(bare) == fingerprint(monitored)
        assert monitored.stop_reason == bare.stop_reason == "exhausted"

    def test_observe_only_watchdog_does_not_change_exploration(self):
        _, bare, _ = run_maze(health=None)
        # A ludicrous budget: fires on nearly every sample, and
        # diagnoses only report.
        engine, noisy, _ = run_maze(
            health=HealthConfig(sample_every_steps=16, frontier_budget=0))
        assert engine.health.diagnoses, "budget 0 must fire"
        assert fingerprint(bare) == fingerprint(noisy)
        assert noisy.stop_reason == "exhausted"


class TestWatchdog:
    def _monitor(self, **kwargs):
        config = HealthConfig(stall_window=None,
                              solver_share_threshold=None, **kwargs)
        return HealthMonitor(config)

    @staticmethod
    def _sample(seq=0, coverage=10, paths=1, defects=0, frontier=2,
                grown=0):
        return {"v": HEALTH_SCHEMA, "seq": seq, "t": 0.1 * seq,
                "coverage": coverage, "paths": paths, "defects": defects,
                "frontier": frontier, "pool": {"grown": grown},
                "steps_per_sec": 0.0}

    def test_stall_needs_a_full_window(self):
        monitor = self._monitor()
        monitor.config.stall_window = 2
        assert monitor._watchdog(self._sample(0), 0.0, 1.0) == []
        assert monitor._watchdog(self._sample(1), 0.0, 1.0) == []
        fired = monitor._watchdog(self._sample(2), 0.0, 1.0)
        assert [d["diagnosis"] for d in fired] == [STALL]
        assert fired[0]["streak"] == 2
        # Any progress resets the streak.
        assert monitor._watchdog(self._sample(3, coverage=11),
                                 0.0, 1.0) == []

    def test_solver_dominated(self):
        monitor = self._monitor()
        monitor.config.solver_share_threshold = 0.9
        fired = monitor._watchdog(self._sample(), 0.95, 1.0)
        assert [d["diagnosis"] for d in fired] == [SOLVER_DOMINATED]
        # Below the minimum window it stays silent (noise guard).
        assert monitor._watchdog(self._sample(1, coverage=99),
                                 0.95, 0.001) == []

    def test_frontier_and_pool_pressure(self):
        monitor = self._monitor(frontier_budget=5, pool_budget=100)
        fired = monitor._watchdog(self._sample(frontier=6, grown=101),
                                  0.0, 1.0)
        assert sorted(d["diagnosis"] for d in fired) == sorted(
            [FRONTIER_PRESSURE, POOL_PRESSURE])
        assert all("action" not in d for d in fired)

    def test_watchdog_events_carry_diagnosis(self):
        health = HealthConfig(sample_every_steps=16, frontier_budget=0)
        engine, _, ring = run_maze(health=health, sink=True)
        events = ring.events(WATCHDOG)
        assert len(events) == len(engine.health.diagnoses)
        assert all(event.data["diagnosis"] == FRONTIER_PRESSURE
                   for event in events)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HealthConfig(sample_every_steps=0)
        # The watchdog has no actions to configure.
        with pytest.raises(TypeError):
            HealthConfig(actions={FRONTIER_PRESSURE: "stop"})
        with pytest.raises(TypeError):
            HealthConfig(switch_strategy="bfs")


class TestDeadline:
    def test_zero_deadline_stops_immediately(self):
        _, result, _ = run_maze(health=None, max_wall_seconds=0.0)
        assert result.stop_reason == "deadline"
        assert result.paths == [] or result.instructions_executed >= 0

    def test_generous_deadline_never_fires(self):
        _, result, _ = run_maze(health=None, max_wall_seconds=3600.0)
        assert result.stop_reason == "exhausted"
