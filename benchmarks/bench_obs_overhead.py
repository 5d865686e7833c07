"""Telemetry overhead: each observer's cost against a disabled Obs.

Runs the quickstart-shaped workload (maze kernel: forks, solver checks,
memory traffic; depth 8, about 0.2 s per exploration on a 2-core shared
x86-64 host, long enough that a scheduling hiccup is a small share of
one run) under one observer configuration and under a fully disabled
Obs, and registers one benchmark per configuration:

* ``obs.counters_overhead`` — the engine default (enabled counters, no
  event sink, no profiler); bar ``expect_max=0.15``;
* ``obs.health_overhead`` — counters + the health monitor at its
  default cadence; bar 0.15;
* ``obs.attr_overhead`` — counters + cost attribution, which adds two
  clock reads to every step by design; bar 0.20;
* ``obs.profiler_overhead`` and ``obs.recorder_overhead`` — counters +
  the phase profiler, counters + a live FlightRecorder sink; measured,
  no bar (both are opt-in).

CI enforces the three bars with ``repro bench run --bench
obs.counters_overhead --bench obs.health_overhead --bench
obs.attr_overhead --check``.

The measured configuration runs ``REPEATS`` times, each run between
two disabled runs (the disabled run that closes one round opens the
next); a run's ratio is its time over the mean of those two, and the
overhead is the median of the ratios, minus one.  A shared host's speed
drifts by tens of percent between stretches of a few seconds;
neighbouring runs see the same drift, so the bracketed ratio cancels
it, where comparing each configuration's best time across all rounds
does not (one lucky fast run sets a minimum: two identical
configurations read up to ±30% apart that way).

(Not a pytest module on purpose: single-shot wall-clock assertions are
too noisy for the unit suite.)
"""

import statistics
import time
from typing import List, Tuple

from repro.bench import Sample, benchmark
from repro.core import Engine, EngineConfig
from repro.obs import FlightRecorder, HealthConfig, Obs
from repro.programs import build_kernel

MAX_OVERHEAD = 0.15       # counters, and counters + health
MAX_ATTR_OVERHEAD = 0.20  # cost attribution
REPEATS = 7               # bracketed rounds; the overhead is a median
WORKLOAD = ("maze", {"depth": 8, "solution": 0b10110010})
DISABLED = (Obs.disabled, None, False)


def _recording() -> Obs:
    """Counters + a live FlightRecorder sink (the in-process execution
    tree)."""
    obs = Obs.default()
    obs.add_sink(FlightRecorder())
    return obs


def run_once(obs_factory, health_factory=None, attr=False) -> float:
    model, image = build_kernel(WORKLOAD[0], "rv32", **WORKLOAD[1])
    health = health_factory() if health_factory is not None else None
    config = EngineConfig(collect_path_inputs=False, obs=obs_factory(),
                          health=health, attr=attr)
    engine = Engine(model, config=config)
    engine.load_image(image)
    start = time.perf_counter()
    result = engine.explore()
    elapsed = time.perf_counter() - start
    assert result.instructions_executed > 0
    return elapsed


def bracketed_overhead(config, repeats: int = REPEATS
                       ) -> Tuple[float, float]:
    """``(overhead, wall_s)`` of an ``(obs factory, health factory,
    attr)`` configuration: the median over ``repeats`` rounds of its
    run time over the mean of the disabled runs around it, minus one;
    ``wall_s`` is the time of every run."""
    run_once(*DISABLED)         # warm model/decoder caches
    before = run_once(*DISABLED)
    wall = before
    ratios: List[float] = []
    for _ in range(repeats):
        elapsed = run_once(*config)
        after = run_once(*DISABLED)
        ratios.append(2 * elapsed / (before + after))
        wall += elapsed + after
        before = after
    return statistics.median(ratios) - 1.0, wall


def _register(bench_id, observer, config, budget=None):
    def sample():
        overhead, wall = bracketed_overhead(config)
        return Sample(overhead, wall_s=wall)

    benchmark(bench_id,
              title="telemetry: %s overhead vs disabled Obs" % observer,
              suite="full", isas=("rv32",), unit="ratio",
              direction="lower", expect_max=budget, reps=1, warmup=0,
              workload="maze(depth %d), %d rounds, median ratio to the "
                       "bracketing disabled runs"
                       % (WORKLOAD[1]["depth"], REPEATS))(sample)


_register("obs.counters_overhead", "default-counters",
          (Obs.default, None, False), MAX_OVERHEAD)
_register("obs.health_overhead", "counters + health monitor",
          (Obs.default, HealthConfig, False), MAX_OVERHEAD)
_register("obs.attr_overhead", "counters + cost attribution",
          (Obs.default, None, True), MAX_ATTR_OVERHEAD)
_register("obs.profiler_overhead", "counters + phase profiler",
          (lambda: Obs(metrics=True, profile=True), None, False))
_register("obs.recorder_overhead", "counters + flight recorder",
          (_recording, None, False))
