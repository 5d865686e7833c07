"""Telemetry overhead guard.

Runs the quickstart-shaped workload (maze kernel: forks, solver checks,
memory traffic) with three Obs configurations and asserts that the
engine default — **enabled counters, no event sink, no profiler** —
stays within ``MAX_OVERHEAD`` of a fully disabled Obs.  CI runs this on
every push so instrumentation creep is caught before it lands.

Usage::

    python benchmarks/bench_obs_overhead.py            # assert + report
    python benchmarks/bench_obs_overhead.py --report   # report only

Exit status 1 when the budget is exceeded.

Every repeat runs each configuration once, in turn, and each
configuration reads its best time over the repeats: a busy stretch of a
shared host then slows every configuration alike instead of landing on
the one whose repeats happened to run back to back.

(Not a pytest module on purpose: single-shot wall-clock assertions are
too noisy for the unit suite; best-of-N in a dedicated CI job is the
right home.)
"""

import sys
import time
from typing import List

from repro.bench import Sample, benchmark
from repro.core import Engine, EngineConfig
from repro.obs import AttrConfig, FlightRecorder, HealthConfig, Obs
from repro.programs import build_kernel

MAX_OVERHEAD = 0.15     # counters (and +health) must cost < 15% vs. disabled
MAX_ATTR_OVERHEAD = 0.20  # sampled cost attribution must cost < 20%
REPEATS = 5             # best-of, round-robin, to suppress host noise
WORKLOAD = ("maze", {"depth": 6, "solution": 0b101100})


def _recording() -> Obs:
    """Counters + a live FlightRecorder sink (the in-process execution
    tree).  Measured and reported, but NOT part of the guard: the
    recorder is default-off like every sink, so its cost is opt-in."""
    obs = Obs.default()
    obs.add_sink(FlightRecorder())
    return obs


def run_once(obs_factory, health_factory=None, attr_factory=None) -> float:
    model, image = build_kernel(WORKLOAD[0], "rv32", **WORKLOAD[1])
    health = health_factory() if health_factory is not None else None
    attr = attr_factory() if attr_factory is not None else None
    config = EngineConfig(collect_path_inputs=False, obs=obs_factory(),
                          health=health, attr=attr)
    engine = Engine(model, config=config)
    engine.load_image(image)
    start = time.perf_counter()
    result = engine.explore()
    elapsed = time.perf_counter() - start
    assert result.instructions_executed > 0
    return elapsed


def best_of_each(configs, repeats: int = REPEATS) -> List[float]:
    """Each ``(obs, health, attr)`` factory triple's best time over
    ``repeats`` rounds that run every configuration once, in turn."""
    best = [float("inf")] * len(configs)
    for _ in range(repeats):
        for index, factories in enumerate(configs):
            best[index] = min(best[index], run_once(*factories))
    return best


@benchmark("obs.counters_overhead",
           title="telemetry: default-counters overhead vs disabled Obs",
           suite="full", isas=("rv32",), unit="ratio", direction="lower",
           expect_max=MAX_OVERHEAD, reps=1, warmup=0,
           workload="maze(depth 6), best-of-%d round-robin per Obs "
                    "config" % REPEATS)
def _observatory_sample():
    run_once(Obs.disabled)      # warm model/decoder caches
    disabled, counters = best_of_each([(Obs.disabled, None, None),
                                       (Obs.default, None, None)])
    overhead = (counters - disabled) / disabled if disabled else 0.0
    return Sample(overhead, wall_s=disabled + counters)


def main(argv) -> int:
    report_only = "--report" in argv
    # Warm up model/decoder caches so the first config isn't penalized.
    run_once(Obs.disabled)
    # Health monitor at its default cadence (sample every 256 steps):
    # guarded alongside the counters — a monitored run must stay cheap
    # enough to leave on in CI.  Sampled cost attribution at its default
    # cadence (deep-probe every 16th step): guarded under its own,
    # looser, budget — attribution adds two clock reads to every step
    # by design.
    (disabled, counters, profiled, recording, monitored,
     attributed) = best_of_each([
         (Obs.disabled, None, None),
         (Obs.default, None, None),
         (lambda: Obs(metrics=True, profile=True), None, None),
         (_recording, None, None),
         (Obs.default, HealthConfig, None),
         (Obs.default, None, AttrConfig)])
    overhead = (counters - disabled) / disabled if disabled else 0.0
    health_overhead = ((monitored - disabled) / disabled
                       if disabled else 0.0)
    attr_overhead = ((attributed - disabled) / disabled
                     if disabled else 0.0)
    print("== telemetry overhead (best of %d round-robin, maze depth=%d) =="
          % (REPEATS, WORKLOAD[1]["depth"]))
    print("disabled:          %8.4fs" % disabled)
    print("counters (default):%8.4fs  (%+.1f%%)" % (counters,
                                                    100 * overhead))
    print("counters+health:   %8.4fs  (%+.1f%%)"
          % (monitored, 100 * health_overhead))
    print("counters+profiler: %8.4fs  (%+.1f%%)"
          % (profiled, 100 * (profiled - disabled) / disabled))
    print("counters+attr:     %8.4fs  (%+.1f%%)"
          % (attributed, 100 * attr_overhead))
    print("counters+recorder: %8.4fs  (%+.1f%%)  [opt-in, not guarded]"
          % (recording, 100 * (recording - disabled) / disabled))
    if report_only:
        return 0
    failed = False
    if overhead >= MAX_OVERHEAD:
        print("FAIL: default telemetry overhead %.1f%% >= %.0f%% budget"
              % (100 * overhead, 100 * MAX_OVERHEAD))
        failed = True
    if health_overhead >= MAX_OVERHEAD:
        print("FAIL: health monitor overhead %.1f%% >= %.0f%% budget"
              % (100 * health_overhead, 100 * MAX_OVERHEAD))
        failed = True
    if attr_overhead >= MAX_ATTR_OVERHEAD:
        print("FAIL: sampled attribution overhead %.1f%% >= %.0f%% "
              "budget" % (100 * attr_overhead, 100 * MAX_ATTR_OVERHEAD))
        failed = True
    if failed:
        return 1
    print("OK: default telemetry %.1f%%, health monitor %.1f%% "
          "< %.0f%% budget; sampled attribution %.1f%% < %.0f%% budget"
          % (100 * overhead, 100 * health_overhead,
             100 * MAX_OVERHEAD, 100 * attr_overhead,
             100 * MAX_ATTR_OVERHEAD))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
