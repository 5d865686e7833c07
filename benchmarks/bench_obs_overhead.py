"""Telemetry overhead guard.

Runs the quickstart-shaped workload (maze kernel: forks, solver checks,
memory traffic; depth 8, about 0.35 s per exploration, long enough that
a scheduling hiccup on a shared host is a small share of one run) with
several Obs configurations and asserts that the
engine default — **enabled counters, no event sink, no profiler** —
stays within ``MAX_OVERHEAD`` of a fully disabled Obs.  CI runs this on
every push so instrumentation creep is caught before it lands.

Usage::

    python benchmarks/bench_obs_overhead.py            # assert + report
    python benchmarks/bench_obs_overhead.py --report   # report only

Exit status 1 when the budget is exceeded.

Every round runs the configurations in turn (round-robin) with the
disabled configuration before each of them and once more at the end, so
each run sits between two disabled runs; its ratio is its time over the
mean of those two, and a configuration's overhead is the median of its
ratios over the rounds.  A shared host's speed drifts by tens of percent
between stretches of a few seconds; neighbouring runs see the same
drift, so the bracketed ratio cancels it, where comparing each
configuration's best time across all rounds does not (one lucky fast
run sets a minimum: two identical configurations read up to ±30% apart
that way).

(Not a pytest module on purpose: single-shot wall-clock assertions are
too noisy for the unit suite; repeated rounds in a dedicated CI job are
the right home.)
"""

import statistics
import sys
import time
from typing import List, Tuple

from repro.bench import Sample, benchmark
from repro.core import Engine, EngineConfig
from repro.obs import FlightRecorder, HealthConfig, Obs
from repro.programs import build_kernel

MAX_OVERHEAD = 0.15     # counters (and +health) must cost < 15% vs. disabled
MAX_ATTR_OVERHEAD = 0.20  # cost attribution must cost < 20%
REPEATS = 7             # round-robin rounds; overheads are medians
WORKLOAD = ("maze", {"depth": 8, "solution": 0b10110010})


def _recording() -> Obs:
    """Counters + a live FlightRecorder sink (the in-process execution
    tree).  Measured and reported, but NOT part of the guard: the
    recorder is default-off like every sink, so its cost is opt-in."""
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


def round_robin(configs, repeats: int = REPEATS
                ) -> Tuple[List[float], List[List[float]]]:
    """``(overheads, times)`` for ``(obs factory, health factory,
    attr)`` triples: each configuration after the first (the baseline)
    gets its median ratio over ``repeats`` rounds, minus one; ``times``
    holds every configuration's run times, the baseline's first."""
    baseline, others = configs[0], configs[1:]
    times: List[List[float]] = [[] for _ in configs]
    ratios: List[List[float]] = [[] for _ in others]
    for _ in range(repeats):
        before = run_once(*baseline)
        times[0].append(before)
        for index, factories in enumerate(others):
            elapsed = run_once(*factories)
            after = run_once(*baseline)
            times[index + 1].append(elapsed)
            times[0].append(after)
            ratios[index].append(2 * elapsed / (before + after))
            before = after
    return [statistics.median(runs) - 1.0 for runs in ratios], times


@benchmark("obs.counters_overhead",
           title="telemetry: default-counters overhead vs disabled Obs",
           suite="full", isas=("rv32",), unit="ratio", direction="lower",
           expect_max=MAX_OVERHEAD, reps=1, warmup=0,
           workload="maze(depth %d), %d round-robin rounds, median "
                    "ratio to the bracketing disabled runs"
                    % (WORKLOAD[1]["depth"], REPEATS))
def _observatory_sample():
    run_once(Obs.disabled)      # warm model/decoder caches
    (counters_overhead,), times = round_robin([(Obs.disabled, None, False),
                                               (Obs.default, None, False)])
    return Sample(counters_overhead, wall_s=sum(map(sum, times)))


def main(argv) -> int:
    report_only = "--report" in argv
    # Warm up model/decoder caches so the first config isn't penalized.
    run_once(Obs.disabled)
    # Health monitor at its default cadence (sample every 256 steps):
    # guarded alongside the counters — a monitored run must stay cheap
    # enough to leave on in CI.  Cost attribution: guarded under its
    # own, looser, budget — attribution adds two clock reads to every
    # step by design.
    overheads, times = round_robin([
        (Obs.disabled, None, False),
        (Obs.default, None, False),
        (lambda: Obs(metrics=True, profile=True), None, False),
        (_recording, None, False),
        (Obs.default, HealthConfig, False),
        (Obs.default, None, True)])
    (counters_overhead, profiled_overhead, recording_overhead,
     health_overhead, attr_overhead) = overheads
    disabled, counters, profiled, recording, monitored, attributed = [
        statistics.median(config) for config in times]
    print("== telemetry overhead (%d round-robin rounds, median ratio to "
          "the bracketing disabled runs, maze depth=%d) =="
          % (REPEATS, WORKLOAD[1]["depth"]))
    print("disabled:          %8.4fs" % disabled)
    print("counters (default):%8.4fs  (%+.1f%%)"
          % (counters, 100 * counters_overhead))
    print("counters+health:   %8.4fs  (%+.1f%%)"
          % (monitored, 100 * health_overhead))
    print("counters+profiler: %8.4fs  (%+.1f%%)"
          % (profiled, 100 * profiled_overhead))
    print("counters+attr:     %8.4fs  (%+.1f%%)"
          % (attributed, 100 * attr_overhead))
    print("counters+recorder: %8.4fs  (%+.1f%%)  [opt-in, not guarded]"
          % (recording, 100 * recording_overhead))
    if report_only:
        return 0
    failed = False
    if counters_overhead >= MAX_OVERHEAD:
        print("FAIL: default telemetry overhead %.1f%% >= %.0f%% budget"
              % (100 * counters_overhead, 100 * MAX_OVERHEAD))
        failed = True
    if health_overhead >= MAX_OVERHEAD:
        print("FAIL: health monitor overhead %.1f%% >= %.0f%% budget"
              % (100 * health_overhead, 100 * MAX_OVERHEAD))
        failed = True
    if attr_overhead >= MAX_ATTR_OVERHEAD:
        print("FAIL: attribution overhead %.1f%% >= %.0f%% budget"
              % (100 * attr_overhead, 100 * MAX_ATTR_OVERHEAD))
        failed = True
    if failed:
        return 1
    print("OK: default telemetry %.1f%%, health monitor %.1f%% "
          "< %.0f%% budget; attribution %.1f%% < %.0f%% budget"
          % (100 * counters_overhead, 100 * health_overhead,
             100 * MAX_OVERHEAD, 100 * attr_overhead,
             100 * MAX_ATTR_OVERHEAD))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
