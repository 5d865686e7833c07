"""The speed guards of the checkout's ``benchmarks/``, pinned.

Every speed guard is a benchmark registration's ``expect_min`` or
``expect_max``, enforced by ``repro bench run --check``; no script
carries a bar of its own.  This pins the exact inventory, so a bar that
moves, disappears or appears shows up in review as an edit here.
"""

from repro.bench import all_benchmarks, discover

#: bench id -> (expect_min, expect_max)
BARS = {
    "solver_cache.repeated_speedup": (1.2, None),
    "store.hit_speedup": (5.0, None),
    "compile.concrete_speedup": (2.0, None),
    "lint.transval_cold_vs_cached": (5.0, None),
    "obs.counters_overhead": (None, 0.15),
    "obs.health_overhead": (None, 0.15),
    "obs.attr_overhead": (None, 0.20),
}


def test_expectation_inventory():
    discover()
    barred = [bench for bench in all_benchmarks()
              if bench.expect_min is not None
              or bench.expect_max is not None]
    assert {bench.id: (bench.expect_min, bench.expect_max)
            for bench in barred} == BARS
    # A floor guards a higher-is-better reading, a ceiling a lower one.
    for bench in barred:
        assert bench.direction == ("higher" if bench.expect_min is not None
                                   else "lower"), bench.id


def test_unbarred_overheads_are_measured():
    discover()
    ids = {bench.id for bench in all_benchmarks()}
    assert {"obs.profiler_overhead", "obs.recorder_overhead"} <= ids
