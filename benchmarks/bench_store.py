"""Run store dedup: store-hit vs re-exploration speedup.

PR 6's content-addressed run store turns a repeated submission —
identical spec, program, config, strategy and seed — into a manifest
lookup plus a ``result.json`` load, skipping the engine entirely.  This
benchmark quantifies that: each workload is recorded once (the miss,
paying exploration + serialization), then resubmitted (the hit).

The speed guard is the ``store.hit_speedup`` registration: ``repro
bench run --bench store.hit_speedup --check`` requires the hit to be
**>= 5x faster** than the recorded miss on the aggregate workload.  The
hit must also be *faithful*: same path count, defect kinds and coverage
as the live result — a fast wrong answer fails the measurement.  Run as
a script (``python benchmarks/bench_store.py``) it prints the table and
writes the ``.telemetry.json`` sidecar.
"""

import shutil
import tempfile

from repro.bench import Sample, benchmark
from repro.core import EngineConfig
from repro.programs import build_kernel
from repro.runstore import RunStore, cached_explore

from _util import print_table, timed, write_telemetry_sidecar

# Workloads sized so the miss does real exploration work.
WORKLOADS = [
    ("maze", {"depth": 9}),
    ("checksum", {"length": 5}),
    ("exerciser", {}),
]

#: Required store-hit speedup over re-exploration (>= 5x).
GUARD_SPEEDUP = 5.0


def _submit(store, kernel, params):
    model, image = build_kernel(kernel, "rv32", **params)
    config = EngineConfig(collect_coverage=True)
    return cached_explore(store, model, image, config)


def measure(workloads=WORKLOADS):
    """Rows of (kernel, miss_wall, hit_wall, live_result, hit_result)."""
    rows = []
    root = tempfile.mkdtemp(prefix="bench-store-")
    try:
        store = RunStore(root)
        for kernel, params in workloads:
            (live, _, hit_flag), miss_wall = timed(
                _submit, store, kernel, params)
            assert not hit_flag, kernel
            (cached, _, hit_flag), hit_wall = timed(
                _submit, store, kernel, params)
            assert hit_flag, kernel
            # Faithfulness: a fast wrong answer is no win.
            assert len(cached.paths) == len(live.paths), kernel
            assert [d.kind for d in cached.defects] == \
                [d.kind for d in live.defects], kernel
            assert cached.visited_pcs == live.visited_pcs, kernel
            rows.append((kernel, miss_wall, hit_wall, live, cached))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return rows


def _totals(rows):
    """(miss_total, hit_total) across the guard workloads."""
    return sum(row[1] for row in rows), sum(row[2] for row in rows)


@benchmark("store.hit_speedup",
           title="run store: content-addressed hit vs re-exploration",
           suite="quick", isas=("rv32",), unit="x", direction="higher",
           expect_min=GUARD_SPEEDUP, reps=3, warmup=0,
           workload="maze(depth 9) + checksum(len 5) + exerciser, "
                    "recorded once then resubmitted")
def _observatory_sample():
    miss_total, hit_total = _totals(measure())
    return Sample(miss_total / hit_total, wall_s=miss_total + hit_total)


def print_report():
    rows = measure()
    print_table(
        "Run store: recorded miss vs content-addressed hit (rv32)",
        ["kernel", "paths", "defects", "record (miss)", "hit",
         "speedup"],
        [[kernel, len(live.paths), len(live.defects),
          "%.3fs" % miss_wall, "%.4fs" % hit_wall,
          "%.1fx" % (miss_wall / hit_wall)]
         for kernel, miss_wall, hit_wall, live, _ in rows])
    miss_total, hit_total = _totals(rows)
    speedup = miss_total / hit_total
    runs = [{"label": kernel,
             "record_s": round(miss_wall, 4),
             "hit_s": round(hit_wall, 4),
             "telemetry": live.telemetry}
            for kernel, miss_wall, hit_wall, live, _ in rows]
    sidecar = write_telemetry_sidecar(__file__, runs,
                                      guard_speedup=round(speedup, 2),
                                      guard_required=GUARD_SPEEDUP)
    print("\nstore-hit guard speedup: %.1fx (bar %.1fx)"
          % (speedup, GUARD_SPEEDUP))
    print("telemetry sidecar: %s" % sidecar)


# -- pytest entry points ------------------------------------------------------

def test_bench_store_hit(benchmark):
    root = tempfile.mkdtemp(prefix="bench-store-")
    try:
        store = RunStore(root)
        _submit(store, "maze", {"depth": 9})        # record once

        def hit():
            result, _, hit_flag = _submit(store, "maze", {"depth": 9})
            assert hit_flag
            return result

        result = benchmark(hit)
        assert len(result.paths) > 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    print_report()
