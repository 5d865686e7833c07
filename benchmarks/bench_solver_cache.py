"""Solver query cache + incremental check reuse: speedup measurement.

Table 3 shows the solver dominating exploration runtime; this benchmark
quantifies what the caching layer (ISSUE 3) buys back.  Two workload
shapes, each run with the cache on and off (``use_solver_cache`` — the
``--no-solver-cache`` CLI baseline):

* **single** — one exploration per engine.  Within one run the cache is
  fed by path-condition prefix sharing: per-branch feasibility checks
  reuse the parent frame (frame reuse), extended path conditions reuse
  cached models (model reuse) and unsat cores (subsumption).
* **repeated** — the same engine explores twice (the repeated-query
  workload: re-running analysis after a checker or strategy change).
  The second pass replays the first pass's queries nearly verbatim, so
  the exact-hit layer answers most of them.

The speed guard is the ``solver_cache.repeated_speedup``
registration: ``repro bench run --bench solver_cache.repeated_speedup
--check`` requires a **>= 20% wall-clock improvement** on the
repeated-branch maze+checksum workload, cache on vs off.  Run as a
script (``python benchmarks/bench_solver_cache.py``) it prints the full
table and writes the ``.telemetry.json`` sidecar.
"""

import pytest

from repro.bench import Sample, benchmark
from repro.core import Engine, EngineConfig
from repro.programs import build_kernel
from repro.smt import Solver

from _util import print_table, timed, write_telemetry_sidecar

# The repeated-branch workloads named by the acceptance criterion.
GUARD_WORKLOADS = [
    ("maze", {"depth": 9}),
    ("checksum", {"length": 5}),
]

# Extra context rows for the printed table.
EXTRA_WORKLOADS = [
    ("diamonds", {}),
    ("password", {}),
]

#: Required cached-speedup on the repeated-query workload (>= 20%).
GUARD_SPEEDUP = 1.20


def _engine(kernel, params, use_cache):
    model, image = build_kernel(kernel, "rv32", **params)
    config = EngineConfig(use_solver_cache=use_cache)
    engine = Engine(model, solver=Solver(use_query_cache=use_cache),
                    config=config)
    engine.load_image(image)
    return engine


def run_workload(kernel, params, use_cache, explorations=1):
    """Explore ``explorations`` times on one engine; returns
    (wall_seconds, last_result, engine)."""
    engine = _engine(kernel, params, use_cache)

    def run():
        result = None
        for _ in range(explorations):
            result = engine.explore()
        return result

    result, wall = timed(run)
    return wall, result, engine


def measure(workloads, explorations):
    """Rows of (kernel, on_wall, off_wall, on_result, on_engine,
    off_engine)."""
    rows = []
    for kernel, params in workloads:
        on_wall, on_result, on_engine = run_workload(
            kernel, params, True, explorations)
        off_wall, off_result, off_engine = run_workload(
            kernel, params, False, explorations)
        # Soundness spot check, mirroring the differential harness.
        assert len(on_result.paths) == len(off_result.paths), kernel
        assert len(on_result.defects) == len(off_result.defects), kernel
        rows.append((kernel, on_wall, off_wall, on_result, on_engine,
                     off_engine))
    return rows


def _cache_cells(engine):
    stats = engine.solver.stats
    return ("%d/%d" % (stats.cache_hit_sat + stats.cache_hit_unsat,
                       stats.cache_misses),
            stats.cache_model_reuse, stats.cache_subsumed_unsat,
            stats.frame_reuse)


def table_rows():
    rows = []
    for mode, explorations in (("single", 1), ("repeated", 2)):
        for kernel, on_wall, off_wall, result, engine, _ in measure(
                GUARD_WORKLOADS + EXTRA_WORKLOADS, explorations):
            hits, model_reuse, subsumed, frame = _cache_cells(engine)
            rows.append([
                kernel, mode, len(result.paths),
                "%.3fs" % on_wall, "%.3fs" % off_wall,
                "%.2fx" % (off_wall / on_wall),
                hits, model_reuse, subsumed, frame,
            ])
    return rows


def _guard_totals(explorations=2):
    """(rows, cache_on_total, cache_off_total) on the guard workload."""
    rows = measure(GUARD_WORKLOADS, explorations)
    on_total = sum(row[1] for row in rows)
    off_total = sum(row[2] for row in rows)
    return rows, on_total, off_total


@benchmark("solver_cache.repeated_speedup",
           title="solver cache: repeated-query speedup (on vs off)",
           suite="quick", isas=("rv32",), unit="x", direction="higher",
           expect_min=GUARD_SPEEDUP, reps=3, warmup=0,
           workload="maze(depth 9) + checksum(len 5), explored twice "
                    "per engine, cache on vs --no-solver-cache")
def _observatory_sample():
    rows, on_total, off_total = _guard_totals()
    # Solver time over the explorations wall_s covers: every
    # exploration of both engines, cache on and off.  (A result's
    # solver_stats cover its own exploration only.)
    solver_s = sum(engine.solver.stats.solve_time
                   for row in rows for engine in row[4:6])
    return Sample(off_total / on_total, wall_s=on_total + off_total,
                  solver_time_s=solver_s)


def print_report():
    print_table(
        "Solver query cache: cached vs --no-solver-cache (rv32)",
        ["kernel", "workload", "paths", "cache on", "cache off",
         "speedup", "hit/miss", "model reuse", "subsumed", "frame reuse"],
        table_rows())
    rows, on_total, off_total = _guard_totals()
    speedup = off_total / on_total
    runs = [{"label": "%s repeated" % kernel,
             "cache_on_s": round(on_wall, 4),
             "cache_off_s": round(off_wall, 4),
             "telemetry": result.telemetry}
            for kernel, on_wall, off_wall, result, _on, _off in rows]
    sidecar = write_telemetry_sidecar(__file__, runs,
                                      guard_speedup=round(speedup, 3),
                                      guard_required=GUARD_SPEEDUP)
    print("\nrepeated-query guard workload speedup: %.2fx (bar %.2fx)"
          % (speedup, GUARD_SPEEDUP))
    print("telemetry sidecar: %s" % sidecar)


# -- pytest entry points ------------------------------------------------------

def test_cache_layers_fire_on_guard_workload():
    """The guard workload must exercise every cache layer (no vacuous
    wins): frame reuse and exact hits on maze, and nothing may change
    the explored path count."""
    _, result, engine = run_workload("maze", {"depth": 9}, True,
                                     explorations=2)
    stats = engine.solver.stats
    assert stats.frame_reuse > 0
    assert stats.cache_hit_sat + stats.cache_hit_unsat > 0
    assert stats.cache_model_reuse > 0
    assert result.solver_cache_line() is not None


@pytest.mark.parametrize("use_cache", [True, False],
                         ids=["cache-on", "cache-off"])
def test_bench_maze(benchmark, use_cache):
    def run():
        _, result, _ = run_workload("maze", {"depth": 8}, use_cache)
        return result

    result = benchmark(run)
    assert len(result.paths) > 0


if __name__ == "__main__":
    print_report()
