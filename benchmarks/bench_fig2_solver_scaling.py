"""Figure 2 — Solver scaling and the value of the cheap layers.

Two series:

* **End-to-end**: time to solve the checksum kernel's trap query as the
  input length (and hence the multiply-accumulate constraint chain)
  grows — the solver-bound workload.
* **Ablation**: the same engine runs with every layer in front of CDCL
  disabled — the query cache (exact hits, unsat subsumption, model
  replay), the engine's frame reuse and the interval pre-filter —
  isolating what the cheap layers buy before bit-blasting (DESIGN.md
  lists this as a design-choice experiment).

Paper-shape expectation: solve time grows superlinearly with constraint
size; the filter layers give a constant-factor win that grows with the
number of (mostly easy) branch queries.
"""

import pytest

from repro.bench import Sample, benchmark
from repro.core import Engine, EngineConfig
from repro.programs import build_kernel
from repro.smt import Solver
from repro.smt import terms as T
from repro.smt.solver import cache_answers

from _util import print_table, timed

LENGTHS = [2, 3, 4, 5, 6]


def run_point(kernel, use_filters, **params):
    model, image = build_kernel(kernel, "rv32", **params)
    solver = Solver(use_intervals=use_filters, use_query_cache=use_filters)
    engine = Engine(model, solver=solver,
                    config=EngineConfig(collect_path_inputs=False,
                                        use_solver_cache=use_filters))
    engine.load_image(image)
    result, wall = timed(engine.explore)
    return result, wall


@benchmark("fig2.filter_layers_speedup",
           title="solver filters: cheap-layer speedup on checksum",
           suite="full", isas=("rv32",), unit="x", direction="higher",
           reps=3, warmup=0,
           workload="checksum(len 4) with query cache, frame reuse and "
                    "intervals on vs off")
def _observatory_sample():
    full, full_time = run_point("checksum", True, length=4, magic=0x2d2d)
    _bare, bare_time = run_point("checksum", False, length=4,
                                 magic=0x2d2d)
    return Sample(bare_time / full_time if full_time else 0.0,
                  wall_s=full_time + bare_time,
                  solver_time_s=full.solver_stats.get("solve_time"))


def figure_rows():
    rows = []
    for length in LENGTHS:
        full, full_time = run_point("checksum", True, length=length,
                                    magic=0x2d2d)
        bare, bare_time = run_point("checksum", False, length=length,
                                    magic=0x2d2d)
        stats = full.solver_stats
        rows.append([
            "checksum", length,
            int(stats["checks"]),
            int(stats["sat_calls"]),
            cache_answers(stats),
            "%.3fs" % full_time,
            "%.3fs" % bare_time,
            "%.2fx" % (bare_time / full_time if full_time else 0),
        ])
    # Branch-heavy counterpoint: many easy branch-feasibility queries,
    # the shape the cheap layers are meant to answer before CDCL.
    for depth in (4, 6, 8):
        full, full_time = run_point("maze", True, depth=depth)
        bare, bare_time = run_point("maze", False, depth=depth)
        stats = full.solver_stats
        rows.append([
            "maze", depth,
            int(stats["checks"]),
            int(stats["sat_calls"]),
            cache_answers(stats),
            "%.3fs" % full_time,
            "%.3fs" % bare_time,
            "%.2fx" % (bare_time / full_time if full_time else 0),
        ])
    return rows


def constraint_family_rows():
    """Pure-solver series: chained multiply-accumulate equalities."""
    rows = []
    for length in LENGTHS:
        def solve():
            solver = Solver()
            acc = T.bv(0, 32)
            for i in range(length):
                byte = T.zext(T.var("f2_%d_%d" % (length, i), 8), 24)
                acc = T.and_(T.add(T.mul(acc, T.bv(31, 32)), byte),
                             T.bv(0xffff, 32))
            solver.add(T.eq(acc, T.bv(0x2d2d, 32)))
            return solver.check()

        answer, wall = timed(solve)
        rows.append([length, answer, "%.3fs" % wall])
    return rows


def print_report():
    print_table(
        "Figure 2a (series): exploration time with and without the "
        "filter layers (query cache + frame reuse + intervals)",
        ["kernel", "size", "checks", "SAT calls", "cache answers",
         "filters on", "filters off", "speedup"],
        figure_rows())
    print_table(
        "Figure 2b (series): raw solver time on the constraint family",
        ["chain length", "answer", "time"],
        constraint_family_rows())


# length 2 cannot reach 0x2d2d (max 255*31+255 = 8160): start at 3.
@pytest.mark.parametrize("length", [3, 4])
def test_checksum_solve_time(benchmark, length):
    model, image = build_kernel("checksum", "rv32", length=length,
                                magic=0x2d2d)

    def explore():
        engine = Engine(model,
                        config=EngineConfig(collect_path_inputs=False))
        engine.load_image(image)
        return engine.explore()

    result = benchmark(explore)
    assert result.first_defect("reachable-trap") is not None


def test_print_fig2():
    print_report()


if __name__ == "__main__":
    print_report()
