"""Table 4 — The cost of generality: generated engine vs hand-written.

The ADL-generated rv32 engine against the hand-written
:class:`~repro.baseline.Rv32NativeEngine` (same solver substrate, same
exploration discipline) on the same kernels.  The paper-shape expectation:
the generated engine pays a small constant factor for running rules
generated from the spec instead of native dispatch — and both engines
must agree exactly on paths, instructions and findings.

The **generated** column runs each rule's compiled mixed int/term plan
(``repro.compile``), the engine's only evaluator; one untimed
exploration first compiles the rules a kernel executes, so the row
times exploration, not code generation.  The concrete simulator keeps
both evaluators — the IR interpreter and, with ``compiled=True``, the
engine's own plans run through the same plan driver on its int state —
and the speed guard, the ``compile.concrete_speedup`` registration
(``repro bench run --bench compile.concrete_speedup --check``),
requires its compiled stepping to be **>= 2.0x** faster than
interpreted stepping on the exerciser kernel; ``tests/compile``
separately guarantees the speedup changes nothing observable.  Run as
a script (``python benchmarks/bench_table4_generated_vs_native.py``)
it prints the table and writes the ``.telemetry.json`` sidecar.
"""

import statistics
import time

import pytest

from repro.baseline import Rv32NativeEngine
from repro.bench import Sample, benchmark
from repro.core import Engine, EngineConfig
from repro.isa.simulator import Simulator
from repro.programs import build_kernel

from _util import print_table, timed, write_telemetry_sidecar

WORKLOADS = [
    ("password", {"secret": b"adl!"}),
    ("maze", {"depth": 7, "solution": 0b1011001}),
    ("checksum", {"length": 4, "magic": 0x2d2d}),
    ("bsearch", {}),
]

#: Required compiled-vs-interpreted speedup, concrete exerciser stepping.
GUARD_COMPILED_SPEEDUP = 2.0

#: Whole-kernel executions per timing sample (amortizes reset cost).
_CONCRETE_REPS = 100

#: Rounds of back-to-back interpreted/compiled samples; the speedup is
#: the median of the rounds' ratios.
_CONCRETE_ROUNDS = 15


def run_pair(kernel, params):
    model, image = build_kernel(kernel, "rv32", **params)

    def native():
        engine = Rv32NativeEngine()
        engine.load_image(image)
        return engine.explore()

    def generated():
        engine = Engine(model, config=EngineConfig(
            collect_path_inputs=False))
        engine.load_image(image)
        return engine.explore()

    # Rules compile on first execution, once per (ISA, spec digest)
    # process-wide: warm them so the row times exploration.
    generated()
    native_result, native_time = timed(native)
    generated_result, generated_time = timed(generated)
    return native_result, native_time, generated_result, generated_time


def table_rows():
    rows = []
    for kernel, params in WORKLOADS:
        nr, nt, gr, gt = run_pair(kernel, params)
        agree = (len(nr.paths) == len(gr.paths)
                 and nr.instructions_executed == gr.instructions_executed)
        rows.append([kernel, nr.instructions_executed,
                     "%.3fs" % nt, "%.3fs" % gt,
                     "%.2fx" % (gt / nt if nt else float("nan")),
                     "yes" if agree else "NO"])
    return rows


# -- concrete stepping guard --------------------------------------------------
#
# The exploration rows above are solver-dominated, so they understate what
# the compiled plans buy on the fetch/decode/execute core.  The guard times
# that core directly: whole concrete runs of the exerciser kernel (every
# portable operation, no solver), machine state reset from a snapshot
# between runs so the compiled side's fused decode->dispatch site cache
# stays warm — exactly the steady state a long concrete replay sees.
#
# Each round times one interpreted and one compiled sample back to back
# (alternating which goes first) and the speedup is the median of the
# rounds' ratios.  A shared host's speed drifts over seconds; a drift
# spans both halves of a round and cancels in its ratio, where timing
# all interpreted samples and then all compiled ones lets one slow
# stretch land on a single mode.

def _reset(sim, snapshot, entry):
    state = sim.state
    state.memory = dict(snapshot)
    state.pc = entry
    for regs in state.regfiles.values():
        for index in range(len(regs)):
            regs[index] = 0
    for name in state.registers:
        state.registers[name] = 0
    state.input_cursor = 0
    state.output = bytearray()
    sim.halted = False
    sim.exit_code = None
    sim.trapped = False
    sim.trap_code = None


def _concrete_sampler(compiled, reps=_CONCRETE_REPS):
    """A function timing ``reps`` exerciser runs in one simulator mode;
    also returns the warm-up's instruction count (for the sanity
    check)."""
    model, image = build_kernel("exerciser", "rv32")
    sim = Simulator(model, compiled=compiled)
    sim.state.load_image(image)
    snapshot = dict(sim.state.memory)
    entry = sim.state.pc

    def sample():
        start = time.perf_counter()
        for _ in range(reps):
            _reset(sim, snapshot, entry)
            sim.run(20000)
        return time.perf_counter() - start

    sample()    # warm: compiles the plans, fills the site cache
    assert sim.halted, "exerciser must halt"
    return sample, sim.instruction_count


def concrete_speedup():
    """(speedup, interpreted_wall, compiled_wall) on the exerciser: the
    median interpreted/compiled ratio over the interleaved rounds, and
    each mode's median sample wall time."""
    interpreted, interp_count = _concrete_sampler(compiled=False)
    compiled, compiled_count = _concrete_sampler(compiled=True)
    assert interp_count == compiled_count, "instruction counts diverged"
    ratios, interpreted_walls, compiled_walls = [], [], []
    for round_ in range(_CONCRETE_ROUNDS):
        if round_ % 2:
            compiled_wall = compiled()
            interpreted_wall = interpreted()
        else:
            interpreted_wall = interpreted()
            compiled_wall = compiled()
        ratios.append(interpreted_wall / compiled_wall)
        interpreted_walls.append(interpreted_wall)
        compiled_walls.append(compiled_wall)
    return (statistics.median(ratios), statistics.median(interpreted_walls),
            statistics.median(compiled_walls))


@benchmark("compile.concrete_speedup",
           title="compiled semantics: concrete stepping speedup",
           suite="quick", isas=("rv32",), unit="x", direction="higher",
           expect_min=GUARD_COMPILED_SPEEDUP, reps=1, warmup=0,
           workload="exerciser kernel, %d concrete runs per sample, "
                    "median ratio of %d interleaved rounds"
                    % (_CONCRETE_REPS, _CONCRETE_ROUNDS))
def _observatory_sample():
    speedup, interpreted_wall, compiled_wall = concrete_speedup()
    return Sample(speedup, wall_s=interpreted_wall + compiled_wall)


def print_report():
    print_table(
        "Table 4: hand-written rv32 engine vs ADL-generated engine",
        ["kernel", "instrs", "native", "generated", "gen slowdown",
         "results agree"],
        table_rows())
    speedup, interpreted_wall, compiled_wall = concrete_speedup()
    runs = [{"label": "exerciser concrete x%d" % _CONCRETE_REPS,
             "interpreted_s": round(interpreted_wall, 4),
             "compiled_s": round(compiled_wall, 4)}]
    sidecar = write_telemetry_sidecar(
        __file__, runs, compiled_speedup=round(speedup, 3),
        guard_required=GUARD_COMPILED_SPEEDUP)
    print("\ncompiled concrete stepping speedup (exerciser, median of %d "
          "rounds of %d runs): %.2fx (bar %.2fx)"
          % (_CONCRETE_ROUNDS, _CONCRETE_REPS, speedup,
             GUARD_COMPILED_SPEEDUP))
    print("telemetry sidecar: %s" % sidecar)


# -- pytest entry points ------------------------------------------------------

@pytest.mark.parametrize("flavor", ["native", "generated"])
def test_maze_engines(benchmark, flavor):
    model, image = build_kernel("maze", "rv32", depth=6)

    def native():
        engine = Rv32NativeEngine()
        engine.load_image(image)
        return engine.explore()

    def generated():
        engine = Engine(model, config=EngineConfig(
            collect_path_inputs=False))
        engine.load_image(image)
        return engine.explore()

    result = benchmark(native if flavor == "native" else generated)
    assert len(result.paths) == 63


def test_print_table4():
    print_report()


if __name__ == "__main__":
    print_report()
