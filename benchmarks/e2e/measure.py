"""One workload of the end-to-end benchmark, measured in this process.

:func:`run_workload` is what a workload's child process runs (see
``run.py`` for the command line):

1. One cold set-up.  A set-up clears the compile cache, builds all five
   models fresh, assembles every image and constructs one Engine per
   ISA, so work moved into lazy per-model preparation still shows.
2. One untimed warm-up traversal of the program list.  Its verdicts are
   the references every later exploration of a program must repeat.
3. Closed-loop traversals of the whole list with tracing off, until
   ``seconds`` have passed (at least :data:`MIN_TRAVERSALS`).  Each
   program's time to verdict is its best over the traversals, which are
   seconds apart; the metrics are taken over these best times.  The
   other set-ups ``setup_s`` is taken from run in between (:class:`SetUps`).
4. After timing, the oracle in ``check.py`` checks every reference.

Why the best time: on a shared host the same code runs at two speeds,
about 1.5 times apart, in stretches of a few seconds that depend on the
neighbours' load, and the process's CPU time slows with its wall time.
A median over passes then follows the share of slow stretches in the
run.  A program's best over traversals spread through the run is its
time on an uncontended core, which is what the code under test sets.

With ``trace`` set, step 1 is :data:`SETUP_PASSES` traced set-ups in a
row, step 3 is untraced traversals for half of ``seconds`` and traced
ones (``layers.py``) for the other half, and the per-layer metrics are
reported instead.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import compile as compile_module
from repro.core import Engine, EngineConfig
from repro.isa import assemble, build
from repro.programs.portable import lower
from repro.programs.suite import CODE_BASE

from check import Reference, check, fingerprint, result_digest
from layers import PER_LAYER, LayerTracer
from workloads import ISAS, programs

__all__ = ["END_TO_END", "run_workload", "OUT"]

OUT = Path(__file__).resolve().parent / "out"

#: End-to-end metrics, in print order, with their units.
END_TO_END = [("setup_s", "s"), ("instr_per_s", "instr/s"),
              ("explore_p50_ms", "ms"), ("explore_p90_ms", "ms"),
              ("peak_rss_mb", "MB")]

#: ``setup_s`` is the median of this many passes ...
SETUP_PASSES = 5
#: ... of this many cold set-ups each, a pass reading its best one.
SETUP_TRIES = 3
#: Each program's best time is taken over at least this many runs.
MIN_TRAVERSALS = 3
#: ``repro explore`` with no flags.
MAX_STEPS_PER_PATH = 100000


class Workload:
    """A workload's programs, models and images, and how to explore one."""

    def __init__(self, name: str, seed: int):
        self.programs = programs(name, seed)
        self.models: Dict[str, object] = {}
        self.images: List[object] = []
        self._reported_error = False

    def set_up(self) -> Tuple[float, float]:
        """One cold set-up: ``(seconds, seconds building the models)``.

        The first set-up's models and images are the ones explored; later
        ones are timed and dropped, so they leave the explorations alone.
        """
        compile_module.clear_cache()
        start = time.perf_counter()
        models = {isa: build(isa, fresh=True) for isa in ISAS}
        built = time.perf_counter()
        images = [assemble(models[program.isa],
                           lower(program.source, program.isa),
                           base=CODE_BASE)
                  for program in self.programs]
        for isa in ISAS:
            Engine(models[isa], config=_config(None))
        end = time.perf_counter()
        if not self.models:
            self.models, self.images = models, images
        return end - start, built - start

    def explore(self, index: int):
        """Time to verdict for one program: ``(seconds, result)``, with
        ``result`` None when the exploration raised."""
        program = self.programs[index]
        start = time.perf_counter()
        try:
            engine = Engine(self.models[program.isa],
                            config=_config(program))
            engine.load_image(self.images[index])
            for region_start, size, track in program.regions:
                engine.add_region(region_start, size, name="scratch",
                                  track_uninit=track)
            result = engine.explore()
        except Exception:   # counted as failed; the loop must go on
            elapsed = time.perf_counter() - start
            if not self._reported_error:
                self._reported_error = True
                print("exploration of %s raised:" % program.id,
                      file=sys.stderr)
                traceback.print_exc()
            return elapsed, None
        return time.perf_counter() - start, result


def _config(program) -> EngineConfig:
    """The config ``repro explore`` builds with no flags, plus the
    checkers a defect-suite case needs (as ``suite.run_case`` does)."""
    return EngineConfig(
        max_steps_per_path=MAX_STEPS_PER_PATH, collect_coverage=True,
        check_uninit=program is not None and program.check_uninit,
        check_tainted_control=program is not None and program.check_taint)


class Tally:
    """Timed traversals: each program's times, and which runs went wrong."""

    def __init__(self, count: int):
        self.traversals = 0
        #: program index -> its time to verdict in each traversal
        self.times: List[List[float]] = [[] for _ in range(count)]
        #: (program index, stopped exhausted and matched its reference)
        self.runs: List[Tuple[int, bool]] = []
        #: program index -> first fingerprint seen in these traversals
        self.fingerprints: Dict[int, Tuple] = {}

    def add(self, index: int, elapsed: float, result,
            expected: Optional[Reference]) -> None:
        self.times[index].append(elapsed)
        ok = False
        if result is not None:
            found = fingerprint(result)
            self.fingerprints.setdefault(index, found)
            ok = result.stop_reason == "exhausted" and expected is not None \
                and found == expected.fingerprint
        self.runs.append((index, ok))

    def best(self) -> List[float]:
        """Each program's best time to verdict, in list order."""
        return [min(times) for times in self.times]

    def rate(self, instructions: int) -> float:
        """Symbolic instructions per second, for ``instructions`` per
        traversal executed in the sum of the programs' best times."""
        return instructions / sum(self.best())


class SetUps:
    """The cold set-ups ``setup_s`` is taken from, spread through a run.

    The first one, made on creation, builds what is explored.  The other
    ``SETUP_PASSES * SETUP_TRIES - 1`` are due at even steps of the
    measured ``seconds``.  Pass ``p`` is tries ``p``, ``p + SETUP_PASSES``
    and so on, a third of the run apart, and its time is its best try;
    ``setup_s`` is the median of the passes.  Back to back, all tries
    would land in the same stretch of a shared host, and there a 0.12 s
    set-up read anywhere from 0.12 to 0.29 s.
    """

    def __init__(self, work: Workload, seconds: float):
        self.work = work
        self.count = SETUP_PASSES * SETUP_TRIES
        self.step_s = seconds / self.count
        self.times = [work.set_up()[0]]

    def due(self, elapsed: float) -> None:
        """Make the next try if ``elapsed`` measured seconds reach it."""
        if len(self.times) < self.count \
                and elapsed >= len(self.times) * self.step_s:
            self.times.append(self.work.set_up()[0])

    def median(self) -> float:
        """Median over the passes of each pass's best try."""
        while len(self.times) < self.count:
            self.times.append(self.work.set_up()[0])
        return statistics.median(min(self.times[p::SETUP_PASSES])
                                 for p in range(SETUP_PASSES))


def run_timed(work: Workload, references, seconds: float,
              tracer: Optional[LayerTracer] = None,
              set_ups: Optional[SetUps] = None) -> Tally:
    """Closed-loop traversals of the whole list until ``seconds`` have
    passed and at least :data:`MIN_TRAVERSALS` are done, with the
    set-up tries due in between explorations."""
    tally = Tally(len(work.programs))
    start = time.perf_counter()
    while tally.traversals < MIN_TRAVERSALS \
            or time.perf_counter() - start < seconds:
        for index, program in enumerate(work.programs):
            if tracer is not None:
                tracer.begin(program.id)
            elapsed, result = work.explore(index)
            if tracer is not None:
                tracer.end()
            tally.add(index, elapsed, result, references[index])
            del result      # free the explored states before the next run
            if set_ups is not None:
                set_ups.due(time.perf_counter() - start)
        tally.traversals += 1
    return tally


def _p90(ordered: List[float]) -> float:
    if len(ordered) < 2:
        return ordered[0]
    return statistics.quantiles(ordered, n=10)[8]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload, print its results; 0 when every check passed."""
    work = Workload(name, seed)

    build_s, compiled_for_s = [], []
    if trace:
        for _ in range(SETUP_PASSES):
            with LayerTracer() as tracer:
                build_s.append(work.set_up()[1])
            compiled_for_s.append(tracer.stats["compile.compiled_for"][1])
    else:
        set_ups = SetUps(work, seconds)

    references: List[Optional[Reference]] = []
    for index, program in enumerate(work.programs):
        _elapsed, result = work.explore(index)
        references.append(None if result is None
                          else Reference(result, seed, program.id))
        del result
    instructions = sum(reference.fingerprint[0] for reference in references
                       if reference is not None)

    if trace:
        untraced = run_timed(work, references, seconds / 2)
        tracer = LayerTracer()
        with tracer:
            traced = run_timed(work, references, seconds / 2, tracer)
        tallies = [untraced, traced]
        # Digest what ran under the wrappers, to compare with an
        # untraced run's digest.
        fingerprints = [traced.fingerprints.get(index)
                        for index in range(len(work.programs))]
    else:
        tallies = [run_timed(work, references, seconds, set_ups=set_ups)]
        fingerprints = [None if reference is None else reference.fingerprint
                        for reference in references]

    problems = set()
    for index, (program, reference) in enumerate(zip(work.programs,
                                                     references)):
        found = ["exploration raised"] if reference is None else check(
            program, reference, work.models[program.isa],
            work.images[index])
        if found:
            problems.add(index)
            print("%s  check failed: %s: %s"
                  % (name, program.id, "; ".join(found)))
    runs = [run for tally in tallies for run in tally.runs]
    failed = sum(1 for index, ok in runs if not ok or index in problems)
    digest = result_digest(
        (program, found if found is not None else (0, (), ()))
        for program, found in zip(work.programs, fingerprints))

    print("%s  seed=%d programs=%d traversals=%s explorations=%d%s"
          % (name, seed, len(work.programs),
             "+".join(str(tally.traversals) for tally in tallies),
             len(runs), " (untraced+traced)" if trace else ""))
    if trace:
        values = tracer.metrics(
            statistics.median(build_s), statistics.median(compiled_for_s),
            untraced.rate(instructions) / traced.rate(instructions),
            traced.traversals)
        metrics = {metric: (values[metric], unit, "")
                   for metric, unit in PER_LAYER}
        _write_trace(name, seed, digest, tracer, values)
    else:
        tally = tallies[0]
        best = sorted(tally.best())
        p90 = _p90(best)
        metrics = {
            "setup_s": (set_ups.median(), "s",
                        "median of %d passes, each the best of %d cold "
                        "set-ups spread through the run"
                        % (SETUP_PASSES, SETUP_TRIES)),
            "instr_per_s": (tally.rate(instructions), "instr/s",
                            "%d instructions per traversal / summed best "
                            "times" % instructions),
            "explore_p50_ms": (statistics.median(best) * 1e3, "ms",
                               "n=%d programs, best of %d runs each"
                               % (len(best), tally.traversals)),
            "explore_p90_ms": (p90 * 1e3, "ms", "n=%d, %d beyond" % (
                len(best), sum(1 for x in best if x > p90))),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB", "ru_maxrss"),
        }
    for metric, (value, unit, note) in metrics.items():
        print("%s  %-36s %14.6g %-8s %s" % (name, metric, value, unit, note))
    print("%s  %-36s %14.6g %-8s (%d/%d)"
          % (name, "failed_ratio", failed / len(runs), "ratio", failed,
             len(runs)))
    print("%s  result_digest %s" % (name, digest))
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit, _note) in metrics.items()},
    }))
    return 0 if correct else 1


def _write_trace(name: str, seed: int, digest: str, tracer: LayerTracer,
                 values: Dict[str, float]) -> None:
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = tracer.payload()
    payload.update(workload=name, seed=seed, result_digest=digest,
                   metrics=values)
    with open(out_dir / "trace.json", "w") as handle:
        json.dump(payload, handle)
    print("%s  trace -> %s" % (name, out_dir / "trace.json"))
