"""Tests for the concolic (generational search) driver."""

import pytest

from repro import core
from repro.core import Engine, EngineConfig
from repro.core.concolic import ConcolicExplorer
from repro.isa import assemble, build
from repro.programs import build_kernel
from repro.smt.solver import cache_answers


def concolic_for(target, source):
    model = build(target)
    image = assemble(model, source, base=0x1000)
    engine = Engine(model)
    engine.load_image(image)
    return ConcolicExplorer(engine)


class TestConcolicBasics:
    def test_straight_line_one_run(self):
        explorer = concolic_for("rv32", """
        .org 0x1000
        addi x1, x0, 1
        halt 0
        """)
        explorer.explore(seed=b"")
        assert len(explorer.runs) == 1
        assert explorer.runs[0].status == "halted"

    def test_one_branch_two_runs(self):
        explorer = concolic_for("rv32", """
        .org 0x1000
        inb x1
        beq x1, x0, a
        halt 1
        a: halt 2
        """)
        result = explorer.explore(seed=b"\x00")
        assert len(explorer.runs) == 2
        assert len(result.paths) == 2

    def test_finds_magic_bytes(self):
        explorer = concolic_for("rv32", """
        .org 0x1000
        inb x1
        addi x2, x0, 0x4b
        bne x1, x2, out
        inb x3
        addi x4, x0, 0x21
        bne x3, x4, out
        trap 5
        out: halt 0
        """)
        result = explorer.explore(seed=b"\x00\x00")
        defect = result.first_defect(core.TRAP)
        assert defect is not None
        assert defect.input_bytes.startswith(b"\x4b\x21")

    def test_duplicate_inputs_not_rerun(self):
        explorer = concolic_for("rv32", """
        .org 0x1000
        inb x1
        beq x1, x0, a
        halt 1
        a: halt 2
        """)
        explorer.explore(seed=b"\x00")
        inputs = [run.input_bytes for run in explorer.runs]
        assert len(inputs) == len(set(inputs))

    def test_max_runs_respected(self):
        model, image = build_kernel("maze", "rv32", depth=8)
        engine = Engine(model)
        engine.load_image(image)
        explorer = ConcolicExplorer(engine)
        explorer.explore(seed=bytes(8), max_runs=5)
        assert len(explorer.runs) <= 5


class TestConcolicKernels:
    @pytest.mark.parametrize("target", ["rv32", "vlx"])
    def test_password_kernel(self, target):
        model, image = build_kernel("password", target, secret=b"ok")
        engine = Engine(model)
        engine.load_image(image)
        explorer = ConcolicExplorer(engine)
        result = explorer.explore(seed=b"\x00\x00")
        defect = result.first_defect(core.TRAP)
        assert defect is not None
        assert defect.input_bytes == b"ok"

    def test_run_repr(self):
        explorer = concolic_for("rv32", ".org 0x1000\nhalt 0")
        explorer.explore()
        assert "halted" in repr(explorer.runs[0])


class TestConcolicAttribution:
    def test_forks_charged_from_the_search_result(self):
        """Attribution counts the forks the concolic result counts."""
        model, image = build_kernel("maze", "rv32", depth=4)
        engine = Engine(model, config=EngineConfig(attr=True))
        engine.load_image(image)
        result = ConcolicExplorer(engine).explore(seed=bytes(4))
        block = engine.attr.snapshot()
        assert sum(rule["forks"] for rule in block["rules"].values()) \
            == block["forks"] == result.states_forked > 0


class TestConcolicSolverCache:
    """Sibling-flip queries ride the solver query cache (and must not
    change what generational search finds)."""

    @staticmethod
    def _explore(use_cache):
        from repro.smt import Solver
        model, image = build_kernel("maze", "rv32", depth=6)
        engine = Engine(model, solver=Solver(use_query_cache=use_cache),
                        config=EngineConfig(use_solver_cache=use_cache))
        engine.load_image(image)
        explorer = ConcolicExplorer(engine)
        result = explorer.explore(seed=bytes(6), max_runs=64)
        return explorer, result, engine

    def test_cache_agnostic_search_outcome(self):
        cached, cached_result, engine = self._explore(True)
        plain, plain_result, _ = self._explore(False)
        assert len(cached.runs) == len(plain.runs)
        assert (sorted(r.status for r in cached.runs)
                == sorted(r.status for r in plain.runs))
        assert len(cached_result.paths) == len(plain_result.paths)
        assert len(cached_result.defects) == len(plain_result.defects)
        # The repeated sibling queries actually hit the cache.
        assert cache_answers(engine.solver.stats.as_dict()) > 0
        assert cached_result.solver_cache_line() is not None
