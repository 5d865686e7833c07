"""Tests for engine extensibility: hooks, custom checkers, loop bounds."""

import pytest

from repro import core
from repro.core import Engine, EngineConfig
from repro.isa import assemble, build
from repro.smt import terms as T


def engine_for(source, config=None, strategy="dfs"):
    model = build("rv32")
    image = assemble(model, source, base=0x1000)
    engine = Engine(model, config=config, strategy=strategy)
    engine.load_image(image)
    return engine, model


class TestHooks:
    def test_hook_replaces_instruction(self):
        # Hook the trap: set a register instead of trapping.
        engine, _ = engine_for("""
        .org 0x1000
        start:
            trap 1              # hooked away
            outb x5
            halt 0
        .entry start
        """)

        def model_trap(eng, state):
            state.write_reg("x", 5, T.bv(ord("H"), 32))
            return None         # advance past the hooked instruction

        engine.hook(0x1000, model_trap)
        result = engine.explore()
        assert not result.defects
        assert result.paths[0].status == "halted"

    def test_hook_controls_successors(self):
        # Hook redirects control entirely.
        engine, _ = engine_for("""
        .org 0x1000
        start:
            addi x1, x0, 1      # hooked: jump straight to finish
            trap 9              # must never run
        finish:
            halt 4
        .org 0x1100
        .entry start
        """)

        def redirect(eng, state):
            state.pc = 0x1008    # 'finish'
            return [state]

        engine.hook(0x1000, redirect)
        result = engine.explore()
        assert not result.defects
        assert result.paths[0].exit_code == 4

    def test_hook_can_kill_path(self):
        engine, _ = engine_for(".org 0x1000\nstart: halt 0\n.entry start")
        engine.hook(0x1000, lambda eng, state: [])
        result = engine.explore()
        assert not result.paths

    def test_hook_can_fork(self):
        engine, _ = engine_for("""
        .org 0x1000
        start:
            addi x1, x0, 0      # hooked: fork into two continuations
            halt 1
            halt 2
        .entry start
        """)

        def forker(eng, state):
            sibling = state.fork()
            state.pc = 0x1004
            sibling.pc = 0x1008
            return [state, sibling]

        engine.hook(0x1000, forker)
        result = engine.explore()
        assert {p.exit_code for p in result.paths} == {1, 2}

    def test_hook_can_report_defect(self):
        engine, _ = engine_for(".org 0x1000\nstart: halt 0\n.entry start")

        def reporter(eng, state):
            eng.report(state, core.TRAP, "synthetic finding")
            return None

        engine.hook(0x1000, reporter)
        result = engine.explore()
        assert result.first_defect(core.TRAP) is not None

    def test_unhook(self):
        engine, _ = engine_for(".org 0x1000\nstart: trap 3\n.entry start")
        engine.hook(0x1000, lambda eng, state: [])
        engine.unhook(0x1000)
        result = engine.explore()
        assert result.first_defect(core.TRAP) is not None

    def test_hook_counts_as_instruction(self):
        engine, _ = engine_for("""
        .org 0x1000
        start:
            addi x1, x0, 1      # hooked and skipped
            halt 0
        .entry start
        """)
        engine.hook(0x1000, lambda eng, state: None)
        result = engine.explore()
        # hook at 0x1000 (counted) + the halt after it.
        assert result.instructions_executed == 2
        assert result.paths[0].status == "halted"


class TestCustomCheckers:
    def test_checker_sees_every_instruction(self):
        engine, _ = engine_for("""
        .org 0x1000
        addi x1, x0, 1
        addi x2, x0, 2
        halt 0
        """)
        seen = []
        engine.add_checker(
            lambda eng, state, decoded: seen.append(decoded.instruction.name))
        engine.explore()
        assert seen == ["addi", "addi", "halt"]

    def test_checker_reports_custom_defect(self):
        engine, _ = engine_for("""
        .org 0x1000
        addi x2, x0, 1
        slli x2, x2, 13         # x2 = 0x2000: "forbidden value"
        halt 0
        """)

        def forbid_0x2000(eng, state, decoded):
            value = state.read_reg("x", 2)
            if value == 0x2000:
                eng.report(state, "forbidden-value",
                           "x2 hit the forbidden constant", decoded)

        engine.add_checker(forbid_0x2000)
        result = engine.explore()
        assert result.first_defect("forbidden-value") is not None


class TestLoopBound:
    LOOP = """
    .org 0x1000
    start:
        inb x1
    loop:
        addi x2, x2, 1
        bne x2, x1, loop       # runs input-many times
        halt 0
    .entry start
    """

    def test_unbounded_runs_to_depth_limit(self):
        config = EngineConfig(max_steps_per_path=64)
        engine, _ = engine_for(self.LOOP, config=config)
        result = engine.explore()
        assert any(p.status == "depth-limit" for p in result.paths)

    def test_loop_bound_prunes(self):
        config = EngineConfig(max_visits_per_pc=5, max_paths=50)
        engine, _ = engine_for(self.LOOP, config=config)
        result = engine.explore()
        assert any(p.status == "loop-limit" for p in result.paths)
        # Short-loop paths still halt normally.
        assert any(p.status == "halted" for p in result.paths)

    def test_bound_is_per_path_not_global(self):
        # Two sibling paths may each visit the same pc up to the bound.
        config = EngineConfig(max_visits_per_pc=3)
        engine, _ = engine_for("""
        .org 0x1000
        start:
            inb x1
            beq x1, x0, a
            addi x2, x0, 1
            halt 1
        a:  addi x2, x0, 2
            halt 2
        .entry start
        """, config=config)
        result = engine.explore()
        assert {p.exit_code for p in result.paths} == {1, 2}
