"""Unit tests for SymState and the exploration strategies."""

import pytest

from repro.core.memory import MemoryMap, Region, SymMemory
from repro.core.state import SymState
from repro.core.strategy import (
    BfsStrategy,
    CoverageStrategy,
    DfsStrategy,
    RandomStrategy,
    make_strategy,
)
from repro.isa import build
from repro.smt import terms as T


def make_state(target="rv32"):
    model = build(target)
    memory = SymMemory(MemoryMap([Region(0, 0x10000)]))
    return SymState(model, memory)


class TestSymState:
    def test_registers_start_zero(self):
        state = make_state()
        assert state.read_reg("x", 5) == 0

    def test_zero_register(self):
        state = make_state()
        state.write_reg("x", 0, T.bv(99, 32))
        assert state.read_reg("x", 0) == 0

    def test_write_read(self):
        state = make_state()
        state.write_reg("x", 3, T.bv(7, 32))
        assert state.read_reg("x", 3) == 7

    def test_width_checked(self):
        state = make_state()
        with pytest.raises(T.WidthError):
            state.write_reg("x", 3, T.bv(7, 16))

    def test_index_bounds(self):
        state = make_state()
        with pytest.raises(IndexError):
            state.read_reg("x", 32)
        with pytest.raises(IndexError):
            state.write_reg("x", -1, T.bv(0, 32))

    def test_single_registers(self):
        state = make_state("armlite")
        state.write_reg("Z", None, T.bv(1, 1))
        assert state.read_reg("Z", None) == 1

    def test_fork_isolates_registers(self):
        state = make_state()
        state.write_reg("x", 1, T.bv(1, 32))
        child = state.fork()
        child.write_reg("x", 1, T.bv(2, 32))
        assert state.read_reg("x", 1) == 1
        assert child.parent_id == state.state_id

    def test_fork_isolates_path_condition(self):
        state = make_state()
        child = state.fork()
        child.assume(T.eq(T.var("st_v", 8), T.bv(1, 8)))
        assert len(state.path_condition) == 0
        assert len(child.path_condition) == 1

    def test_assume_drops_trivial_true(self):
        state = make_state()
        state.assume(T.TRUE)
        assert state.path_condition == []

    def test_input_naming_is_positional(self):
        state = make_state()
        first = state.input_byte()
        child = state.fork()
        second_parent = state.input_byte()
        second_child = child.input_byte()
        assert first.name == "in_0"
        # Position 1 has the same name on both paths (same stream index).
        assert second_parent.name == second_child.name == "in_1"

    def test_input_bytes_from_model(self):
        state = make_state()
        state.input_byte()
        state.input_byte()
        assert state.input_bytes_from_model({"in_0": 0x41}) == b"A\x00"


class TestStrategies:
    def _states(self, count):
        return [make_state() for _ in range(count)]

    def test_dfs_lifo(self):
        strategy = DfsStrategy()
        a, b = self._states(2)
        strategy.push(a)
        strategy.push(b)
        assert strategy.pop() is b
        assert strategy.pop() is a

    def test_bfs_fifo(self):
        strategy = BfsStrategy()
        a, b = self._states(2)
        strategy.push(a)
        strategy.push(b)
        assert strategy.pop() is a

    def test_random_seeded_deterministic(self):
        order = []
        for _ in range(2):
            strategy = RandomStrategy(seed=42)
            states = self._states(5)
            index_of = {s.state_id: i for i, s in enumerate(states)}
            for state in states:
                strategy.push(state)
            order.append([index_of[strategy.pop().state_id]
                          for _ in range(5)])
        assert order[0] == order[1]

    def test_random_pops_everything(self):
        strategy = RandomStrategy(seed=1)
        states = self._states(4)
        for state in states:
            strategy.push(state)
        popped = {strategy.pop().state_id for _ in range(4)}
        assert popped == {s.state_id for s in states}

    def test_coverage_prefers_unvisited(self):
        strategy = CoverageStrategy()
        hot, cold = self._states(2)
        hot.pc, cold.pc = 0x1000, 0x2000
        for _ in range(5):
            strategy.visit(0x1000)
        strategy.push(hot)
        strategy.push(cold)
        assert strategy.pop() is cold

    def test_coverage_fifo_tiebreak(self):
        strategy = CoverageStrategy()
        a, b = self._states(2)
        a.pc = b.pc = 0x1000
        strategy.push(a)
        strategy.push(b)
        assert strategy.pop() is a

    def test_len_and_bool(self):
        strategy = DfsStrategy()
        assert not strategy
        strategy.push(make_state())
        assert len(strategy) == 1 and strategy

    def test_make_strategy(self):
        assert isinstance(make_strategy("dfs"), DfsStrategy)
        assert isinstance(make_strategy("bfs"), BfsStrategy)
        assert isinstance(make_strategy("random", seed=3), RandomStrategy)
        assert isinstance(make_strategy("coverage"), CoverageStrategy)
        with pytest.raises(ValueError):
            make_strategy("magic")
