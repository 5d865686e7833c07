"""Tests for opportunistic state merging."""

import pytest

from repro import core
from repro.core import Engine, EngineConfig
from repro.core.memory import MemoryMap, Region, SymMemory
from repro.core.merge import MergingFrontier, try_merge
from repro.core.state import SymState
from repro.core.strategy import BfsStrategy
from repro.isa import assemble, build, run_image
from repro.programs import build_kernel
from repro.smt import terms as T


def make_state(pc=0x1000):
    model = build("rv32")
    memory = SymMemory(MemoryMap([Region(0, 0x10000)]))
    state = SymState(model, memory)
    state.pc = pc
    return state


def sibling_pair():
    """A forked pair that took complementary branches and re-joined."""
    parent = make_state()
    cond = T.eq(T.var("mg_in", 8), T.bv(0, 8))
    left = parent.fork()
    left.assume(cond)
    left.write_reg("x", 5, T.bv(1, 32))
    right = parent.fork()
    right.assume(T.not_(cond))
    right.write_reg("x", 5, T.bv(2, 32))
    return left, right, cond


class TestTryMerge:
    def test_merges_register_difference_into_ite(self):
        left, right, cond = sibling_pair()
        merged = try_merge(left, right)
        assert merged is not None
        reg = merged.read_reg("x", 5)
        assert T.evaluate(reg, {"mg_in": 0}) == 1
        assert T.evaluate(reg, {"mg_in": 7}) == 2

    def test_equal_ints_merge_by_value(self):
        """Registers that agree keep their int, even when the two ints
        are distinct objects and the pool does not hash-cons (where an
        ``ite`` over two equal constants would not fold)."""
        previous = T.set_pool(T.TermPool(hash_consing=False))
        try:
            left, right, _ = sibling_pair()
            left.write_reg("x", 6, int("123456789"))
            right.write_reg("x", 6, int("123456789"))
            assert left.read_reg("x", 6) is not right.read_reg("x", 6)
            merged = try_merge(left, right)
            assert merged.read_reg("x", 6) == 123456789
            assert type(merged.read_reg("x", 6)) is int
            assert isinstance(merged.read_reg("x", 5), T.Term)
        finally:
            T.set_pool(previous)

    def test_merged_path_condition_is_disjunction(self):
        left, right, _ = sibling_pair()
        merged = try_merge(left, right)
        assert len(merged.path_condition) == 1
        cond = merged.path_condition[0]
        # Both arms satisfy the merged condition.
        assert T.evaluate(cond, {"mg_in": 0}) == 1
        assert T.evaluate(cond, {"mg_in": 1}) == 1

    def test_different_pc_not_merged(self):
        left, right, _ = sibling_pair()
        right.pc = 0x2000
        assert try_merge(left, right) is None

    def test_different_input_count_not_merged(self):
        left, right, _ = sibling_pair()
        left.input_byte()
        assert try_merge(left, right) is None

    def test_different_memory_not_merged(self):
        left, right, _ = sibling_pair()
        left.memory.write_byte(0x80, T.bv(1, 8))
        assert try_merge(left, right) is None

    def test_same_memory_writes_merged(self):
        left, right, _ = sibling_pair()
        left.memory.write_byte(0x80, T.bv(9, 8))
        right.memory.write_byte(0x80, T.bv(9, 8))
        assert try_merge(left, right) is not None

    def test_different_output_not_merged(self):
        left, right, _ = sibling_pair()
        left.output.append(T.bv(1, 8))
        assert try_merge(left, right) is None

    def test_duplicate_states_collapse(self):
        state = make_state()
        state.assume(T.eq(T.var("mg_d", 8), T.bv(1, 8)))
        twin = state.fork()
        assert try_merge(state, twin) is state


class TestMergingFrontier:
    def test_counts_merges(self):
        frontier = MergingFrontier(BfsStrategy())
        left, right, _ = sibling_pair()
        frontier.push(left)
        frontier.push(right)
        assert frontier.merges == 1
        assert len(frontier) == 1
        merged = frontier.pop()
        assert merged.read_reg("x", 5).op == "ite"

    def test_unmergeable_states_coexist(self):
        frontier = MergingFrontier(BfsStrategy())
        a = make_state(0x1000)
        b = make_state(0x2000)
        frontier.push(a)
        frontier.push(b)
        assert len(frontier) == 2
        assert frontier.merges == 0

    def test_dead_states_skipped_on_pop(self):
        frontier = MergingFrontier(BfsStrategy())
        left, right, _ = sibling_pair()
        frontier.push(left)
        frontier.push(right)
        popped = frontier.pop()
        assert popped.state_id not in (left.state_id, right.state_id)
        assert len(frontier) == 0


class TestEngineWithMerging:
    @pytest.mark.parametrize("target", ["rv32", "vlx"])
    def test_diamonds_collapse(self, target):
        model, image = build_kernel("diamonds", target, count=6)
        plain = Engine(model, strategy="bfs")
        plain.load_image(image)
        plain_result = plain.explore()
        merging = Engine(model, strategy="bfs",
                         config=EngineConfig(merge_states=True))
        merging.load_image(image)
        merged_result = merging.explore()
        assert len(plain_result.paths) == 63
        assert len(merged_result.paths) < 16
        assert merging.strategy.merges > 0
        # Findings agree, and the merged trap input replays.
        defect = merged_result.first_defect(core.TRAP)
        assert defect is not None
        sim = run_image(model, image, input_bytes=defect.input_bytes)
        assert sim.trapped

    def test_merged_exploration_preserves_exit_codes(self):
        model = build("rv32")
        image = assemble(model, """
        .org 0x1000
        start:
            inb x1
            andi x1, x1, 1
            beq x1, x0, a
            addi x2, x0, 5
            jal x0, join
        a:  addi x2, x0, 5
        join:
            outb x2
            halt 0
        .entry start
        """, base=0x1000)
        engine = Engine(model, strategy="bfs",
                        config=EngineConfig(merge_states=True))
        engine.load_image(image)
        result = engine.explore()
        assert all(p.exit_code == 0 for p in result.paths)

    def test_dfs_merging_is_safe_noop(self):
        # Under DFS arms rarely coexist; merging must not break anything.
        model, image = build_kernel("diamonds", "rv32", count=5)
        engine = Engine(model, strategy="dfs",
                        config=EngineConfig(merge_states=True))
        engine.load_image(image)
        result = engine.explore()
        assert result.first_defect(core.TRAP) is not None
