"""Unit tests for symbolic memory (COW, endianness, regions)."""

import pytest

from repro.core.memory import PAGE_SIZE, MemoryMap, Region, SymMemory
from repro.smt import terms as T


def make_memory(cow=True):
    memory_map = MemoryMap([Region(0, 0x10000, "all")])
    return SymMemory(memory_map, cow=cow)


class TestRegions:
    def test_contains(self):
        region = Region(0x1000, 0x100, "r")
        assert region.contains(0x1000)
        assert region.contains(0x10ff)
        assert not region.contains(0x1100)
        assert not region.contains(0xfff)

    def test_region_for(self):
        mapping = MemoryMap([Region(0x1000, 0x100, "a"),
                             Region(0x2000, 0x100, "b")])
        assert mapping.region_for(0x2050).name == "b"
        assert mapping.region_for(0x3000) is None

    def test_membership_term(self):
        mapping = MemoryMap([Region(0x10, 0x10, "a")])
        addr = T.var("mm_addr", 16)
        inside = mapping.membership_term(addr)
        assert T.evaluate(inside, {"mm_addr": 0x15}) == 1
        assert T.evaluate(inside, {"mm_addr": 0x20}) == 0
        assert T.evaluate(inside, {"mm_addr": 0x0f}) == 0

    def test_empty_map_membership_is_false(self):
        mapping = MemoryMap()
        assert T.is_false(mapping.membership_term(T.var("mm_e", 16)))


class TestByteAccess:
    def test_unwritten_reads_zero(self):
        memory = make_memory()
        assert memory.read_byte(0x42) == 0

    def test_image_backing(self):
        memory = make_memory()
        memory.load_image(0x100, b"\xaa\xbb")
        assert memory.read_byte(0x100) == 0xaa
        assert memory.read_byte(0x101) == 0xbb

    def test_write_overrides_image(self):
        memory = make_memory()
        memory.load_image(0x100, b"\xaa")
        memory.write_byte(0x100, T.bv(0x55, 8))
        assert memory.read_byte(0x100) == 0x55

    def test_write_width_checked(self):
        memory = make_memory()
        with pytest.raises(T.WidthError):
            memory.write_byte(0, T.bv(0, 16))

    def test_symbolic_contents(self):
        memory = make_memory()
        value = T.var("mem_v", 8)
        memory.write_byte(0x10, value)
        assert memory.read_byte(0x10) is value


class TestWordAccess:
    def test_little_endian_roundtrip(self):
        memory = make_memory()
        memory.write(0x100, T.bv(0x11223344, 32), 4, "little")
        assert memory.read(0x100, 4, "little") == 0x11223344
        assert memory.read_byte(0x100) == 0x44

    def test_big_endian_roundtrip(self):
        memory = make_memory()
        memory.write(0x100, T.bv(0x11223344, 32), 4, "big")
        assert memory.read(0x100, 4, "big") == 0x11223344
        assert memory.read_byte(0x100) == 0x11

    def test_cross_endian_mismatch(self):
        memory = make_memory()
        memory.write(0x100, T.bv(0x1122, 16), 2, "little")
        assert memory.read(0x100, 2, "big") == 0x2211

    def test_write_width_must_match_size(self):
        memory = make_memory()
        with pytest.raises(T.WidthError):
            memory.write(0, T.bv(0, 16), 4, "little")

    def test_concrete_window(self):
        memory = make_memory()
        memory.load_image(0x100, b"\x01\x02\x03")
        assert memory.concrete_window(0x100, 3) == b"\x01\x02\x03"

    def test_concrete_window_none_when_symbolic(self):
        memory = make_memory()
        memory.write_byte(0x101, T.var("cw_v", 8))
        assert memory.concrete_window(0x100, 3) is None


class TestCopyOnWrite:
    def test_fork_sees_parent_writes(self):
        memory = make_memory()
        memory.write_byte(0x10, T.bv(1, 8))
        child = memory.fork()
        assert child.read_byte(0x10) == 1

    def test_child_write_invisible_to_parent(self):
        memory = make_memory()
        memory.write_byte(0x10, T.bv(1, 8))
        child = memory.fork()
        child.write_byte(0x10, T.bv(2, 8))
        assert memory.read_byte(0x10) == 1
        assert child.read_byte(0x10) == 2

    def test_parent_write_after_fork_invisible_to_child(self):
        memory = make_memory()
        memory.write_byte(0x10, T.bv(1, 8))
        child = memory.fork()
        memory.write_byte(0x10, T.bv(3, 8))
        assert child.read_byte(0x10) == 1

    def test_sibling_isolation(self):
        memory = make_memory()
        first = memory.fork()
        second = memory.fork()
        first.write_byte(0, T.bv(1, 8))
        second.write_byte(0, T.bv(2, 8))
        assert first.read_byte(0) == 1
        assert second.read_byte(0) == 2

    def test_same_page_different_offsets_after_fork(self):
        memory = make_memory()
        memory.write_byte(0, T.bv(1, 8))
        child = memory.fork()
        child.write_byte(1, T.bv(2, 8))       # same page as offset 0
        assert memory.read_byte(1) == 0
        assert child.read_byte(0) == 1

    def test_flat_mode_fork_is_deep_copy(self):
        memory = make_memory(cow=False)
        memory.write_byte(0x10, T.bv(1, 8))
        child = memory.fork()
        child.write_byte(0x10, T.bv(2, 8))
        assert memory.read_byte(0x10) == 1

    def test_written_and_initialized(self):
        memory = make_memory()
        memory.load_image(0x100, b"\x01")
        assert memory.is_initialized(0x100)
        assert not memory.is_initialized(0x200)
        memory.write_byte(0x200, T.bv(1, 8))
        assert memory.is_written(0x200)
        assert memory.is_initialized(0x200)

    def test_pages_touched(self):
        memory = make_memory()
        memory.write_byte(0, T.bv(1, 8))
        memory.write_byte(PAGE_SIZE, T.bv(1, 8))
        assert memory.pages_touched == 2
