"""The value invariant: a concrete value is an ``int``, never a
constant ``Term``.

Registers, memory bytes and output hold an ``int`` while concrete and a
non-constant term once symbolic (:mod:`repro.compile.ops`).  A constant
term written by a hook or a test is normalized on the way in, so the
engine state never holds one — checked before every instruction of the
exerciser kernel on every ISA, after a hook that writes terms, and at
the state/memory API directly.
"""

import pytest

from repro.core import Engine, EngineConfig
from repro.core.memory import MemoryMap, Region, SymMemory
from repro.core.state import SymState
from repro.isa import assemble, build
from repro.programs import build_kernel
from repro.smt import terms as T

ALL_TARGETS = ["rv32", "mips32", "armlite", "vlx", "pred32"]


def _constant_terms(state):
    """Every location of ``state`` that holds a constant term."""
    found = []

    def visit(where, value):
        if isinstance(value, T.Term) and value.is_const():
            found.append((where, value))
        elif not isinstance(value, T.Term):
            assert type(value) is int, (where, value)

    for name, registers in state.regfiles.items():
        for index, value in enumerate(registers):
            visit((name, index), value)
    for name, value in state.registers.items():
        visit(name, value)
    for page_index, page in state.memory._pages.items():
        for offset, value in page.items():
            visit(("mem", page_index, offset), value)
    for position, value in enumerate(state.output):
        visit(("out", position), value)
    return found


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_exerciser_state_never_holds_a_constant_term(target):
    model, image = build_kernel("exerciser", target)
    engine = Engine(model, config=EngineConfig(collect_coverage=True))
    engine.load_image(image)
    found = []
    engine.add_checker(
        lambda eng, state, decoded: found.extend(_constant_terms(state)))
    result = engine.explore()
    assert result.paths and result.instructions_executed > 20
    for path in result.paths:
        found.extend(_constant_terms(path.state))
    assert found == []
    symbolic = [value for path in result.paths
                for registers in path.state.regfiles.values()
                for value in registers if isinstance(value, T.Term)]
    assert symbolic, "the exerciser reads input, so some value is a term"


def test_hook_writing_terms_is_normalized():
    model = build("rv32")
    engine = Engine(model)
    engine.load_image(assemble(model, """
    .org 0x1000
    .entry start
    start:
        trap 1              # hooked away
        outb x5
        halt 0
    """))

    def hook(eng, state):
        state.write_reg("x", 5, T.bv(ord("H"), 32))
        state.memory.write(0x2000, T.bv(0x11223344, 32), 4, model.endian)
        return None

    engine.hook(0x1000, hook)
    engine.memory_map.add(Region(0x2000, 4, "buffer"))
    result = engine.explore()
    (path,) = result.paths
    assert path.state.read_reg("x", 5) == ord("H")
    assert type(path.state.read_reg("x", 5)) is int
    assert path.state.output == [ord("H")]
    assert path.state.memory.read(0x2000, 4, model.endian) == 0x11223344
    assert _constant_terms(path.state) == []


def test_state_and_memory_boundaries_normalize():
    model = build("armlite")
    memory = SymMemory(MemoryMap([Region(0, 0x100)]))
    state = SymState(model, memory)
    state.write_reg("r", 3, T.bv(7, 32))
    state.write_reg("Z", None, T.bv(1, 1))
    memory.write_byte(0x10, T.bv(0xab, 8))
    memory.write(0x20, T.bv(0xbeef, 16), 2, "little")
    assert _constant_terms(state) == []
    assert state.read_reg("r", 3) == 7
    assert memory.read(0x20, 2, "little") == 0xbeef
    # Symbolic values stay terms; a mixed word read is their concat.
    var = T.var("values_v", 8)
    memory.write_byte(0x21, var)
    assert memory.read(0x20, 2, "little") is \
        T.concat(var, T.bv(0xef, 8))
    with pytest.raises(T.WidthError):
        state.write_reg("r", 3, 1 << 32)
    with pytest.raises(T.WidthError):
        memory.write_byte(0, 0x100)
    with pytest.raises(T.WidthError):
        memory.write_byte(0, -1)
