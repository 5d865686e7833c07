"""Instruction fetch: the memory map and the per-pc site cache.

A fetch whose instruction bytes are not all mapped is an out-of-bounds
access (with ``check_oob``, the default), on every ISA — including the
two whose zero word decodes as a valid instruction.  The site cache
(pc -> decoded instruction) is reused only by a state that still reads
the instruction's image bytes unchanged, so self-modifying code and a
fork whose siblings disagree on the code bytes each decode their own
bytes.
"""

import pytest

from repro.core import Engine, EngineConfig, OOB_ACCESS
from repro.core import reporting as R
from repro.isa import assemble, build
from repro.programs.portable import PortableProgram, lower

ALL_TARGETS = ["rv32", "mips32", "armlite", "vlx", "pred32"]
UNMAPPED = 0x9000


def _jump_to(address):
    return (PortableProgram().org(0x1000).entry("start").label("start")
            .li("v0", address).jump_reg("v0"))


def _engine(target, source, **config):
    model = build(target)
    engine = Engine(model, config=EngineConfig(**config))
    engine.load_image(assemble(model, source))
    return engine


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_fetch_from_unmapped_address_is_oob(target):
    engine = _engine(target, lower(_jump_to(UNMAPPED), target))
    result = engine.explore()
    defect = result.first_defect(OOB_ACCESS)
    assert defect is not None
    assert defect.pc == UNMAPPED
    assert defect.message == \
        "instruction fetch from unmapped address %#x" % UNMAPPED
    assert result.first_defect(R.INVALID_INSTRUCTION) is None
    assert result.paths == []


def test_unchecked_fetch_reads_zeros():
    """With ``check_oob`` off the old contract holds: unmapped bytes
    read as zeros, which mips32 decodes and runs."""
    engine = _engine("mips32", lower(_jump_to(UNMAPPED), "mips32"),
                     check_oob=False, max_steps_per_path=50)
    result = engine.explore()
    assert result.first_defect(OOB_ACCESS) is None
    assert [path.status for path in result.paths] == ["depth-limit"]


def test_instruction_straddling_the_map_is_oob():
    """mips32 decodes the zero word: a 4-byte instruction whose last two
    bytes fall outside a 2-byte region is reported at the first
    unmapped byte."""
    engine = _engine("mips32", lower(_jump_to(UNMAPPED), "mips32"))
    engine.add_region(UNMAPPED, 2, name="stub")
    result = engine.explore()
    defect = result.first_defect(OOB_ACCESS)
    assert defect is not None
    assert defect.message == \
        "instruction fetch from unmapped address %#x" % (UNMAPPED + 2)


SELF_MODIFYING = """
.org 0x1000
.entry start
start:
    addi x5, x0, 0
target:
    addi x1, x0, 1          # the second pass runs the patch instead
    outb x1
    bne x5, x0, done
    addi x5, x0, 1
    lui x2, 1
    addi x2, x2, 4          # x2 = target
    lw x3, 0x100(x2)        # the patch word
    sw x3, 0(x2)
    jal x0, target
done:
    halt 0
.org 0x1104
patch:
    addi x1, x0, 2
"""


def test_self_modifying_store_forces_redecode():
    engine = _engine("rv32", SELF_MODIFYING)
    result = engine.explore()
    (path,) = result.paths
    assert path.status == "halted"
    assert path.state.output == [1, 2]


def _word(model, text):
    return bytes(assemble(model, ".org 0x1000\n" + text + "\n").data)


def test_fork_siblings_decode_their_own_code_bytes():
    engine = _engine("rv32", ".org 0x1000\n.entry start\nstart:\n"
                     "    addi x1, x0, 1\n    halt 0\n")
    model = engine.model
    state = engine.initial_state()
    assert engine._fetch(state).instruction.name == "addi"   # cached
    writer = state.fork()
    patch = _word(model, "outb x1")
    for offset, byte in enumerate(patch):
        writer.memory.write_byte(0x1000 + offset, byte)
    hits = engine.obs.metrics.counter("decode.cache_hit")
    before = hits.value
    assert engine._fetch(state).instruction.name == "addi"
    assert hits.value == before + 1                           # site hit
    assert engine._fetch(writer).instruction.name == "outb"
    assert engine._fetch(state).instruction.name == "addi"


def test_foreign_image_does_not_reuse_sites():
    """A state whose memory does not share the engine's image decodes
    its own bytes, even at a pc the engine has cached."""
    source = ".org 0x1000\n.entry start\nstart:\n    addi x1, x0, 1\n"
    engine = _engine("rv32", source + "    halt 0\n")
    other = _engine("rv32", ".org 0x1000\n.entry start\nstart:\n"
                    "    outb x1\n    halt 0\n")
    assert engine._fetch(engine.initial_state()).instruction.name == "addi"
    assert engine._fetch(other.initial_state()).instruction.name == "outb"


def test_reloading_an_image_drops_cached_sites():
    engine = _engine("rv32", ".org 0x1000\n.entry start\nstart:\n"
                     "    addi x1, x0, 1\n    halt 0\n")
    assert engine._fetch(engine.initial_state()).instruction.name == "addi"
    engine.load_image(assemble(engine.model, ".org 0x1000\n.entry start\n"
                               "start:\n    outb x1\n    halt 0\n"))
    assert engine._fetch(engine.initial_state()).instruction.name == "outb"


def test_site_hits_count_as_decode_cache_hits():
    engine = _engine("rv32", SELF_MODIFYING)
    result = engine.explore()
    counters = engine.obs.metrics.counters_snapshot()
    assert counters["decode.cache_hit"] + counters["decode.cache_miss"] \
        == result.instructions_executed
    assert counters["decode.cache_hit"] > 0
