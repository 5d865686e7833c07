"""Seeded program lists for the end-to-end exploration benchmark.

A workload is a list of :class:`Program`.  Its *shapes* (kernel and
size parameter) are fixed, and each shape runs once on each of the five
ISAs, so every seed gives the same mix of work.  The seed picks the
content (maze solutions, tables, dispatcher magics, buffer bytes) and
the order; solver-bound's SAT instances are a fixed bank, for the
reason given at :func:`_solver_bound`.  The engine only ever sees the
assembled images.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import TRAP
from repro.programs import kernels
from repro.programs.portable import PortableProgram
from repro.programs.suite import CODE_BASE, DATA_BASE, all_cases

__all__ = ["ISAS", "Program", "WORKLOADS", "programs", "shape",
           "long_path", "long_path_sum", "checksum_value"]

ISAS = ("rv32", "mips32", "armlite", "vlx", "pred32")


class Program:
    """One benchmark program: its source, engine set-up and ground truth.

    ``defect_kind`` is reported if and only if ``expect_defect``;
    ``leaves`` (when set) is the exact number of halted paths plus
    defects.  Both are known from how the program was built, never from
    the engine under test.
    """

    __slots__ = ("id", "isa", "source", "defect_kind", "expect_defect",
                 "leaves", "check_uninit", "check_taint", "regions")

    def __init__(self, id: str, isa: str, source: PortableProgram,
                 defect_kind: str = TRAP, expect_defect: bool = True,
                 leaves: Optional[int] = None, check_uninit: bool = False,
                 check_taint: bool = False, regions: Tuple = ()):
        self.id = id
        self.isa = isa
        self.source = source
        self.defect_kind = defect_kind
        self.expect_defect = expect_defect
        self.leaves = leaves
        self.check_uninit = check_uninit
        self.check_taint = check_taint
        self.regions = regions      # (start, size, track_uninit)

    def __repr__(self):
        return "<Program %s>" % self.id


def shape(program_id: str) -> str:
    """The seed-independent part of a program id (kernel and size)."""
    return program_id.split("@")[0].split("/")[0]


def _on_every_isa(makers: List[Callable], rng: random.Random
                  ) -> List[Program]:
    """``make(rng, isa)`` for every maker and ISA, in a seeded order."""
    result = [make(rng, isa) for make in makers for isa in ISAS]
    rng.shuffle(result)
    return result


# ---------------------------------------------------------------------------
# kernels: path explosion over cheap feasibility checks
# ---------------------------------------------------------------------------

def _maze(depth):
    def make(rng, isa):
        solution = rng.getrandbits(depth)
        return Program("maze-d%d/%02x@%s" % (depth, solution, isa), isa,
                       kernels.maze(depth, solution), leaves=1 << depth)
    return make


def _diamonds(count):
    def make(rng, isa):
        return Program("diamonds-c%d@%s" % (count, isa), isa,
                       kernels.diamonds(count), leaves=1 << count)
    return make


def _dispatcher(rounds):
    def make(rng, isa):
        magic = rng.randrange(256)
        return Program("dispatcher-r%d/%02x@%s" % (rounds, magic, isa), isa,
                       kernels.dispatcher(rounds, magic))
    return make


def _bsearch(rng, isa):
    table = sorted(rng.sample(range(256), 16))
    slot = rng.randrange(16)
    return Program("bsearch/%s-%d@%s" % (bytes(table).hex(), slot, isa),
                   isa, kernels.bsearch(table, slot))


def _kernels(rng: random.Random) -> List[Program]:
    # Depth-7 mazes are the slowest programs.  Listed twice, they put p90
    # inside a group of like programs rather than on the edge between
    # two groups.  Depth 8 (0.26 s a program) left time for only four
    # traversals in a run, too few for each program's best time to come
    # from a quiet stretch of a shared host.
    return _on_every_isa([_maze(d) for d in (6, 7, 7)]
                         + [_diamonds(c) for c in (5, 6, 7)]
                         + [_dispatcher(r) for r in (2, 3)]
                         + [_bsearch], rng)


# ---------------------------------------------------------------------------
# solver-bound: a few instructions, then one hard non-linear query
# ---------------------------------------------------------------------------

def checksum_value(data: bytes, multiplier: int) -> int:
    """What :func:`repro.programs.kernels.checksum` computes over ``data``."""
    acc = 0
    for byte in data:
        acc = (acc * multiplier + byte) & 0xffff
    return acc


def _checksum(length, bank: random.Random):
    multiplier = bank.randrange(3, 256, 2)
    # The magic is the checksum of a random input, so the trap is
    # reachable by construction.
    data = bytes(bank.randrange(256) for _ in range(length))
    magic = checksum_value(data, multiplier)

    def make(rng, isa):
        return Program("checksum-l%d/m%d-%04x@%s" % (length, multiplier,
                                                     magic, isa),
                       isa, kernels.checksum(length, magic, multiplier))
    return make


def _solver_bound(rng: random.Random) -> List[Program]:
    # SAT cost depends on the instance (a coefficient of variation of
    # about 0.6 across random multipliers and magics), so 80 instances
    # drawn per seed moved instr_per_s by 10% and p90 by 23% between
    # seeds.  The instances are therefore one fixed random bank, each on
    # every ISA, and the seed sets only their order.
    bank = random.Random("solver-bound bank")
    return _on_every_isa([_checksum(n, bank) for n in (4, 5, 6, 7)] * 4,
                         rng)


# ---------------------------------------------------------------------------
# long-path: long concrete prefixes over memory, one symbolic branch
# ---------------------------------------------------------------------------

def long_path_sum(data: bytes, loops: int) -> int:
    """The 16-bit sum :func:`long_path` compares, for buffer ``data``."""
    buf = list(data)
    acc = 0
    for loop in range(loops):
        for index, byte in enumerate(buf):
            acc += byte
            buf[index] = (byte + loop) & 0xff
    return acc & 0xffff


def long_path(loops: int, data: bytes, slot: int,
              magic: int) -> PortableProgram:
    """Sum a buffer ``loops`` times, bumping each byte by the loop index.

    One input byte is stored at ``buf[slot]`` first, so the sum is
    symbolic, but every branch inside the loops compares concrete
    counters: the path stays single until the final ``sum == magic``
    test, which guards a trap.
    """
    end = DATA_BASE + len(data)
    p = PortableProgram()
    p.org(CODE_BASE)
    p.entry("start")
    p.label("start")
    p.read_input("v0")
    p.li("v1", DATA_BASE + slot)
    p.storeb("v0", "v1", 0)
    p.li("v2", 0)                        # sum
    p.li("v3", 0)                        # loop index
    p.label("outer")
    p.li("v4", loops)
    p.branch("geu", "v3", "v4", "done")
    p.li("v1", DATA_BASE)                # cursor
    p.label("inner")
    p.li("v4", end)
    p.branch("geu", "v1", "v4", "next")
    p.loadb("v0", "v1", 0)
    p.alu("add", "v2", "v2", "v0")
    p.alu("add", "v0", "v0", "v3")
    p.storeb("v0", "v1", 0)
    p.addi("v1", "v1", 1)
    p.jump("inner")
    p.label("next")
    p.addi("v3", "v3", 1)
    p.jump("outer")
    p.label("done")
    p.li("v4", 0xffff)
    p.alu("and", "v2", "v2", "v4")
    p.li("v4", magic)
    p.branch("ne", "v2", "v4", "out")
    p.trap(6)
    p.label("out")
    p.halt(0)
    p.org(DATA_BASE)
    p.label("buf")
    p.byte_data(list(data))
    return p


def _long_path(loops, length):
    def make(rng, isa):
        data = bytearray(rng.randrange(256) for _ in range(length))
        slot = rng.randrange(length)
        # The sum of the buffer with a random byte in the input slot, so
        # the trap is reachable by construction.
        magic = long_path_sum(bytes(data), loops)
        return Program("long-l%d-n%d/s%d-%04x@%s" % (loops, length, slot,
                                                    magic, isa),
                       isa, long_path(loops, bytes(data), slot, magic))
    return make


def _long_path_programs(rng: random.Random) -> List[Program]:
    return _on_every_isa([_long_path(loops, length)
                          for loops in (2, 3, 4, 5)
                          for length in (24, 32, 40, 48)], rng)


# ---------------------------------------------------------------------------
# defect-suite: the Table 2 bug-finder matrix
# ---------------------------------------------------------------------------

def _defect_suite(rng: random.Random) -> List[Program]:
    result = [Program("%s-%s@%s" % (case.name, variant, isa), isa,
                      case.build(variant), defect_kind=case.defect_kind,
                      expect_defect=variant == "bad",
                      check_uninit=case.needs_uninit_check,
                      check_taint=case.needs_taint_check,
                      regions=case.extra_regions)
              for case in all_cases() for variant in ("bad", "good")
              for isa in ISAS]
    rng.shuffle(result)
    return result


#: Workload name -> program-list builder, in run order.
WORKLOADS: Dict[str, Callable[[random.Random], List[Program]]] = {
    "kernels": _kernels,
    "solver-bound": _solver_bound,
    "long-path": _long_path_programs,
    "defect-suite": _defect_suite,
}


def programs(workload: str, seed: int) -> List[Program]:
    """The seeded program list of ``workload``."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))
