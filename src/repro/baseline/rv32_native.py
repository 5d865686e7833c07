"""Hand-written RV32 symbolic executor — the Table 4 baseline.

This is what the paper's approach replaces: a symbolic execution engine
written *directly against one ISA*, with a hand-coded decoder and a
hand-coded symbolic transfer function per instruction.  It shares only the
solver substrate and the paged memory with the generated engine, so the
Table 4 comparison isolates the cost of generality (ADL -> IR -> compiled
plans) against native dispatch.  Unlike the generated engine it keeps
every value a ``Term``: memory's concrete int bytes are lifted on load.

Feature-wise it is deliberately the same shape as the generated engine on
rv32 workloads: concrete pc, fork-on-branch, trap/halt handling, the
div-zero and out-of-bounds checkers, DFS exploration.  It does not support
any other ISA — which is precisely the point.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..compile.ops import lift
from ..core.memory import MemoryMap, Region, SymMemory
from ..core.reporting import (
    DIV_BY_ZERO,
    INVALID_INSTRUCTION,
    OOB_ACCESS,
    TRAP,
    Defect,
    ExplorationResult,
    PathResult,
)
from ..smt import SAT, Solver
from ..smt import terms as T

__all__ = ["Rv32NativeEngine", "NativeState"]

_WORD = 32
_MASK32 = 0xffffffff


class NativeState:
    """Path state: 32 registers, memory, path condition, concrete pc."""

    def __init__(self, memory: SymMemory):
        self.regs: List[T.Term] = [T.bv(0, _WORD)] * 32
        self.memory = memory
        self.pc = 0
        self.path: List[T.Term] = []
        self.inputs: List[T.Term] = []
        self.steps = 0

    def fork(self) -> "NativeState":
        child = NativeState.__new__(NativeState)
        child.regs = list(self.regs)
        child.memory = self.memory.fork()
        child.pc = self.pc
        child.path = list(self.path)
        child.inputs = list(self.inputs)
        child.steps = self.steps
        return child

    def get(self, index: int) -> T.Term:
        return T.bv(0, _WORD) if index == 0 else self.regs[index]

    def put(self, index: int, value: T.Term) -> None:
        if index:
            self.regs[index] = value

    def next_input(self) -> T.Term:
        var = T.var("in_%d" % len(self.inputs), 8)
        self.inputs.append(var)
        return var

    def input_from_model(self, model: Dict[str, int]) -> bytes:
        return bytes(model.get("in_%d" % i, 0) & 0xff
                     for i in range(len(self.inputs)))


def _sx(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & ((1 << bits) - 1)) - ((value & sign) << 1)


class Rv32NativeEngine:
    """DFS symbolic executor hard-wired to the rv32 instruction set."""

    def __init__(self, solver: Optional[Solver] = None,
                 max_steps_per_path: int = 4096,
                 max_fork_targets: int = 4):
        self.solver = solver if solver is not None else Solver()
        self.max_steps_per_path = max_steps_per_path
        self.max_fork_targets = max_fork_targets
        self.memory_map = MemoryMap()
        self._memory = SymMemory(self.memory_map)
        self._entry = 0
        self._defect_sites: set = set()

    def load_image(self, image) -> None:
        self._memory.load_image(image.base, bytes(image.data), name="image")
        self._entry = image.entry

    def add_region(self, start: int, size: int, name: str = "region") -> None:
        self.memory_map.add(Region(start, size, name))

    # -- exploration --------------------------------------------------------------

    def explore(self) -> ExplorationResult:
        result = ExplorationResult()
        self._defect_sites = set()
        solver_before = self.solver.stats.as_dict()
        started = time.perf_counter()
        root = NativeState(self._memory.fork())
        root.pc = self._entry
        stack = [root]
        while stack:
            state = stack.pop()
            stack.extend(self._step(state, result))
        result.wall_time = time.perf_counter() - started
        # Per-exploration delta, matching the generated engine.
        result.solver_stats = self.solver.stats.delta_since(solver_before)
        return result

    # -- fetch/decode/execute ------------------------------------------------------

    def _step(self, state: NativeState,
              result: ExplorationResult) -> List[NativeState]:
        window = state.memory.concrete_window(state.pc, 4)
        if window is None or len(window) < 4:
            self._defect(result, state, INVALID_INSTRUCTION, "bad fetch")
            return []
        word = int.from_bytes(window, "little")
        result.instructions_executed += 1
        state.steps += 1
        if state.steps > self.max_steps_per_path:
            result.paths.append(PathResult("depth-limit", state, b""))
            return []
        try:
            return self._execute(state, word, result)
        except _Stop:
            return []

    # Field helpers (hand-written decode).

    @staticmethod
    def _fields(word: int) -> Tuple[int, int, int, int, int, int]:
        opcode = word & 0x7f
        rd = (word >> 7) & 0x1f
        funct3 = (word >> 12) & 0x7
        rs1 = (word >> 15) & 0x1f
        rs2 = (word >> 20) & 0x1f
        funct7 = (word >> 25) & 0x7f
        return opcode, rd, funct3, rs1, rs2, funct7

    def _execute(self, state: NativeState, word: int,
                 result: ExplorationResult) -> List[NativeState]:
        opcode, rd, funct3, rs1, rs2, funct7 = self._fields(word)
        imm_i = _sx(word >> 20, 12)
        pc = state.pc
        nxt = (pc + 4) & _MASK32

        if opcode == 0x33 and funct7 != 1:      # ALU register
            state.put(rd, self._alu_reg(state, funct3, funct7, rs1, rs2))
            state.pc = nxt
            return [state]
        if opcode == 0x33 and funct7 == 1:      # M extension
            state.put(rd, self._alu_mul(state, funct3, rs1, rs2, result,
                                        pc))
            state.pc = nxt
            return [state]
        if opcode == 0x13:                       # ALU immediate
            state.put(rd, self._alu_imm(state, funct3, funct7, rs1, rs2,
                                        imm_i))
            state.pc = nxt
            return [state]
        if opcode == 0x03:                       # loads
            addr = T.add(state.get(rs1), T.bv(imm_i, _WORD))
            value = self._load(state, addr, funct3, result, pc)
            state.put(rd, value)
            state.pc = nxt
            return [state]
        if opcode == 0x23:                       # stores
            imm_s = _sx(((word >> 25) << 5) | ((word >> 7) & 0x1f), 12)
            addr = T.add(state.get(rs1), T.bv(imm_s, _WORD))
            self._store(state, addr, funct3, rs2, result, pc)
            state.pc = nxt
            return [state]
        if opcode == 0x63:                       # branches
            imm_b = _sx((((word >> 25) << 5) | ((word >> 7) & 0x1f)) << 1,
                        13)
            return self._branch(state, funct3, rs1, rs2, imm_b, result)
        if opcode == 0x37:                       # lui
            state.put(rd, T.bv((word >> 12) << 12, _WORD))
            state.pc = nxt
            return [state]
        if opcode == 0x17:                       # auipc
            state.put(rd, T.bv((pc + ((word >> 12) << 12)) & _MASK32, _WORD))
            state.pc = nxt
            return [state]
        if opcode == 0x6f:                       # jal
            off = _sx((word >> 12) << 1, 21)
            state.put(rd, T.bv(nxt, _WORD))
            state.pc = (pc + off) & _MASK32
            return [state]
        if opcode == 0x67 and funct3 == 0:       # jalr
            target = T.and_(T.add(state.get(rs1), T.bv(imm_i, _WORD)),
                            T.bv(0xfffffffe, _WORD))
            state.put(rd, T.bv(nxt, _WORD))
            return self._indirect(state, target, result)
        if opcode == 0x0b:                       # environment
            return self._env(state, funct3, rd, rs1, imm_i, nxt, result)
        self._defect(result, state, INVALID_INSTRUCTION,
                     "undecodable word %#x" % word)
        return []

    # -- instruction groups ---------------------------------------------------------

    def _alu_reg(self, state, funct3, funct7, rs1, rs2) -> T.Term:
        a, b = state.get(rs1), state.get(rs2)
        amount = T.and_(b, T.bv(31, _WORD))
        if funct3 == 0:
            return T.sub(a, b) if funct7 == 0x20 else T.add(a, b)
        if funct3 == 1:
            return T.shl(a, amount)
        if funct3 == 2:
            return T.zext(T.slt(a, b), 31)
        if funct3 == 3:
            return T.zext(T.ult(a, b), 31)
        if funct3 == 4:
            return T.xor(a, b)
        if funct3 == 5:
            return T.ashr(a, amount) if funct7 == 0x20 else T.lshr(a, amount)
        if funct3 == 6:
            return T.or_(a, b)
        return T.and_(a, b)

    def _alu_mul(self, state, funct3, rs1, rs2, result, pc) -> T.Term:
        a, b = state.get(rs1), state.get(rs2)
        if funct3 == 0:
            return T.mul(a, b)
        if funct3 == 1:
            return T.extract(T.mul(T.sext(a, 32), T.sext(b, 32)), 63, 32)
        if funct3 == 3:
            return T.extract(T.mul(T.zext(a, 32), T.zext(b, 32)), 63, 32)
        self._check_div(state, b, result, pc)
        zero, ones = T.bv(0, _WORD), T.bv(_MASK32, _WORD)
        most_neg = T.bv(0x80000000, _WORD)
        if funct3 == 4:      # div
            overflow = T.and_(T.eq(a, most_neg), T.eq(b, ones))
            return T.ite(T.eq(b, zero), ones,
                         T.ite(overflow, most_neg, T.sdiv(a, b)))
        if funct3 == 5:      # divu
            return T.ite(T.eq(b, zero), ones, T.udiv(a, b))
        if funct3 == 6:      # rem
            overflow = T.and_(T.eq(a, most_neg), T.eq(b, ones))
            return T.ite(T.eq(b, zero), a,
                         T.ite(overflow, zero, T.srem(a, b)))
        return T.ite(T.eq(b, zero), a, T.urem(a, b))    # remu

    def _alu_imm(self, state, funct3, funct7, rs1, rs2, imm) -> T.Term:
        a = state.get(rs1)
        imm_term = T.bv(imm, _WORD)
        if funct3 == 0:
            return T.add(a, imm_term)
        if funct3 == 1:
            return T.shl(a, T.bv(rs2, _WORD))
        if funct3 == 2:
            return T.zext(T.slt(a, imm_term), 31)
        if funct3 == 3:
            return T.zext(T.ult(a, imm_term), 31)
        if funct3 == 4:
            return T.xor(a, imm_term)
        if funct3 == 5:
            shift = T.bv(rs2, _WORD)
            return T.ashr(a, shift) if funct7 == 0x20 else T.lshr(a, shift)
        if funct3 == 6:
            return T.or_(a, imm_term)
        return T.and_(a, imm_term)

    def _branch(self, state, funct3, rs1, rs2, offset, result):
        a, b = state.get(rs1), state.get(rs2)
        conditions = {0: T.eq, 1: T.ne, 4: T.slt, 5: T.sge, 6: T.ult,
                      7: T.uge}
        cond = conditions[funct3](a, b)
        taken_pc = (state.pc + offset) & _MASK32
        fall_pc = (state.pc + 4) & _MASK32
        if cond.is_const():
            state.pc = taken_pc if cond.value else fall_pc
            return [state]
        out = []
        for branch_cond, target in ((cond, taken_pc), (T.not_(cond),
                                                       fall_pc)):
            if self.solver.check(extra=state.path + [branch_cond]) == SAT:
                out.append((branch_cond, target))
        states = []
        for index, (branch_cond, target) in enumerate(out):
            branch = state if index == len(out) - 1 else state.fork()
            branch.path.append(branch_cond)
            branch.pc = target
            states.append(branch)
        if len(states) > 1:
            result.states_forked += 1
        return states

    def _indirect(self, state, target, result):
        if target.is_const():
            state.pc = target.value
            return [state]
        states = []
        exclusions: List[T.Term] = []
        while len(states) < self.max_fork_targets:
            if self.solver.check(extra=state.path + exclusions) != SAT:
                break
            value = T.evaluate(target, self.solver.model())
            branch = state.fork()
            branch.path.append(T.eq(target, T.bv(value, _WORD)))
            branch.pc = value
            states.append(branch)
            exclusions.append(T.ne(target, T.bv(value, _WORD)))
        result.states_forked += max(0, len(states) - 1)
        return states

    def _load(self, state, addr, funct3, result, pc) -> T.Term:
        concrete = self._concretize_addr(state, addr, result, pc)
        size = {0: 1, 1: 2, 2: 4, 4: 1, 5: 2}[funct3]
        # The shared SymMemory keeps concrete bytes as ints; this engine
        # stays all-Term, so it lifts them at its own boundary.
        raw = lift(state.memory.read(concrete, size, "little"), 8 * size)
        if funct3 in (0, 1):
            return T.sext(raw, _WORD - raw.width)
        if funct3 in (4, 5):
            return T.zext(raw, _WORD - raw.width)
        return raw

    def _store(self, state, addr, funct3, rs2, result, pc) -> None:
        concrete = self._concretize_addr(state, addr, result, pc)
        size = {0: 1, 1: 2, 2: 4}[funct3]
        value = T.extract(state.get(rs2), 8 * size - 1, 0)
        state.memory.write(concrete, value, size, "little")

    def _concretize_addr(self, state, addr, result, pc) -> int:
        inside = self.memory_map.membership_term(addr)
        if addr.is_const():
            if not self.memory_map.is_mapped(addr.value):
                self._defect(result, state, OOB_ACCESS,
                             "unmapped %#x" % addr.value, pc)
                raise _Stop()
            return addr.value
        site = (OOB_ACCESS, pc)
        if site not in self._defect_sites and self.solver.check(
                extra=state.path + [T.not_(inside)]) == SAT:
            self._defect(result, state, OOB_ACCESS,
                         "can reach unmapped memory", pc,
                         model=self.solver.model())
        state.path.append(inside)
        if self.solver.check(extra=state.path) != SAT:
            raise _Stop()
        value = T.evaluate(addr, self.solver.model())
        state.path.append(T.eq(addr, T.bv(value, _WORD)))
        return value

    def _check_div(self, state, divisor, result, pc) -> None:
        site = (DIV_BY_ZERO, pc)
        if site in self._defect_sites:
            return
        zero = T.eq(divisor, T.bv(0, _WORD))
        if T.is_false(zero):
            return
        if self.solver.check(extra=state.path + [zero]) == SAT:
            self._defect(result, state, DIV_BY_ZERO, "divisor can be zero",
                         pc, model=self.solver.model())

    def _env(self, state, funct3, rd, rs1, imm, nxt, result):
        if funct3 == 0:      # inb
            state.put(rd, T.zext(state.next_input(), 24))
            state.pc = nxt
            return [state]
        if funct3 == 1:      # outb
            state.pc = nxt
            return [state]
        if funct3 == 2:      # halt
            model = {}
            if state.path:
                if self.solver.check(extra=state.path) != SAT:
                    return []
                model = self.solver.model()
            result.paths.append(PathResult(
                "halted", state, state.input_from_model(model), imm & 0xff))
            return []
        # trap
        self._defect(result, state, TRAP, "trap instruction reached",
                     state.pc)
        return []

    def _defect(self, result, state, kind, message, pc=None,
                model=None) -> None:
        pc = state.pc if pc is None else pc
        site = (kind, pc)
        if site in self._defect_sites:
            return
        self._defect_sites.add(site)
        if model is None:
            if state.path and self.solver.check(extra=state.path) != SAT:
                return
            model = self.solver.model() if state.path else {}
        result.defects.append(Defect(kind, pc, "native", message,
                                     state.input_from_model(model), model,
                                     0, state.steps))


class _Stop(Exception):
    """The current path cannot continue."""
