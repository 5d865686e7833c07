"""Concrete ISA simulator.

Interprets the generated IR over plain integers (:mod:`repro.ir.interp`,
the default).  This is the reference semantics the symbolic executor is
differentially tested against, the replay vehicle for solver-found inputs
(Figure 3), and the concrete half of concolic execution.

``Simulator(compiled=True)`` runs each rule's compiled plan instead — the
engine's own plans, walked by the same driver
(:func:`repro.compile.driver.drive`).  On an all-int state every value and
condition is an int, so a plan is a concrete transfer function; it is
held to the interpreter by ``tests/compile``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..compile.driver import CONCRETE, drive
from ..ir import interp
from .assembler import Image
from .decoder import DecodeError

__all__ = ["SimError", "MachineState", "Simulator", "run_image"]


class SimError(Exception):
    """A concrete-execution failure (bad fetch, register index, memory)."""


class MachineState(interp.MachineContext):
    """Registers + byte-addressed sparse memory + I/O streams."""

    def __init__(self, model, input_bytes: bytes = b""):
        self.model = model
        self.regfiles: Dict[str, List[int]] = {
            name: [0] * info.count for name, info in model.regfiles.items()}
        self.registers: Dict[str, int] = {
            name: 0 for name in model.registers}
        self.memory: Dict[int, int] = {}
        self.pc = 0
        self.input = list(input_bytes)
        self.input_cursor = 0
        self.output = bytearray()
        self._addr_mask = (1 << model.pc_width) - 1

    # -- MachineContext interface -------------------------------------------------

    def read_reg(self, regfile: str, index) -> int:
        if index is None:
            return self.registers[regfile]
        info = self.model.regfiles[regfile]
        if not (0 <= index < info.count):
            raise SimError("register index %d out of range for %r"
                           % (index, regfile))
        if info.zero_index is not None and index == info.zero_index:
            return 0
        return self.regfiles[regfile][index]

    def write_reg(self, regfile: str, index, value: int) -> None:
        if index is None:
            width = self.model.registers[regfile]
            self.registers[regfile] = value & ((1 << width) - 1)
            return
        info = self.model.regfiles[regfile]
        if not (0 <= index < info.count):
            raise SimError("register index %d out of range for %r"
                           % (index, regfile))
        if info.zero_index is not None and index == info.zero_index:
            return
        self.regfiles[regfile][index] = value & ((1 << info.width) - 1)

    def load(self, addr: int, size: int) -> int:
        addr &= self._addr_mask
        data = [self.memory.get((addr + i) & self._addr_mask, 0)
                for i in range(size)]
        if self.model.endian == "big":
            data.reverse()
        value = 0
        for i, byte in enumerate(data):
            value |= byte << (8 * i)
        return value

    def store(self, addr: int, value: int, size: int) -> None:
        addr &= self._addr_mask
        data = [(value >> (8 * i)) & 0xff for i in range(size)]
        if self.model.endian == "big":
            data.reverse()
        for i, byte in enumerate(data):
            self.memory[(addr + i) & self._addr_mask] = byte

    def input_byte(self) -> int:
        if self.input_cursor < len(self.input):
            value = self.input[self.input_cursor]
        else:
            value = 0
        self.input_cursor += 1
        return value & 0xff

    def output_byte(self, value: int) -> None:
        self.output.append(value & 0xff)

    def current_pc(self) -> int:
        return self.pc

    # -- loading ----------------------------------------------------------------

    def load_image(self, image: Image) -> None:
        for offset, byte in enumerate(image.data):
            self.memory[image.base + offset] = byte
        self.pc = image.entry


class StepResult:
    """What happened during one :meth:`Simulator.step`."""

    __slots__ = ("decoded", "halted", "exit_code", "trapped", "trap_code")

    def __init__(self, decoded, outcome):
        self.decoded = decoded
        self.halted = outcome.halted
        self.exit_code = outcome.exit_code
        self.trapped = outcome.trapped
        self.trap_code = outcome.trap_code


class Simulator:
    """Fetch/decode/execute loop over a :class:`MachineState`."""

    def __init__(self, model, state: Optional[MachineState] = None,
                 input_bytes: bytes = b"", compiled: bool = False):
        self.model = model
        self.state = state if state is not None else MachineState(
            model, input_bytes)
        self.instruction_count = 0
        self.halted = False
        self.exit_code: Optional[int] = None
        self.trapped = False
        self.trap_code: Optional[int] = None
        # Compiled plans (repro.compile) instead of an IR walk per step.
        # Bit-for-bit equivalent to the interpreter by the differential
        # harness (tests/compile), so this flag only changes speed.
        self._plans = None
        self._pc_mask = (1 << model.pc_width) - 1
        # Fused decode->dispatch sites: pc -> (byte pairs, decoded, plan).
        # Each hit revalidates the instruction's own bytes, so
        # self-modifying code falls back to a fresh decode.  Sound
        # because decoding is shortest-first over length groups: the
        # decision depends only on the decoded instruction's bytes.
        self._sites: Dict[int, tuple] = {}
        if compiled:
            from ..compile import compiled_for
            self._plans = compiled_for(model).plan

    def _fetch_window(self) -> bytes:
        max_len = self.model.decoder.max_length
        pc = self.state.pc
        mask = (1 << self.model.pc_width) - 1
        return bytes(self.state.memory.get((pc + i) & mask, 0)
                     for i in range(max_len))

    def step(self) -> StepResult:
        if self.halted or self.trapped:
            raise SimError("machine is stopped")
        if self._plans is not None:
            return self._step_compiled()
        window = self._fetch_window()
        decoded = self.model.decoder.decode_bytes(window, self.state.pc)
        outcome = interp.exec_block(decoded.instruction.semantics,
                                    self.state, decoded.fields)
        return self._retire(decoded, outcome)

    def _step_compiled(self) -> StepResult:
        state = self.state
        memory = state.memory
        pc = state.pc
        site = self._sites.get(pc)
        if site is not None:
            pairs, decoded, plan = site
            for addr, byte in pairs:
                if memory.get(addr, 0) != byte:
                    site = None   # code changed under us: re-decode
                    break
        if site is None:
            window = self._fetch_window()
            decoded = self.model.decoder.decode_bytes(window, pc)
            plan = self._plans(decoded.instruction)
            pairs = tuple(((pc + i) & self._pc_mask, window[i])
                          for i in range(decoded.length))
            self._sites[pc] = (pairs, decoded, plan)
        ((_, outcome),) = drive(CONCRETE, state, plan, decoded.fields,
                                decoded, interp.Outcome())
        return self._retire(decoded, outcome)

    def _retire(self, decoded, outcome) -> StepResult:
        self.instruction_count += 1
        if outcome.halted:
            self.halted = True
            self.exit_code = outcome.exit_code
        elif outcome.trapped:
            self.trapped = True
            self.trap_code = outcome.trap_code
        elif outcome.next_pc is not None:
            self.state.pc = outcome.next_pc & self._pc_mask
        else:
            self.state.pc = (self.state.pc + decoded.length) & self._pc_mask
        return StepResult(decoded, outcome)

    def run(self, max_steps: int = 1_000_000) -> "Simulator":
        """Run until halt/trap or the step budget is exhausted."""
        for _ in range(max_steps):
            if self.halted or self.trapped:
                break
            self.step()
        return self

    @property
    def output(self) -> bytes:
        return bytes(self.state.output)


def run_image(model, image: Image, input_bytes: bytes = b"",
              max_steps: int = 1_000_000, compiled: bool = False) -> Simulator:
    """Assemble-and-go convenience: load an image and run it."""
    sim = Simulator(model, input_bytes=input_bytes, compiled=compiled)
    sim.state.load_image(image)
    return sim.run(max_steps)
