"""Symbolic machine state: registers, flags, memory, path condition.

One :class:`SymState` is one execution path prefix.  The program counter is
kept *concrete* (the classic binary-symbolic-execution design: branches fork
states, indirect jumps are concretized).  A register or memory byte holds a
plain ``int`` while its value is concrete and a solver term only once it is
symbolic (:data:`repro.compile.ops.Value`); writes normalize a constant term
to its int, so no state ever holds a constant ``Term``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..compile.ops import Value
from ..smt import terms as T
from .memory import SymMemory, check_value

__all__ = ["SymState"]

_state_ids = itertools.count()


class SymState:
    """One path's machine state plus its path condition."""

    def __init__(self, model, memory: SymMemory):
        self.model = model
        self.memory = memory
        self.pc: int = 0
        self.regfiles: Dict[str, List[Value]] = {
            name: [0] * info.count
            for name, info in model.regfiles.items()}
        self.registers: Dict[str, Value] = {
            name: 0 for name in model.registers}
        self.path_condition: List[T.Term] = []
        self.input_vars: List[T.Term] = []
        self.output: List[Value] = []
        self.steps = 0
        self.halted = False
        self.exit_code: Optional[Value] = None
        self.state_id = next(_state_ids)
        self.parent_id: Optional[int] = None
        # Cumulative priority hint for coverage-guided search.
        self.priority = 0.0
        # Per-path pc visit counts (populated only when the engine's
        # loop bound, max_visits_per_pc, is configured).
        self.visit_counts: Dict[int, int] = {}
        # Incremental solver-frame reuse (Engine._branch_feasible): the
        # last model known to satisfy this path's condition, a shared
        # term-evaluation memo for that model, and a watermark counting
        # how many path-condition conjuncts the model has been validated
        # against.  Forks share model + memo (sound: both are read-only
        # relative to one fixed assignment; a state that adopts a new
        # model replaces them wholesale, never mutates in place).
        self.frame_model: Optional[Dict[str, int]] = None
        self.frame_memo: Dict[int, int] = {}
        self.frame_checked: int = 0

    # -- path forking ---------------------------------------------------------------

    def fork(self) -> "SymState":
        child = SymState.__new__(SymState)
        child.model = self.model
        child.memory = self.memory.fork()
        child.pc = self.pc
        child.regfiles = {name: list(regs)
                          for name, regs in self.regfiles.items()}
        child.registers = dict(self.registers)
        child.path_condition = list(self.path_condition)
        child.input_vars = list(self.input_vars)
        child.output = list(self.output)
        child.steps = self.steps
        child.halted = self.halted
        child.exit_code = self.exit_code
        child.state_id = next(_state_ids)
        child.parent_id = self.state_id
        child.priority = self.priority
        child.visit_counts = dict(self.visit_counts)
        child.frame_model = self.frame_model
        child.frame_memo = self.frame_memo
        child.frame_checked = self.frame_checked
        return child

    # -- constraints -------------------------------------------------------------------

    def assume(self, cond: T.Term) -> None:
        """Add ``cond`` to this path's condition (no feasibility check)."""
        if not T.is_true(cond):
            self.path_condition.append(cond)

    # -- registers ------------------------------------------------------------------------

    def read_reg(self, regfile: str, index: Optional[int]) -> Value:
        if index is None:
            return self.registers[regfile]
        info = self.model.regfiles[regfile]
        if not (0 <= index < info.count):
            raise IndexError("register index %d out of range for %r"
                             % (index, regfile))
        if info.zero_index is not None and index == info.zero_index:
            return 0
        return self.regfiles[regfile][index]

    def write_reg(self, regfile: str, index: Optional[int],
                  value: Value) -> None:
        """Write an int or a term; a constant term is stored as its int."""
        if index is None:
            width = self.model.registers[regfile]
            if type(value) is not int or value >> width:
                value = check_value(value, width, "register", regfile)
            self.registers[regfile] = value
            return
        info = self.model.regfiles[regfile]
        if not (0 <= index < info.count):
            raise IndexError("register index %d out of range for %r"
                             % (index, regfile))
        if info.zero_index is not None and index == info.zero_index:
            return
        if type(value) is not int or value >> info.width:
            value = check_value(value, info.width, "regfile", regfile)
        self.regfiles[regfile][index] = value

    # -- input stream ------------------------------------------------------------------------

    def input_byte(self) -> T.Term:
        """Fresh symbolic byte for the next input read.

        Input position k is named ``in_k`` on every path, so a model's
        ``in_*`` variables directly give the triggering input bytes.
        """
        var = T.var("in_%d" % len(self.input_vars), 8)
        self.input_vars.append(var)
        return var

    def output_byte(self, value: Value) -> None:
        self.output.append(value)

    def input_bytes_from_model(self, model: Dict[str, int]) -> bytes:
        """Concrete input realizing this path, given a solver model."""
        return bytes(model.get("in_%d" % i, 0) & 0xff
                     for i in range(len(self.input_vars)))

    # -- footprint (health monitor) -----------------------------------------------

    def footprint(self) -> Dict[str, int]:
        """Cheap per-state cost estimate for the live health monitor.

        ``path_terms`` is the number of path-condition conjuncts (a
        proxy for solver query size), ``pages`` the number of memory
        pages this state references (COW-shared pages count once per
        state — the estimate bounds what a solver query or a merge pass
        may have to look at, not unique ownership).  O(1): no term
        traversal, no page scan.
        """
        return {"state": self.state_id, "pc": self.pc, "steps": self.steps,
                "path_terms": len(self.path_condition),
                "pages": self.memory.pages_touched,
                "depth": len(self.input_vars)}

    def __repr__(self):
        return "<SymState #%d pc=%#x steps=%d |pc|=%d>" % (
            self.state_id, self.pc, self.steps, len(self.path_condition))
