"""Shared symbolic pre-state and effect-logging machine states.

Translation validation compares executions of one rule — the
reference IR evaluation (:mod:`repro.ir.symexec`) and the compiled
plan, run through the plan driver — and the comparison is only
meaningful if both observe the *same* symbolic pre-state.
:class:`PreState` owns that sharing: every read of a machine location
resolves to a memoized variable keyed on the *canonicalized* location
term (:func:`repro.smt.normalize.canon`), so
"register ``x[rs1]``" is one variable no matter which evaluator asks,
at which ambient width, or on which path.

Each evaluation runs on its own :class:`MachineState` (one per path),
which records machine-visible effects into ordered logs:

* ``reg_writes`` — ``(regfile, index term | None, value term)``; reads
  after writes fold through a McCarthy select over the log, so
  aliasing (``rs1 == rd``) and superseded writes are modeled exactly.
* ``mem_log`` — interleaved ``("load", addr, size)`` / ``("store",
  addr, value, size)`` events.  Load results are keyed by ``(address,
  size, prior-store count)``: two sides that perform the same
  load/store interleaving bind the same variables, while a load issued
  after a *different* number of stores gets a fresh variable — which
  is what makes "reorder a load past a store" show up as an
  inequivalence instead of being silently absorbed.
* ``outputs`` / ``input_count`` — the observable byte streams.

Zero-register semantics (``zero_index`` regfiles) are deliberately
*not* special-cased: every evaluation goes through the same machine
abstraction, so hardwired-zero folding cancels out of the equivalence
question and stays the simulator's/engine's business.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from ..smt import normalize
from ..smt import terms as T
from ..ir import symexec

__all__ = ["PreState", "MachineState", "RegWrite", "MemEvent"]

#: (regfile, canonical index term or None, value term)
RegWrite = Tuple[str, Optional[T.Term], T.Term]
#: ("load", addr, size) or ("store", addr, value, size)
MemEvent = Union[Tuple[str, T.Term, int], Tuple[str, T.Term, T.Term, int]]


class PreState:
    """The rule's symbolic pre-state, shared by every evaluation."""

    def __init__(self, mkvar: Callable[[str, int], T.Term],
                 pc_width: int):
        self._mkvar = mkvar
        self.pc_width = pc_width
        self._reads: Dict[object, T.Term] = {}
        #: variable name -> human-readable location ("x[rs1]", "pc"),
        #: for rendering counterexample pre-states.
        self.labels: Dict[str, str] = {}
        self._canon_cache: Dict[Tuple[int, int], T.Term] = {}
        self._kb_cache: Dict[int, Tuple[int, int]] = {}

    # -- canonical location keys ---------------------------------------------

    def canon(self, term: T.Term, width: Optional[int] = None) -> T.Term:
        return normalize.canon(term, width, self._canon_cache,
                               self._kb_cache)

    def _key(self, term: Optional[T.Term]):
        if term is None:
            return None
        return T.digest(self.canon(term))

    # -- pre-state variables --------------------------------------------------

    def _read_var(self, key, what: str, width: int,
                  label: str) -> T.Term:
        var = self._reads.get(key)
        if var is None:
            var = self._mkvar("%s%d" % (what, len(self._reads)), width)
            self._reads[key] = var
            self.labels[var.name] = label
        if var.width != width:
            raise symexec.SymExecError(
                "pre-state location read at widths %d and %d"
                % (var.width, width))
        return var

    def pc_term(self, width: int) -> T.Term:
        var = self._read_var(("pc",), "pc", self.pc_width, "pc")
        if width == self.pc_width:
            return var
        if width < self.pc_width:
            return T.extract(var, width - 1, 0)
        return T.zext(var, width - self.pc_width)

    def reg_var(self, regfile: str, index: Optional[T.Term],
                width: int) -> T.Term:
        label = regfile if index is None \
            else "%s[%s]" % (regfile, _short(index))
        return self._read_var(("reg", regfile, self._key(index)),
                              "r", width, label)

    def mem_var(self, addr: T.Term, size: int, epoch: int) -> T.Term:
        label = "mem[%s]:%d" % (_short(addr), size)
        if epoch:
            label += "@%d" % epoch
        return self._read_var(("mem", self._key(addr), size, epoch),
                              "m", 8 * size, label)

    def input_var(self, position: int) -> T.Term:
        return self._read_var(("in", position), "in", 8,
                              "in[%d]" % position)

    def obs_var(self, regfile: str, width: int) -> T.Term:
        """Observation index for final-state register comparison."""
        return self._read_var(("obs", regfile), "obs", width,
                              "obs(%s)" % regfile)

    def read_vars(self) -> Dict[object, T.Term]:
        """Every pre-state variable handed out so far (witness rendering)."""
        return dict(self._reads)


class MachineState(symexec.SymbolicMachine):
    """One path's machine state: shared pre-state + ordered effect logs.

    ``reg_widths`` maps regfile *and* single-register names to their
    declared width; reads and writes are normalized to that width at
    the machine boundary (the real machine masks on write, so low
    ``width`` bits are exactly what is architecturally observable).
    """

    def __init__(self, pre: PreState, reg_widths: Dict[str, int]):
        self.pre = pre
        self.reg_widths = reg_widths
        self.reg_writes: List[RegWrite] = []
        self.mem_log: List[MemEvent] = []
        self.outputs: List[T.Term] = []
        self.input_count = 0
        self.store_count = 0

    def fork(self) -> "MachineState":
        clone = MachineState(self.pre, self.reg_widths)
        clone.reg_writes = list(self.reg_writes)
        clone.mem_log = list(self.mem_log)
        clone.outputs = list(self.outputs)
        clone.input_count = self.input_count
        clone.store_count = self.store_count
        return clone

    # -- widths ----------------------------------------------------------------

    def _reg_width(self, regfile: str) -> int:
        width = self.reg_widths.get(regfile)
        if width is None:
            raise symexec.SymExecError("unknown register space %r"
                                       % regfile)
        return width

    # -- SymbolicMachine surface ----------------------------------------------

    def read_reg(self, regfile: str,
                 index: Optional[T.Term]) -> T.Term:
        width = self._reg_width(regfile)
        index = None if index is None else self.pre.canon(index)
        value = self.pre.reg_var(regfile, index, width)
        # McCarthy select over this path's writes, oldest first.
        for written_file, written_index, written_value in self.reg_writes:
            if written_file != regfile:
                continue
            if index is None or written_index is None:
                if index is None and written_index is None:
                    value = written_value
                continue
            value = T.ite(index_eq(index, written_index),
                          written_value, value)
        return value

    def write_reg(self, regfile: str, index: Optional[T.Term],
                  value: T.Term) -> None:
        width = self._reg_width(regfile)
        index = None if index is None else self.pre.canon(index)
        self.reg_writes.append((regfile, index, self._fit(value, width)))

    def load(self, addr: T.Term, size: int) -> T.Term:
        addr = self.pre.canon(addr)
        self.mem_log.append(("load", addr, size))
        value: Optional[T.Term] = None
        epoch = 0
        for event in self.mem_log[:-1]:
            if event[0] != "store":
                continue
            epoch += 1
            _, stored_addr, stored_value, stored_size = event
            if stored_size != size:
                value = None  # partial overlap: fall back to an
                continue      # epoch-fresh variable below
            base = value if value is not None \
                else self.pre.mem_var(addr, size, epoch - 1)
            value = T.ite(index_eq(addr, stored_addr), stored_value,
                          base)
        if value is None:
            value = self.pre.mem_var(addr, size, epoch)
        return value

    def store(self, addr: T.Term, value: T.Term, size: int) -> None:
        self.mem_log.append(("store", self.pre.canon(addr),
                             self._fit(value, 8 * size), size))
        self.store_count += 1

    def _fit(self, value: T.Term, width: int) -> T.Term:
        """Canonical ``width``-bit view of a written value (the machine
        masks on write; narrower inputs — ``in()`` bytes — zero-extend)."""
        if value.width < width:
            value = T.zext(value, width - value.width)
        return self.pre.canon(value, width)

    def input_byte(self) -> T.Term:
        var = self.pre.input_var(self.input_count)
        self.input_count += 1
        return var

    def output_byte(self, value: T.Term) -> None:
        self.outputs.append(_to_width(value, 8))

    def pc(self, width: int) -> T.Term:
        return self.pre.pc_term(width)

    # -- final-state views ----------------------------------------------------

    def touched_spaces(self) -> List[str]:
        return sorted({write[0] for write in self.reg_writes})

    def final_reg(self, regfile: str, obs: Optional[T.Term]) -> T.Term:
        """Final value of ``regfile`` at observation index ``obs``
        (``None`` for single registers), folded over the write log."""
        width = self._reg_width(regfile)
        value = self.pre.reg_var(regfile, obs if obs is not None else None,
                                 width)
        for written_file, written_index, written_value in self.reg_writes:
            if written_file != regfile:
                continue
            if obs is None or written_index is None:
                if obs is None and written_index is None:
                    value = written_value
                continue
            value = T.ite(index_eq(obs, written_index), written_value,
                          value)
        return value


def _short(term: T.Term) -> str:
    if term.is_const():
        return "%#x" % term.value
    if term.op == T.VAR:
        return term.name
    return "<expr>"


def index_eq(a: T.Term, b: T.Term) -> T.Term:
    """Width-aligning equality for index/address terms."""
    if a.width < b.width:
        a = T.zext(a, b.width - a.width)
    elif b.width < a.width:
        b = T.zext(b, a.width - b.width)
    return T.eq(a, b)


def _to_width(term: T.Term, width: int) -> T.Term:
    if term.width == width:
        return term
    if term.width > width:
        return T.extract(term, width - 1, 0)
    return T.zext(term, width - term.width)
