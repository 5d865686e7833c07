"""Re-execute generated symbolic plans over a fully symbolic pre-state.

The plans :mod:`repro.compile.symbolic` emits are specialized for the
engine's calling convention: field *terms* arrive pre-concretized
(``FT['rs1'].value`` is a decoded int), ``S.pc`` is a concrete program
counter, and loads/branch checks call back into the engine.  The
validator wants the same generated code run with every one of those
inputs symbolic — so this module re-executes the generated *source*
under a harness:

* ``FT[...].value`` is rewritten to ``FT[...]`` before compilation, so
  register indices stay terms (the only place ``.value`` appears in
  generated plan code is field-index concretization),
* ``T`` is shimmed so ``T.bv(S.pc, w)`` passes an already-symbolic pc
  term through (width-adapting, exactly like the reference evaluator's
  ``machine.pc``),
* the engine surface (``_load``/``_concrete_index``/``_check_div``) is
  a :class:`_HarnessEngine` that routes memory through the shared
  :class:`~repro.verify.state.MachineState` and keeps symbolic indices
  symbolic; its ``attr`` is a stub, so probed twins run the same way,
* the plan driver below replaces the engine's ``Engine._run``: same tag
  dispatch, same statement order, but a symbolic ``if`` always explores
  *both* arms (no feasibility pruning — the validator refutes
  infeasible path pairs during obligation matching instead), mirroring
  :func:`repro.ir.symexec.exec_block` path for path.

The result is a second set of :data:`repro.ir.symexec.Path` values over
the *same* pre-state variables as the reference evaluation — directly
comparable, and mostly hash-consing to identical terms.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..compile import symbolic as SP
from ..smt import terms as T
from ..ir.symexec import Path, SymExecError, SymOutcome
from .state import MachineState

__all__ = ["load_plans", "exec_plan"]

_FT_VALUE = re.compile(r"(FT\[[^\]]+\])\.value")


class _TermShim:
    """``T`` for re-executed plan code: ``bv`` tolerates term inputs
    (``T.bv(S.pc, w)``), everything else is the real module."""

    @staticmethod
    def bv(value, width: int) -> T.Term:
        if isinstance(value, T.Term):
            if value.width == width:
                return value
            if value.width > width:
                return T.extract(value, width - 1, 0)
            return T.zext(value, width - value.width)
        return T.bv(value, width)

    def __getattr__(self, name: str):
        return getattr(T, name)


class _HarnessConfig:
    # Division-by-zero feasibility probes are solver business, not
    # equivalence business: SMT-LIB total semantics (which both T.udiv
    # and the interpreter implement) carry the equivalence question.
    check_div_zero = False


class _NullAttr:
    """Probed twins' ``E.attr``: probes are timing, not semantics."""

    def ir_enter(self, kind: str) -> None:
        pass

    def ir_exit(self) -> None:
        pass


class _HarnessEngine:
    config = _HarnessConfig()
    attr = _NullAttr()

    def _load(self, state: "_HarnessState", addr: T.Term, size: int,
              guards, decoded) -> T.Term:
        return state.machine.load(addr, size)

    def _concrete_index(self, state: "_HarnessState", term: T.Term,
                        decoded) -> T.Term:
        return term

    def _check_div(self, state, term, guards, decoded) -> None:
        raise SymExecError("div-zero probe reached with checks disabled")


class _HarnessState:
    """The ``S`` the generated expression code sees."""

    def __init__(self, machine: MachineState):
        self.machine = machine
        self.pc = machine.pc(machine.pre.pc_width)

    def read_reg(self, regfile: str, index) -> T.Term:
        return self.machine.read_reg(regfile, _index_term(index))


def _index_term(index) -> Optional[T.Term]:
    if index is None or isinstance(index, T.Term):
        return index
    # Constant index ('c' specs, match-fixed fields): minimal-width
    # constant, the canonical form a reference-side Const lowers to.
    return T.bv(index, max(int(index).bit_length(), 1))


def load_plans(symbolic_source: str,
               isa: str) -> Tuple[Dict[str, tuple], Dict[str, tuple]]:
    """Compile the generated symbolic module for harness execution:
    ``(plans, probed twins)``, each rule name -> plan."""
    rewritten = _FT_VALUE.sub(r"\1", symbolic_source)
    namespace: Dict[str, object] = {"T": _TermShim()}
    exec(compile(rewritten, "<repro.verify:%s:plans>" % isa, "exec"),
         namespace)
    plans, probed = namespace.get("PLANS"), namespace.get("PROBED")
    if not isinstance(plans, dict) or not isinstance(probed, dict):
        raise SymExecError("generated symbolic module has no "
                           "PLANS/PROBED tables")
    return plans, probed


def exec_plan(plan: tuple, machine: MachineState,
              fields: Dict[str, T.Term]) -> List[Path]:
    """Run one rule's plan; returns every path's
    ``(machine, outcome, guards)`` — the reference evaluator's shape."""
    engine = _HarnessEngine()
    return _run(engine, _HarnessState(machine), [(plan, 0)], {},
                SymOutcome(), (), fields)


def _resolve_index(engine, state, spec, fields, local_values
                   ) -> Optional[T.Term]:
    if spec is None:
        return None
    kind = spec[0]
    if kind == "f":
        return fields[spec[1]]
    if kind == "c":
        return _index_term(spec[1])
    term = spec[1](engine, state, fields, local_values, None)
    return term


def _run(engine, state: _HarnessState, frames, local_values,
         outcome: SymOutcome, guards: Tuple[T.Term, ...],
         fields: Dict[str, T.Term]) -> List[Path]:
    machine = state.machine
    while frames:
        stmts, index = frames[-1]
        if index >= len(stmts):
            frames.pop()
            continue
        frames[-1] = (stmts, index + 1)
        st = stmts[index]
        tag = st[0]
        if tag == SP.S_IF:
            cond = st[1](engine, state, fields, local_values, None)
            if cond.is_const():
                body = st[2] if cond.value == 1 else st[3]
                if body:
                    frames.append((body, 0))
                continue
            return _fork(engine, state, st, cond, frames, local_values,
                         outcome, guards, fields)
        if tag == SP.S_REG:
            value = st[3](engine, state, fields, local_values, None)
            machine.write_reg(
                st[1], _resolve_index(engine, state, st[2], fields,
                                      local_values), value)
        elif tag == SP.S_LOCAL:
            local_values[st[1]] = st[2](engine, state, fields,
                                        local_values, None)
        elif tag == SP.S_LOCAL_IN:
            local_values[st[1]] = machine.input_byte()
        elif tag == SP.S_REG_IN:
            value = machine.input_byte()
            machine.write_reg(
                st[1], _resolve_index(engine, state, st[2], fields,
                                      local_values), value)
        elif tag == SP.S_PC:
            outcome.next_pc = st[1](engine, state, fields,
                                    local_values, None)
        elif tag == SP.S_STORE:
            addr = st[1](engine, state, fields, local_values, None)
            value = st[2](engine, state, fields, local_values, None)
            machine.store(addr, value, st[3])
        elif tag == SP.S_OUT:
            machine.output_byte(st[1](engine, state, fields,
                                      local_values, None))
        elif tag == SP.S_HALT:
            outcome.halted = True
            outcome.exit_code = st[1](engine, state, fields,
                                      local_values, None)
            return [(machine, outcome, guards)]
        elif tag == SP.S_TRAP:
            outcome.trapped = True
            outcome.trap_code = st[1](engine, state, fields,
                                      local_values, None)
            return [(machine, outcome, guards)]
        else:
            raise SymExecError("unknown plan tag %r" % (tag,))
    return [(machine, outcome, guards)]


def _fork(engine, state: _HarnessState, st, cond: T.Term, frames,
          local_values, outcome: SymOutcome, guards: Tuple[T.Term, ...],
          fields: Dict[str, T.Term]) -> List[Path]:
    results: List[Path] = []
    branches = ((cond, st[2]), (T.not_(cond), st[3]))
    for position, (branch_cond, body) in enumerate(branches):
        last = position == len(branches) - 1
        branch_machine = state.machine if last else state.machine.fork()
        branch_state = state if last else _HarnessState(branch_machine)
        branch_frames = [(stmts, idx) for stmts, idx in frames]
        if body:
            branch_frames.append((body, 0))
        results.extend(_run(engine, branch_state, branch_frames,
                            dict(local_values), outcome.copy(),
                            guards + (branch_cond,), fields))
    return results
