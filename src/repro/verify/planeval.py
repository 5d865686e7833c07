"""Re-execute generated symbolic plans over a fully symbolic pre-state.

The plans :mod:`repro.compile.symbolic` emits call the operator library
:mod:`repro.compile.ops` and take decoded fields, the program counter,
loads and register reads from the engine.  The validator runs the
generated source *unchanged* with every one of those inputs symbolic:

* the module's globals are the same operators, each wrapped to reject
  a width literal that disagrees with a ``Term`` operand (or an int
  operand that does not fit it).  Only the int path reads the literal,
  so this is what makes a proof of the term path cover the int path —
  whose agreement with ``T``'s constant folding is checked operator by
  operator in ``tests/compile/test_ops.py``,
* the engine surface (``_load``/``_concrete_index``/``_check_div``) is
  a :class:`_HarnessEngine` that routes memory through the shared
  :class:`~repro.verify.state.MachineState` and keeps symbolic indices
  symbolic; its ``attr`` is a stub, so probed twins run the same way,
* values cross the state boundary as the engine's do: fields, register
  reads and loads reach the plan as ints when constant, and ints the
  plan produces are lifted to terms before the machine records them,
* the plan driver below replaces the engine's ``Engine._run``: same tag
  dispatch, same statement order, the same int test on an ``if``
  condition, but a symbolic ``if`` always explores *both* arms (no
  feasibility pruning — the validator refutes infeasible path pairs
  during obligation matching instead), mirroring
  :func:`repro.ir.symexec.exec_block` path for path.

The result is a second set of :data:`repro.ir.symexec.Path` values over
the *same* pre-state variables as the reference evaluation — directly
comparable, and mostly hash-consing to identical terms.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..compile import symbolic as SP
from ..compile.ops import OPS, Value, norm
from ..smt import terms as T
from ..ir.symexec import Path, SymExecError, SymOutcome
from .state import MachineState

__all__ = ["load_plans", "exec_plan", "WidthLiteralError"]


class WidthLiteralError(SymExecError):
    """A generated width literal disagrees with an operand."""


def _fits(name: str, value: Value, width: int) -> None:
    if isinstance(value, int):
        if value >> width:
            raise WidthLiteralError("%s: int operand %#x does not fit its "
                                    "width literal %d" % (name, value, width))
    elif value.width != width:
        raise WidthLiteralError("%s: width literal %d disagrees with a "
                                "%d-bit operand" % (name, width, value.width))


#: operator -> (operand position, width-literal position) pairs to
#: check; ``None`` marks a 1-bit operand (an ``ite`` condition).
_WIDTH_ARGS: Dict[str, Tuple[Tuple[int, Optional[int]], ...]] = {
    "not_": ((0, 1),), "neg": ((0, 1),), "zext": ((0, 1),),
    "sext": ((0, 1),), "extract": ((0, 1),), "concat": ((0, 2), (1, 3)),
    "ite": ((0, None), (1, 3), (2, 3)), "pc": (),   # pc adapts widths
}
_BINARY: Tuple[Tuple[int, Optional[int]], ...] = ((0, 2), (1, 2))


def _checked(name: str, op: Callable) -> Callable:
    """``op`` with every operand checked against its width literal."""
    pairs = _WIDTH_ARGS.get(name, _BINARY)

    def checked(*args):
        for operand, width in pairs:
            _fits(name, args[operand], 1 if width is None else args[width])
        return op(*args)
    return checked


#: The globals plan source runs under in the harness.
CHECKED_OPS = {name: _checked(name, op) for name, op in OPS.items()}


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

    def _load(self, state: "_HarnessState", addr: Value, size: int,
              guards, decoded) -> Value:
        return norm(state.machine.load(_term(addr), size))

    def _concrete_index(self, state: "_HarnessState", index: Value,
                        decoded) -> Value:
        return index

    def _check_div(self, state, term, guards, decoded) -> None:
        raise SymExecError("div-zero probe reached with checks disabled")


class _HarnessState:
    """The ``S`` the generated expression code sees."""

    def __init__(self, machine: MachineState):
        self.machine = machine
        self.pc = machine.pc(machine.pre.pc_width)

    def read_reg(self, regfile: str, index: Optional[Value]) -> Value:
        return norm(self.machine.read_reg(regfile, _index(index)))


def _term(value: Value) -> T.Term:
    """A plan value as a machine-side term.  An int has no width of its
    own; it becomes the minimal-width constant, which the machine's
    canonical forms (:func:`repro.smt.normalize.canon`) treat like any
    wider constant of the same value."""
    if isinstance(value, T.Term):
        return value
    return T.bv(value, max(value.bit_length(), 1))


def _index(index: Optional[Value]) -> Optional[T.Term]:
    return None if index is None else _term(index)


def load_plans(symbolic_source: str,
               isa: str) -> Tuple[Dict[str, tuple], Dict[str, tuple]]:
    """Compile the generated symbolic module for harness execution:
    ``(plans, probed twins)``, each rule name -> plan."""
    namespace: Dict[str, object] = dict(CHECKED_OPS)
    exec(compile(symbolic_source, "<repro.verify:%s:plans>" % isa, "exec"),
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
    values = {name: norm(term) for name, term in fields.items()}
    return _run(engine, _HarnessState(machine), [(plan, 0)], {},
                SymOutcome(), (), values)


def _resolve_index(engine, state, spec, fields,
                   local_values) -> Optional[Value]:
    if spec is None:
        return None
    kind = spec[0]
    if kind == "f":
        return fields[spec[1]]
    if kind == "c":
        return spec[1]
    return spec[1](engine, state, fields, local_values, None)


def _run(engine, state: _HarnessState, frames, local_values,
         outcome: SymOutcome, guards: Tuple[T.Term, ...],
         fields: Dict[str, Value]) -> List[Path]:
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
            if type(cond) is int:
                body = st[2] if cond == 1 else st[3]
                if body:
                    frames.append((body, 0))
                continue
            return _fork(engine, state, st, cond, frames, local_values,
                         outcome, guards, fields)
        if tag == SP.S_REG:
            value = st[3](engine, state, fields, local_values, None)
            machine.write_reg(
                st[1], _index(_resolve_index(engine, state, st[2], fields,
                                             local_values)), _term(value))
        elif tag == SP.S_LOCAL:
            local_values[st[1]] = st[2](engine, state, fields,
                                        local_values, None)
        elif tag == SP.S_LOCAL_IN:
            local_values[st[1]] = machine.input_byte()
        elif tag == SP.S_REG_IN:
            value = machine.input_byte()
            machine.write_reg(
                st[1], _index(_resolve_index(engine, state, st[2], fields,
                                             local_values)), value)
        elif tag == SP.S_PC:
            outcome.next_pc = _term(st[1](engine, state, fields,
                                          local_values, None))
        elif tag == SP.S_STORE:
            addr = st[1](engine, state, fields, local_values, None)
            value = st[2](engine, state, fields, local_values, None)
            machine.store(_term(addr), _term(value), st[3])
        elif tag == SP.S_OUT:
            machine.output_byte(_term(st[1](engine, state, fields,
                                            local_values, None)))
        elif tag == SP.S_HALT:
            outcome.halted = True
            outcome.exit_code = _term(st[1](engine, state, fields,
                                            local_values, None))
            return [(machine, outcome, guards)]
        elif tag == SP.S_TRAP:
            outcome.trapped = True
            outcome.trap_code = _term(st[1](engine, state, fields,
                                            local_values, None))
            return [(machine, outcome, guards)]
        else:
            raise SymExecError("unknown plan tag %r" % (tag,))
    return [(machine, outcome, guards)]


def _fork(engine, state: _HarnessState, st, cond: T.Term, frames,
          local_values, outcome: SymOutcome, guards: Tuple[T.Term, ...],
          fields: Dict[str, Value]) -> List[Path]:
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
