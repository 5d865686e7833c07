"""Run generated plans over a fully symbolic pre-state, through the
engine's own plan driver.

The plans :mod:`repro.compile.symbolic` emits call the operator library
:mod:`repro.compile.ops` and take decoded fields, the program counter,
loads and register reads from their machine.  The validator runs the
generated source *unchanged* with every one of those inputs symbolic,
and walks it with the one plan driver (:func:`repro.compile.driver.drive`)
the engine and the simulator run, so ``transval-symbolic`` proves the
driver too — its statement order, register-index-before-value order,
fork arm order and arm guards:

* the module's globals are the same operators, each wrapped to reject
  a width literal that disagrees with a ``Term`` operand (or an int
  operand that does not fit it).  Only the int path reads the literal,
  so this is what makes a proof of the term path cover the int path —
  whose agreement with ``T``'s constant folding is checked operator by
  operator in ``tests/compile/test_ops.py``,
* the driver's machine is a :class:`_Harness` (``E``) over a
  :class:`_HarnessState` (``S``): memory goes through the shared
  :class:`~repro.verify.state.MachineState`, symbolic indices stay
  symbolic, every fork arm is feasible (the validator refutes
  infeasible path pairs during obligation matching instead) and the
  guard each arm assumes goes into the path's guard tuple — mirroring
  :func:`repro.ir.symexec.exec_block` path for path,
* values cross the state boundary as the engine's do: fields, register
  reads and loads reach the plan as ints when constant, and ints the
  plan produces are lifted to terms before the machine records them.

The result is a second set of :data:`repro.ir.symexec.Path` values over
the *same* pre-state variables as the reference evaluation — directly
comparable, and mostly hash-consing to identical terms.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..compile.driver import Outcome, drive
from ..compile.ops import OPS, Value, norm
from ..smt import terms as T
from ..ir.symexec import Path, SymExecError
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


class _HarnessState:
    """The driver's ``S``: one path of the shared machine, plus the
    guards its fork arms assumed."""

    def __init__(self, machine: MachineState,
                 guards: Tuple[T.Term, ...] = ()):
        self.machine = machine
        self.guards = guards
        self.pc = machine.pc(machine.pre.pc_width)

    def read_reg(self, regfile: str, index: Optional[Value]) -> Value:
        return norm(self.machine.read_reg(regfile, _index(index)))

    def write_reg(self, regfile: str, index: Optional[Value],
                  value: Value) -> None:
        self.machine.write_reg(regfile, _index(index), _term(value))

    def input_byte(self) -> T.Term:
        return self.machine.input_byte()

    def output_byte(self, value: Value) -> None:
        self.machine.output_byte(_term(value))

    def fork(self) -> "_HarnessState":
        return _HarnessState(self.machine.fork(), self.guards)

    def assume(self, guard: T.Term) -> None:
        self.guards = self.guards + (guard,)


class _Harness:
    """The driver's ``E``: no pruning, no concretization, and nothing
    that ends a path (so no ``_dead_end``)."""

    config = _HarnessConfig()

    def _load(self, S: _HarnessState, addr: Value, size: int, guards,
              D) -> Value:
        return norm(S.machine.load(_term(addr), size))

    def _store(self, S: _HarnessState, addr: Value, value: Value,
               size: int, D) -> None:
        S.machine.store(_term(addr), _term(value), size)

    def _concrete_index(self, S: _HarnessState, index: Value,
                        D) -> Value:
        return index

    def _check_div(self, S, divisor, guards, D) -> None:
        raise SymExecError("div-zero probe reached with checks disabled")

    def _feasible_arms(self, S: _HarnessState, guards) -> List[bool]:
        return [True] * len(guards)

    def _enter_arm(self, S: _HarnessState, verdict: bool) -> None:
        pass


_HARNESS = _Harness()


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


def _lifted(outcome: Outcome) -> Outcome:
    """``outcome`` with its int values lifted to terms, in place."""
    for slot in ("next_pc", "exit_code", "trap_code"):
        value = getattr(outcome, slot)
        if value is not None:
            setattr(outcome, slot, _term(value))
    return outcome


def load_plans(symbolic_source: str, isa: str) -> Dict[str, tuple]:
    """Compile the generated symbolic module for harness execution:
    rule name -> plan."""
    namespace: Dict[str, object] = dict(CHECKED_OPS)
    exec(compile(symbolic_source, "<repro.verify:%s:plans>" % isa, "exec"),
         namespace)
    plans = namespace.get("PLANS")
    if not isinstance(plans, dict):
        raise SymExecError("generated symbolic module has no PLANS table")
    return plans


def exec_plan(plan: tuple, machine: MachineState,
              fields: Dict[str, T.Term]) -> List[Path]:
    """Run one rule's plan through the plan driver; returns every
    path's ``(machine, outcome, guards)`` — the reference evaluator's
    shape."""
    values = {name: norm(term) for name, term in fields.items()}
    return [(state.machine, _lifted(outcome), state.guards)
            for state, outcome in drive(_HARNESS, _HarnessState(machine),
                                        plan, values, None, Outcome())]
