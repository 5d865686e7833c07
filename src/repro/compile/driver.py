"""The plan driver: the one walk of a rule's plan, for every machine.

:mod:`repro.compile.symbolic` lowers each rule into a *plan* — nested
tuples of tagged statements whose expression slots are generated
functions.  :func:`drive` walks one plan.  Three machines drive it:

* the engine (:class:`repro.core.executor.Engine`), over a
  :class:`~repro.core.state.SymState` whose values are ints while
  concrete and terms once symbolic;
* the translation validator (:mod:`repro.verify.planeval`), over a fully
  symbolic pre-state, so ``transval-symbolic`` proves this walk, not a
  copy of it;
* the concrete simulator (``Simulator(compiled=True)``), over an
  all-int :class:`~repro.isa.simulator.MachineState`, where every
  condition is an int and a plan is a concrete transfer function
  (:data:`CONCRETE` is the ``E`` for any such int machine).

The walk owns everything a proof must see: statement order, a register
write's index before its value, the arm order of a fork, the guard each
arm assumes, the continuation frames and the copies of locals and
outcome each arm gets.  It reaches the machine through two objects:

``E`` — the machine's policy, also the ``E`` of the generated code
    ``config.check_div_zero``, ``_load(S, addr, size, guards, D)``,
    ``_check_div(S, divisor, guards, D)``, ``_store(S, addr, value,
    size, D)``, ``_concrete_index(S, index, D)``, and for a symbolic
    ``if``: ``_feasible_arms(S, guards)`` (one verdict per arm, ``None``
    for an infeasible one), ``_enter_arm(S, verdict)`` and
    ``_dead_end(S, reason)`` for an arm that raised :class:`PathEnd`;
``S`` — the state
    ``pc``, ``read_reg(regfile, index)``, ``write_reg(regfile, index,
    value)``, ``input_byte()``, ``output_byte(value)``, and for a
    symbolic ``if``: ``fork()`` and ``assume(guard)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..ir.interp import Outcome
from ..smt import terms as T
from .symbolic import (S_HALT, S_IF, S_LOCAL, S_OUT, S_PC, S_REG, S_STORE,
                       S_TRAP)

__all__ = ["CONCRETE", "Outcome", "PathEnd", "drive"]


class PathEnd(Exception):
    """The current path cannot continue (a defect or a dead end)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


Paths = List[Tuple[Any, Outcome]]


class _ConcreteConfig:
    # The interpreter's total division semantics; no div-zero probe.
    check_div_zero = False


class _Concrete:
    """``E`` over an all-int state that is also a
    :class:`repro.ir.interp.MachineContext` with a ``pc`` attribute
    (the simulator's ``MachineState``): memory goes straight to the
    state and register indices are already ints.  Every condition is an
    int, so no ``if`` ever forks."""

    config = _ConcreteConfig()

    @staticmethod
    def _load(S, addr: int, size: int, guards, D) -> int:
        return S.load(addr, size)

    @staticmethod
    def _store(S, addr: int, value: int, size: int, D) -> None:
        S.store(addr, value, size)

    @staticmethod
    def _concrete_index(S, index: int, D) -> int:
        return index


CONCRETE = _Concrete()


def drive(E, S, stmts: tuple, FT: Dict[str, Any], D, outcome: Outcome,
          frames: Optional[List[Tuple[tuple, int]]] = None,
          L: Optional[Dict[str, Any]] = None) -> Paths:
    """Run the plan ``stmts`` on ``S``: one ``(state, outcome)`` per
    surviving path.  ``FT`` holds the decoded fields, ``D`` is the
    decoded instruction and ``outcome`` a fresh :class:`Outcome`.

    ``frames`` is the continuation stack of ``(statements, next index)``
    pairs.  A fork arm drives its body with its own copies of the
    continuation and the locals ``L``."""
    if frames is None:
        frames = []
    if L is None:
        L = {}
    index = 0
    while True:
        end = len(stmts)
        while index < end:
            st = stmts[index]
            index += 1
            tag = st[0]
            if tag == S_REG:
                spec = st[2]
                if spec is None:
                    reg = None
                elif spec[0] == "f":
                    reg = FT[spec[1]]
                elif spec[0] == "c":
                    reg = spec[1]
                else:
                    reg = E._concrete_index(S, spec[1](E, S, FT, L, D), D)
                fn = st[3]
                S.write_reg(st[1], reg, S.input_byte() if fn is None
                            else fn(E, S, FT, L, D))
            elif tag == S_IF:
                cond = st[1](E, S, FT, L, D)
                if index < end:
                    frames.append((stmts, index))
                if type(cond) is not int:
                    return _fork(E, S, st, cond, frames, L, outcome, FT, D)
                stmts = st[2] if cond == 1 else st[3]
                index = 0
                end = len(stmts)
            elif tag == S_LOCAL:
                fn = st[2]
                L[st[1]] = S.input_byte() if fn is None \
                    else fn(E, S, FT, L, D)
            elif tag == S_PC:
                outcome.next_pc = st[1](E, S, FT, L, D)
            elif tag == S_STORE:
                addr = st[1](E, S, FT, L, D)
                E._store(S, addr, st[2](E, S, FT, L, D), st[3], D)
            elif tag == S_OUT:
                S.output_byte(st[1](E, S, FT, L, D))
            elif tag == S_HALT:
                outcome.halted = True
                outcome.exit_code = st[1](E, S, FT, L, D)
                return [(S, outcome)]
            elif tag == S_TRAP:
                outcome.trapped = True
                outcome.trap_code = st[1](E, S, FT, L, D)
                return [(S, outcome)]
            else:  # pragma: no cover - plans are generated, tags total
                raise ValueError("unknown plan tag %r" % (tag,))
        if not frames:
            return [(S, outcome)]
        stmts, index = frames.pop()


def _fork(E, S, st: tuple, cond: T.Term, frames, L, outcome: Outcome,
          FT, D) -> Paths:
    """Both arms of an ``if`` on a symbolic ``cond``, then-arm first,
    each under its guard and on its own copy of the continuation."""
    guards = (cond, T.not_(cond))
    live = [(guard, body, verdict) for guard, body, verdict
            in zip(guards, (st[2], st[3]), E._feasible_arms(S, guards))
            if verdict is not None]
    results: Paths = []
    for position, (guard, body, verdict) in enumerate(live):
        branch = S if position == len(live) - 1 else S.fork()
        branch.assume(guard)
        E._enter_arm(branch, verdict)
        try:
            results.extend(drive(E, branch, body, FT, D, outcome.copy(),
                                 list(frames), dict(L)))
        except PathEnd as end:
            # This arm died (e.g. an OOB store); its siblings continue.
            E._dead_end(branch, end.reason)
    return results

