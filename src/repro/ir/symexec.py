"""Symbolic-state evaluation of IR blocks over a fully symbolic machine.

The reference-semantics half of the translation validator
(:mod:`repro.verify`): where :mod:`repro.ir.interp` executes one rule
over a *concrete* :class:`~repro.ir.interp.MachineContext`, this module
executes the same statements over terms — symbolic operand fields,
symbolic registers/memory/input supplied by a
:class:`SymbolicMachine` — and returns every feasible path's machine
state and outcome.

Semantics are the interpreter's, lifted bit-for-bit:

* arithmetic maps onto the :mod:`repro.smt.terms` constructors, whose
  division/shift edge cases mirror ``interp._apply_binop`` (both follow
  SMT-LIB),
* a constant-condition ``ite``/``if`` evaluates only the chosen arm
  (interpreter laziness), a symbolic one evaluates both arms — sound
  here because every machine read a :class:`SymbolicMachine` serves is
  pure (memoized pre-state variables), so the unchosen arm has no
  machine-visible effect,
* a symbolic ``if`` statement *forks*: each branch continues on its own
  machine copy under the branch guard, mirroring the engine's path
  enumeration (feasibility pruning is deliberately absent — the
  validator discharges infeasible path pairs during obligation
  matching instead),
* ``in()`` is only legal as a whole assignment right-hand side — the
  input discipline shared by the interpreter, engine and both codegens.

This module knows nothing about solvers or lint findings; it is the
``ir/`` entry point the validator builds on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..smt import terms as T
from . import nodes as N
from .interp import Outcome

__all__ = ["SymbolicMachine", "SymExecError", "exec_block"]


class SymExecError(Exception):
    """The block is not symbolically executable (malformed IR)."""


class SymbolicMachine:
    """Machine-state interface the symbolic evaluator drives.

    The validator's implementation (:mod:`repro.verify.state`) serves
    reads from a shared pre-state variable environment and records
    writes into per-path effect logs; any other implementation with
    this surface works.  ``index`` arguments are ``None`` for single
    registers, otherwise index *terms*.
    """

    def read_reg(self, regfile: str,
                 index: Optional[T.Term]) -> T.Term:
        raise NotImplementedError

    def write_reg(self, regfile: str, index: Optional[T.Term],
                  value: T.Term) -> None:
        raise NotImplementedError

    def load(self, addr: T.Term, size: int) -> T.Term:
        raise NotImplementedError

    def store(self, addr: T.Term, value: T.Term, size: int) -> None:
        raise NotImplementedError

    def input_byte(self) -> T.Term:
        raise NotImplementedError

    def output_byte(self, value: T.Term) -> None:
        raise NotImplementedError

    def pc(self, width: int) -> T.Term:
        raise NotImplementedError

    def fork(self) -> "SymbolicMachine":
        raise NotImplementedError


#: One finished path: (machine, outcome, guard terms along the path).
Path = Tuple[SymbolicMachine, Outcome, Tuple[T.Term, ...]]

_BINOPS = {
    "add": T.add, "sub": T.sub, "mul": T.mul, "udiv": T.udiv,
    "urem": T.urem, "sdiv": T.sdiv, "srem": T.srem, "and": T.and_,
    "or": T.or_, "xor": T.xor, "shl": T.shl, "lshr": T.lshr,
    "ashr": T.ashr, "eq": T.eq, "ne": T.ne, "ult": T.ult, "ule": T.ule,
    "ugt": T.ugt, "uge": T.uge, "slt": T.slt, "sle": T.sle,
    "sgt": T.sgt, "sge": T.sge,
}


def eval_expr(expr: N.Expr, machine: SymbolicMachine,
              fields: Dict[str, T.Term],
              local_values: Dict[str, T.Term]) -> T.Term:
    """Lift one expression to a term (mirrors ``interp.eval_expr``)."""
    if isinstance(expr, N.Const):
        return T.bv(expr.value, expr.width)
    if isinstance(expr, N.Field):
        try:
            return fields[expr.name]
        except KeyError:
            raise SymExecError("unknown field %r" % expr.name)
    if isinstance(expr, N.Local):
        try:
            return local_values[expr.name]
        except KeyError:
            raise SymExecError("local %r read before assignment"
                               % expr.name)
    if isinstance(expr, N.Pc):
        return machine.pc(expr.width)
    if isinstance(expr, N.ReadReg):
        index = None
        if expr.index is not None:
            index = eval_expr(expr.index, machine, fields, local_values)
        return machine.read_reg(expr.regfile, index)
    if isinstance(expr, N.Load):
        addr = eval_expr(expr.addr, machine, fields, local_values)
        return machine.load(addr, expr.size)
    if isinstance(expr, N.BinOp):
        left = eval_expr(expr.left, machine, fields, local_values)
        right = eval_expr(expr.right, machine, fields, local_values)
        return _BINOPS[expr.op](left, right)
    if isinstance(expr, N.UnOp):
        operand = eval_expr(expr.operand, machine, fields, local_values)
        if expr.op == "neg":
            return T.neg(operand)
        if expr.op in ("not", "boolnot"):
            return T.not_(operand)
        raise SymExecError("unknown unary op %r" % expr.op)
    if isinstance(expr, N.Ext):
        operand = eval_expr(expr.operand, machine, fields, local_values)
        extra = expr.width - operand.width
        return T.zext(operand, extra) if expr.kind == "zext" \
            else T.sext(operand, extra)
    if isinstance(expr, N.ExtractBits):
        operand = eval_expr(expr.operand, machine, fields, local_values)
        return T.extract(operand, expr.hi, expr.lo)
    if isinstance(expr, N.ConcatBits):
        hi_part = eval_expr(expr.hi_part, machine, fields, local_values)
        lo_part = eval_expr(expr.lo_part, machine, fields, local_values)
        return T.concat(hi_part, lo_part)
    if isinstance(expr, N.IteExpr):
        cond = eval_expr(expr.cond, machine, fields, local_values)
        if cond.is_const():
            chosen = expr.then if cond.value == 1 else expr.other
            return eval_expr(chosen, machine, fields, local_values)
        then = eval_expr(expr.then, machine, fields, local_values)
        other = eval_expr(expr.other, machine, fields, local_values)
        return T.ite(cond, then, other)
    if isinstance(expr, N.InputByte):
        raise SymExecError(
            "in() may only be the entire right-hand side of an "
            "assignment (input discipline, repro.adl.translate)")
    raise SymExecError("unknown IR expression %r" % (expr,))


def exec_block(stmts, machine: SymbolicMachine,
               fields: Dict[str, T.Term]) -> List[Path]:
    """Execute one rule's statements; returns every path's
    ``(machine, outcome, guards)``."""
    return _run(machine, [(tuple(stmts), 0)], {}, Outcome(), (),
                fields)


def _run(machine: SymbolicMachine, frames, local_values,
         outcome: Outcome, guards: Tuple[T.Term, ...],
         fields: Dict[str, T.Term]) -> List[Path]:
    while frames:
        stmts, index = frames[-1]
        if index >= len(stmts):
            frames.pop()
            continue
        frames[-1] = (stmts, index + 1)
        stmt = stmts[index]
        if isinstance(stmt, N.SetLocal):
            local_values[stmt.name] = _rhs(stmt.value, machine, fields,
                                           local_values)
        elif isinstance(stmt, N.SetReg):
            reg_index = None
            if stmt.index is not None:
                reg_index = eval_expr(stmt.index, machine, fields,
                                      local_values)
            value = _rhs(stmt.value, machine, fields, local_values)
            machine.write_reg(stmt.regfile, reg_index, value)
        elif isinstance(stmt, N.SetPc):
            outcome.next_pc = eval_expr(stmt.value, machine, fields,
                                        local_values)
        elif isinstance(stmt, N.Store):
            addr = eval_expr(stmt.addr, machine, fields, local_values)
            value = eval_expr(stmt.value, machine, fields, local_values)
            machine.store(addr, value, stmt.size)
        elif isinstance(stmt, N.Output):
            machine.output_byte(eval_expr(stmt.value, machine, fields,
                                          local_values))
        elif isinstance(stmt, N.Halt):
            outcome.halted = True
            outcome.exit_code = eval_expr(stmt.code, machine, fields,
                                          local_values)
            return [(machine, outcome, guards)]
        elif isinstance(stmt, N.Trap):
            outcome.trapped = True
            outcome.trap_code = eval_expr(stmt.code, machine, fields,
                                          local_values)
            return [(machine, outcome, guards)]
        elif isinstance(stmt, N.IfStmt):
            cond = eval_expr(stmt.cond, machine, fields, local_values)
            if cond.is_const():
                body = stmt.then_body if cond.value == 1 \
                    else stmt.else_body
                if body:
                    frames.append((tuple(body), 0))
                continue
            return _fork(machine, stmt, cond, frames, local_values,
                         outcome, guards, fields)
        else:
            raise SymExecError("unknown IR statement %r" % (stmt,))
    return [(machine, outcome, guards)]


def _fork(machine: SymbolicMachine, stmt: N.IfStmt, cond: T.Term,
          frames, local_values, outcome: Outcome,
          guards: Tuple[T.Term, ...],
          fields: Dict[str, T.Term]) -> List[Path]:
    results: List[Path] = []
    branches = ((cond, stmt.then_body), (T.not_(cond), stmt.else_body))
    for position, (branch_cond, body) in enumerate(branches):
        last = position == len(branches) - 1
        branch_machine = machine if last else machine.fork()
        branch_frames = [(block, idx) for block, idx in frames]
        if body:
            branch_frames.append((tuple(body), 0))
        results.extend(_run(branch_machine, branch_frames,
                            dict(local_values), outcome.copy(),
                            guards + (branch_cond,), fields))
    return results


def _rhs(value: N.Expr, machine: SymbolicMachine,
         fields: Dict[str, T.Term],
         local_values: Dict[str, T.Term]) -> T.Term:
    """Assignment right-hand side — the one place ``in()`` is legal."""
    if isinstance(value, N.InputByte):
        return machine.input_byte()
    return eval_expr(value, machine, fields, local_values)
