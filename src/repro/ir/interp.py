"""Concrete interpretation of IR blocks.

This is the *concrete* twin of the symbolic executor: the same IR, evaluated
over Python integers.  It backs the ISA simulator
(:mod:`repro.isa.simulator`), differential testing of the generated
semantics, and the cross-ISA replay experiment (Figure 3).

The interpreter is decoupled from any particular machine through the
:class:`MachineContext` protocol; anything that can read/write registers and
memory and provide input bytes can execute IR.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from . import nodes as N

__all__ = ["MachineContext", "Outcome", "exec_block", "eval_expr"]


def _mask(width: int) -> int:
    return (1 << width) - 1


def _to_signed(value: int, width: int) -> int:
    sign = 1 << (width - 1)
    return (value & _mask(width)) - ((value & sign) << 1)


class MachineContext:
    """The machine-side interface the interpreter drives.

    Subclasses (the concrete simulator) implement register/memory access,
    input/output, and receive control effects.  All values are unsigned
    Python ints already masked to their width.
    """

    def read_reg(self, regfile: str, index) -> int:
        raise NotImplementedError

    def write_reg(self, regfile: str, index, value: int) -> None:
        raise NotImplementedError

    def load(self, addr: int, size: int) -> int:
        raise NotImplementedError

    def store(self, addr: int, value: int, size: int) -> None:
        raise NotImplementedError

    def input_byte(self) -> int:
        raise NotImplementedError

    def output_byte(self, value: int) -> None:
        raise NotImplementedError

    def current_pc(self) -> int:
        raise NotImplementedError


class Outcome:
    """Control effects of one path through an instruction: what the
    interpreter, the symbolic reference evaluator
    (:mod:`repro.ir.symexec`) and the plan driver
    (:mod:`repro.compile.driver`) report.  Codes are ``None`` unless the
    path halted or trapped.  The defaults are class attributes, so a
    fresh outcome costs no Python call."""

    next_pc: Any = None        # None: fall through
    halted = False
    exit_code: Any = None
    trapped = False
    trap_code: Any = None

    def copy(self) -> "Outcome":
        clone = Outcome()
        clone.next_pc = self.next_pc
        clone.halted = self.halted
        clone.exit_code = self.exit_code
        clone.trapped = self.trapped
        clone.trap_code = self.trap_code
        return clone


def eval_expr(expr: N.Expr, ctx: MachineContext, fields: Dict[str, int],
              local_values: Dict[str, int]) -> int:
    """Evaluate one IR expression to an unsigned integer."""
    if isinstance(expr, N.Const):
        return expr.value
    if isinstance(expr, N.Field):
        return fields[expr.name] & _mask(expr.width)
    if isinstance(expr, N.Local):
        return local_values[expr.name]
    if isinstance(expr, N.Pc):
        return ctx.current_pc() & _mask(expr.width)
    if isinstance(expr, N.InputByte):
        # Input is a *side effect* (it advances the input cursor), so
        # it may only appear as the whole right-hand side of an
        # assignment, where evaluation order is unambiguous — exactly
        # the discipline the translator enforces and the symbolic
        # engine assumes.  Accepting it in a nested position here
        # would let concrete and symbolic execution diverge on when
        # the cursor moves.
        raise ValueError(
            "in() must be a whole right-hand side (translator bug)")
    if isinstance(expr, N.ReadReg):
        index = (eval_expr(expr.index, ctx, fields, local_values)
                 if expr.index is not None else None)
        return ctx.read_reg(expr.regfile, index) & _mask(expr.width)
    if isinstance(expr, N.Load):
        addr = eval_expr(expr.addr, ctx, fields, local_values)
        return ctx.load(addr, expr.size) & _mask(expr.width)
    if isinstance(expr, N.BinOp):
        left = eval_expr(expr.left, ctx, fields, local_values)
        right = eval_expr(expr.right, ctx, fields, local_values)
        return _apply_binop(expr.op, left, right, expr.left.width)
    if isinstance(expr, N.UnOp):
        operand = eval_expr(expr.operand, ctx, fields, local_values)
        if expr.op == "not":
            return ~operand & _mask(expr.width)
        if expr.op == "neg":
            return -operand & _mask(expr.width)
        if expr.op == "boolnot":
            return 1 - (operand & 1)
        raise ValueError("unknown unary op %r" % expr.op)
    if isinstance(expr, N.Ext):
        operand = eval_expr(expr.operand, ctx, fields, local_values)
        if expr.kind == "zext":
            return operand
        return _to_signed(operand, expr.operand.width) \
            & _mask(expr.width)
    if isinstance(expr, N.ExtractBits):
        operand = eval_expr(expr.operand, ctx, fields, local_values)
        return (operand >> expr.lo) & _mask(expr.hi - expr.lo + 1)
    if isinstance(expr, N.ConcatBits):
        hi = eval_expr(expr.hi_part, ctx, fields, local_values)
        lo = eval_expr(expr.lo_part, ctx, fields, local_values)
        return (hi << expr.lo_part.width) | lo
    if isinstance(expr, N.IteExpr):
        cond = eval_expr(expr.cond, ctx, fields, local_values)
        branch = expr.then if cond == 1 else expr.other
        return eval_expr(branch, ctx, fields, local_values)
    raise ValueError("unknown expression node %r" % (expr,))


def _apply_binop(op: str, left: int, right: int, width: int) -> int:
    top = _mask(width)
    if op == "add":
        return (left + right) & top
    if op == "sub":
        return (left - right) & top
    if op == "mul":
        return (left * right) & top
    if op == "udiv":
        return top if right == 0 else left // right
    if op == "urem":
        return left if right == 0 else left % right
    if op == "sdiv":
        sl, sr = _to_signed(left, width), _to_signed(right, width)
        if sr == 0:
            return 1 if sl < 0 else top
        quotient = abs(sl) // abs(sr)
        if (sl < 0) != (sr < 0):
            quotient = -quotient
        return quotient & top
    if op == "srem":
        sl, sr = _to_signed(left, width), _to_signed(right, width)
        if sr == 0:
            return left
        remainder = abs(sl) % abs(sr)
        if sl < 0:
            remainder = -remainder
        return remainder & top
    if op == "and":
        return left & right
    if op == "or":
        return left | right
    if op == "xor":
        return left ^ right
    if op == "shl":
        return (left << right) & top if right < width else 0
    if op == "lshr":
        return left >> right if right < width else 0
    if op == "ashr":
        shift = min(right, width - 1)
        return (_to_signed(left, width) >> shift) & top
    if op == "eq":
        return 1 if left == right else 0
    if op == "ne":
        return 1 if left != right else 0
    if op == "ult":
        return 1 if left < right else 0
    if op == "ule":
        return 1 if left <= right else 0
    if op == "ugt":
        return 1 if left > right else 0
    if op == "uge":
        return 1 if left >= right else 0
    if op == "slt":
        return 1 if _to_signed(left, width) < _to_signed(right, width) else 0
    if op == "sle":
        return 1 if _to_signed(left, width) <= _to_signed(right, width) else 0
    if op == "sgt":
        return 1 if _to_signed(left, width) > _to_signed(right, width) else 0
    if op == "sge":
        return 1 if _to_signed(left, width) >= _to_signed(right, width) else 0
    raise ValueError("unknown binary op %r" % op)


def exec_block(stmts: Sequence[N.Stmt], ctx: MachineContext,
               fields: Dict[str, int]) -> Outcome:
    """Execute one instruction's IR block concretely."""
    outcome = Outcome()
    local_values: Dict[str, int] = {}
    _exec_stmts(stmts, ctx, fields, local_values, outcome)
    return outcome


def _exec_stmts(stmts, ctx, fields, local_values, outcome) -> None:
    for stmt in stmts:
        if outcome.halted or outcome.trapped:
            return
        if isinstance(stmt, N.SetLocal):
            # in() is only legal as a whole RHS (see eval_expr); handle it
            # at the statement level so the side effect has one fixed spot.
            if isinstance(stmt.value, N.InputByte):
                local_values[stmt.name] = ctx.input_byte() & 0xff
            else:
                local_values[stmt.name] = eval_expr(
                    stmt.value, ctx, fields, local_values)
        elif isinstance(stmt, N.SetReg):
            index = (eval_expr(stmt.index, ctx, fields, local_values)
                     if stmt.index is not None else None)
            if isinstance(stmt.value, N.InputByte):
                value = ctx.input_byte() & 0xff
            else:
                value = eval_expr(stmt.value, ctx, fields, local_values)
            ctx.write_reg(stmt.regfile, index, value)
        elif isinstance(stmt, N.SetPc):
            outcome.next_pc = eval_expr(stmt.value, ctx, fields,
                                        local_values)
        elif isinstance(stmt, N.Store):
            addr = eval_expr(stmt.addr, ctx, fields, local_values)
            value = eval_expr(stmt.value, ctx, fields, local_values)
            ctx.store(addr, value, stmt.size)
        elif isinstance(stmt, N.Output):
            ctx.output_byte(eval_expr(stmt.value, ctx, fields,
                                      local_values) & 0xff)
        elif isinstance(stmt, N.Halt):
            outcome.halted = True
            outcome.exit_code = eval_expr(stmt.code, ctx, fields,
                                          local_values)
        elif isinstance(stmt, N.Trap):
            outcome.trapped = True
            outcome.trap_code = eval_expr(stmt.code, ctx, fields,
                                          local_values)
        elif isinstance(stmt, N.IfStmt):
            cond = eval_expr(stmt.cond, ctx, fields, local_values)
            body = stmt.then_body if cond == 1 else stmt.else_body
            _exec_stmts(body, ctx, fields, local_values, outcome)
        else:
            raise ValueError("unknown statement node %r" % (stmt,))
