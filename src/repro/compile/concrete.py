"""Concrete codegen: IR blocks -> specialized Python transfer functions.

Each translated rule (a tuple of :mod:`repro.ir.nodes` statements) is
lowered, the first time it is looked up, into a generated Python
function

    def _c_add(C, F, O): ...

where ``C`` is a :class:`repro.ir.interp.MachineContext`, ``F`` the raw
decoded field dict and ``O`` the :class:`repro.ir.interp.ExecOutcome` to
fill in.  The generated body is straight-line Python with

* operand field extraction hoisted and constant-folded (``F['rs1'] &
  0x1f`` computed once per call, masks resolved at generation time),
* all widths/masks/shift amounts burned in as literals,
* fully-constant subtrees folded at generation time *through the
  reference interpreter itself* (:func:`repro.ir.interp._apply_binop`
  and friends), so folding cannot drift from interpreted semantics,
* rare edge-case operators (division, variable shifts) delegated to
  tiny helpers that replicate ``interp._apply_binop`` exactly.

The equivalence contract is bit-for-bit: for any machine context and
field assignment, the generated function must leave the machine in
exactly the state :func:`repro.ir.interp.exec_block` would — including
evaluation order of every machine-visible effect (loads, stores, input,
output, register writes).  ``tests/compile`` holds the differential and
property harnesses that enforce this.

Like the interpreter (and the symbolic engine), ``in()`` is only legal
as the *entire* right-hand side of an assignment — the input discipline
documented in :mod:`repro.adl.translate`.  Nested ``InputByte`` is a
:class:`CompileError` at generation time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..ir import interp
from ..ir import nodes as N
from .errors import CompileError

__all__ = ["compile_block", "rule_function", "module_source"]


def _mask(width: int) -> int:
    return (1 << width) - 1


# -- helpers available to generated code -------------------------------------
#
# Each replicates one `interp._apply_binop` edge case verbatim.  They are
# injected into the generated module's namespace, never re-generated.

def _udiv(left: int, right: int, top: int) -> int:
    return top if right == 0 else left // right


def _urem(left: int, right: int) -> int:
    return left if right == 0 else left % right


def _sdiv(left: int, right: int, width: int) -> int:
    return interp._apply_binop("sdiv", left, right, width)


def _srem(left: int, right: int, width: int) -> int:
    return interp._apply_binop("srem", left, right, width)


def _shl(left: int, right: int, width: int, top: int) -> int:
    return (left << right) & top if right < width else 0


def _lshr(left: int, right: int, width: int) -> int:
    return left >> right if right < width else 0


def _ashr(left: int, right: int, width: int, top: int) -> int:
    shift = min(right, width - 1)
    return (interp._to_signed(left, width) >> shift) & top


_HELPERS = {
    "_udiv": _udiv, "_urem": _urem, "_sdiv": _sdiv, "_srem": _srem,
    "_shl": _shl, "_lshr": _lshr, "_ashr": _ashr,
}


# -- constant folding ---------------------------------------------------------

_DYNAMIC = (N.Field, N.Local, N.Pc, N.ReadReg, N.Load, N.InputByte)


def _fold(expr: N.Expr) -> Optional[int]:
    """Value of a machine-independent subtree, or None.

    Folding is delegated to the reference interpreter's own arithmetic
    (``_apply_binop`` / ``_to_signed``) so a generated literal can never
    disagree with what interpretation would have computed.
    """
    if isinstance(expr, N.Const):
        return expr.value
    if isinstance(expr, _DYNAMIC):
        return None
    if isinstance(expr, N.BinOp):
        left, right = _fold(expr.left), _fold(expr.right)
        if left is None or right is None:
            return None
        return interp._apply_binop(expr.op, left, right, expr.left.width)
    if isinstance(expr, N.UnOp):
        operand = _fold(expr.operand)
        if operand is None:
            return None
        if expr.op == "not":
            return ~operand & _mask(expr.width)
        if expr.op == "neg":
            return -operand & _mask(expr.width)
        if expr.op == "boolnot":
            return 1 - (operand & 1)
        raise CompileError("unknown unary op %r" % expr.op)
    if isinstance(expr, N.Ext):
        operand = _fold(expr.operand)
        if operand is None:
            return None
        if expr.kind == "zext":
            return operand
        return interp._to_signed(operand, expr.operand.width) \
            & _mask(expr.width)
    if isinstance(expr, N.ExtractBits):
        operand = _fold(expr.operand)
        if operand is None:
            return None
        return (operand >> expr.lo) & _mask(expr.hi - expr.lo + 1)
    if isinstance(expr, N.ConcatBits):
        hi, lo = _fold(expr.hi_part), _fold(expr.lo_part)
        if hi is None or lo is None:
            return None
        return (hi << expr.lo_part.width) | lo
    if isinstance(expr, N.IteExpr):
        cond = _fold(expr.cond)
        if cond is None:
            return None
        return _fold(expr.then if cond == 1 else expr.other)
    return None


class _FunctionEmitter:
    """Emits one generated transfer function's source."""

    def __init__(self, name: str):
        self.name = name
        self.lines: List[str] = []
        self.indent = 1
        self._temp = 0
        # (field name, width) -> hoisted local name
        self.fields: Dict[Tuple[str, int], str] = {}

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def temp(self) -> str:
        self._temp += 1
        return "_w%d" % self._temp

    def field_local(self, name: str, width: int) -> str:
        local = self.fields.get((name, width))
        if local is None:
            local = "_f%d" % len(self.fields)
            self.fields[(name, width)] = local
        return local

    # -- expressions ---------------------------------------------------------

    def expr(self, expr: N.Expr) -> str:
        """Render ``expr`` as a pure Python expression string.

        Every rendered subexpression is already masked to its IR width
        (the invariant the interpreter maintains dynamically), and every
        operand is evaluated exactly once (walrus temps for reuse).
        """
        folded = _fold(expr)
        if folded is not None or isinstance(expr, N.Const):
            return str(folded if folded is not None else expr.value)
        if isinstance(expr, N.Field):
            return self.field_local(expr.name, expr.width)
        if isinstance(expr, N.Local):
            return "u_" + expr.name
        if isinstance(expr, N.Pc):
            return "(C.current_pc() & %#x)" % _mask(expr.width)
        if isinstance(expr, N.InputByte):
            raise CompileError(
                "in() may only be the entire right-hand side of an "
                "assignment (input discipline, repro.adl.translate)")
        if isinstance(expr, N.ReadReg):
            index = "None" if expr.index is None else self.expr(expr.index)
            return "(C.read_reg(%r, %s) & %#x)" % (
                expr.regfile, index, _mask(expr.width))
        if isinstance(expr, N.Load):
            return "(C.load(%s, %d) & %#x)" % (
                self.expr(expr.addr), expr.size, _mask(expr.width))
        if isinstance(expr, N.BinOp):
            return self._binop(expr)
        if isinstance(expr, N.UnOp):
            operand = self.expr(expr.operand)
            if expr.op == "not":
                return "((~%s) & %#x)" % (operand, _mask(expr.width))
            if expr.op == "neg":
                return "((-%s) & %#x)" % (operand, _mask(expr.width))
            if expr.op == "boolnot":
                return "(1 - (%s & 1))" % operand
            raise CompileError("unknown unary op %r" % expr.op)
        if isinstance(expr, N.Ext):
            operand = self.expr(expr.operand)
            if expr.kind == "zext":
                return operand
            return self._signed_masked(operand, expr.operand.width,
                                       expr.width)
        if isinstance(expr, N.ExtractBits):
            operand = self.expr(expr.operand)
            top = _mask(expr.hi - expr.lo + 1)
            if expr.lo == 0:
                return "(%s & %#x)" % (operand, top)
            return "((%s >> %d) & %#x)" % (operand, expr.lo, top)
        if isinstance(expr, N.ConcatBits):
            hi = self.expr(expr.hi_part)
            lo = self.expr(expr.lo_part)
            return "((%s << %d) | %s)" % (hi, expr.lo_part.width, lo)
        if isinstance(expr, N.IteExpr):
            cond = self.expr(expr.cond)
            then = self.expr(expr.then)
            other = self.expr(expr.other)
            # Lazy, like the interpreter: only the chosen arm runs.
            return "(%s if %s else %s)" % (then, cond, other)
        raise CompileError("unknown IR expression %r" % (expr,))

    def _signed(self, rendered: str, width: int) -> str:
        """Two's-complement reinterpretation, operand evaluated once."""
        sign = 1 << (width - 1)
        temp = self.temp()
        return "((%s := %s) - ((%s & %#x) << 1))" % (
            temp, rendered, temp, sign)

    def _signed_masked(self, rendered: str, width: int,
                       result_width: int) -> str:
        return "(%s & %#x)" % (self._signed(rendered, width),
                               _mask(result_width))

    def _signed_operand(self, expr: N.Expr) -> str:
        """Signed value of an operand, folding constants at gen time."""
        folded = _fold(expr)
        if folded is not None:
            return str(interp._to_signed(folded, expr.width))
        return self._signed(self.expr(expr), expr.width)

    _SIGNED_CMP = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
    _UNSIGNED_CMP = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
                     "ugt": ">", "uge": ">="}

    def _binop(self, expr: N.BinOp) -> str:
        op = expr.op
        width = expr.left.width
        top = _mask(width)
        if op in ("add", "sub", "mul"):
            sign = {"add": "+", "sub": "-", "mul": "*"}[op]
            return "((%s %s %s) & %#x)" % (
                self.expr(expr.left), sign, self.expr(expr.right), top)
        if op in ("and", "or", "xor"):
            sign = {"and": "&", "or": "|", "xor": "^"}[op]
            return "(%s %s %s)" % (
                self.expr(expr.left), sign, self.expr(expr.right))
        if op in self._UNSIGNED_CMP:
            return "(1 if %s %s %s else 0)" % (
                self.expr(expr.left), self._UNSIGNED_CMP[op],
                self.expr(expr.right))
        if op in self._SIGNED_CMP:
            return "(1 if %s %s %s else 0)" % (
                self._signed_operand(expr.left), self._SIGNED_CMP[op],
                self._signed_operand(expr.right))
        if op in ("shl", "lshr", "ashr"):
            return self._shift(expr, width, top)
        if op == "udiv":
            return "_udiv(%s, %s, %#x)" % (
                self.expr(expr.left), self.expr(expr.right), top)
        if op == "urem":
            return "_urem(%s, %s)" % (
                self.expr(expr.left), self.expr(expr.right))
        if op in ("sdiv", "srem"):
            return "_%s(%s, %s, %d)" % (
                op, self.expr(expr.left), self.expr(expr.right), width)
        raise CompileError("unknown binary op %r" % op)

    def _shift(self, expr: N.BinOp, width: int, top: int) -> str:
        amount = _fold(expr.right)
        if amount is None:
            helper = {"shl": "_shl(%s, %s, %d, %#x)",
                      "lshr": "_lshr(%s, %s, %d)",
                      "ashr": "_ashr(%s, %s, %d, %#x)"}[expr.op]
            args = (self.expr(expr.left), self.expr(expr.right), width)
            if expr.op != "lshr":
                args += (top,)
            return helper % args
        # Shift amount known at generation time: specialize fully.
        if expr.op == "shl":
            if amount >= width:
                return "0"
            return "((%s << %d) & %#x)" % (self.expr(expr.left), amount, top)
        if expr.op == "lshr":
            if amount >= width:
                return "0"
            if amount == 0:
                return self.expr(expr.left)
            return "(%s >> %d)" % (self.expr(expr.left), amount)
        shift = min(amount, width - 1)
        return "((%s >> %d) & %#x)" % (
            self._signed(self.expr(expr.left), width), shift, top)

    # -- statements ----------------------------------------------------------

    def block(self, stmts) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, stmt: N.Stmt) -> None:
        if isinstance(stmt, N.SetLocal):
            self.emit("u_%s = %s" % (stmt.name, self._rhs(stmt.value)))
        elif isinstance(stmt, N.SetReg):
            index = "None" if stmt.index is None else self.expr(stmt.index)
            # Argument order = interpreter order: index before value.
            self.emit("C.write_reg(%r, %s, %s)" % (
                stmt.regfile, index, self._rhs(stmt.value)))
        elif isinstance(stmt, N.SetPc):
            self.emit("O.next_pc = %s" % self.expr(stmt.value))
        elif isinstance(stmt, N.Store):
            self.emit("C.store(%s, %s, %d)" % (
                self.expr(stmt.addr), self.expr(stmt.value), stmt.size))
        elif isinstance(stmt, N.Output):
            self.emit("C.output_byte(%s & 0xff)" % self.expr(stmt.value))
        elif isinstance(stmt, N.Halt):
            self.emit("O.halted = True")
            self.emit("O.exit_code = %s" % self.expr(stmt.code))
            self.emit("return")
        elif isinstance(stmt, N.Trap):
            self.emit("O.trapped = True")
            self.emit("O.trap_code = %s" % self.expr(stmt.code))
            self.emit("return")
        elif isinstance(stmt, N.IfStmt):
            folded = _fold(stmt.cond)
            if folded is not None:
                self.block(stmt.then_body if folded == 1
                           else stmt.else_body)
                return
            self.emit("if %s:" % self.expr(stmt.cond))
            self.indent += 1
            if stmt.then_body:
                self.block(stmt.then_body)
            else:
                self.emit("pass")
            self.indent -= 1
            if stmt.else_body:
                self.emit("else:")
                self.indent += 1
                self.block(stmt.else_body)
                self.indent -= 1
        else:
            raise CompileError("unknown IR statement %r" % (stmt,))

    def _rhs(self, value: N.Expr) -> str:
        # The one place InputByte is legal: a whole assignment RHS.
        if isinstance(value, N.InputByte):
            return "(C.input_byte() & 0xff)"
        return self.expr(value)

    # -- assembly ------------------------------------------------------------

    def source(self) -> str:
        header = ["def %s(C, F, O):" % self.name]
        for (name, width), local in self.fields.items():
            header.append("    %s = F[%r] & %#x" % (local, name,
                                                    _mask(width)))
        body = self.lines or ["    pass"]
        return "\n".join(header + body)


def _function(name: str, stmts, filename: str) -> Tuple[Any, str]:
    """Generate, compile and exec one function: ``(fn, source)``."""
    emitter = _FunctionEmitter(name)
    emitter.block(stmts)
    source = emitter.source()
    namespace = dict(_HELPERS)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name], source


def compile_block(name: str, stmts) -> Any:
    """Compile one IR block into a callable ``fn(ctx, fields, outcome)``.

    The unit-level entry point (tests, tooling); model-level callers go
    through :func:`repro.compile.compiled_for`.
    """
    fn, source = _function("_fn", stmts, "<repro.compile:%s>" % name)
    fn.__name__ = "compiled_" + name
    fn.__qualname__ = fn.__name__
    fn.generated_source = source
    return fn


def rule_function(isa: str, instr) -> Tuple[Any, str]:
    """Generate one rule's concrete transfer function: ``(fn, source)``,
    ``source`` being the exact text executed to build ``fn``."""
    name = "_c_%s" % instr.name
    try:
        return _function(name, instr.semantics,
                         "<repro.compile:%s:%s>" % (isa, name))
    except CompileError as error:
        raise CompileError("%s: rule %r: %s" % (isa, instr.name, error))


def module_source(isa: str, rows: List[Tuple[str, str]]) -> str:
    """One module from per-rule ``(name, source)`` rows, with a
    ``CONCRETE`` table (rule name -> transfer function)."""
    chunks = ["# generated by repro.compile — concrete semantics for %r"
              % isa]
    for name, source in rows:
        chunks.extend(["# rule %r" % name, source])
    chunks.append("CONCRETE = {\n%s\n}" % "\n".join(
        "    %r: _c_%s," % (name, name) for name, _source in rows))
    return "\n\n".join(chunks) + "\n"
