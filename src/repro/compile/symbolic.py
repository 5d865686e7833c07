"""Plan codegen: IR blocks -> specialized mixed int/term plans.

Each rule is lowered into a *plan*: a nested tuple tree of tagged
statements whose expression slots are generated Python functions

    def _s_add_0(E, S, FT, L, D): ...

(``E`` the machine's policy, ``S`` its state, ``FT`` the decoded
operand fields, ``L`` locals dict, ``D`` decoded) returning a value: an
``int`` while it is concrete, a :class:`repro.smt.terms.Term` once it is
symbolic.  One plan driver (:func:`repro.compile.driver.drive`) walks the
statement tuples for the engine, the translation validator and the
concrete simulator alike; the generated bodies compute the values:

* each IR node became one call into the operator library
  :mod:`repro.compile.ops` with its widths as literals, so concrete
  operands stay masked ints and symbolic ones build exactly the terms
  the ``T`` constructors build, with no isinstance dispatch on IR nodes,
* ``Const`` is an int literal, ``Field`` the decoded int itself
  (``FT['rs1']``), ``Pc`` the state's pc masked to its width,
* guard tuples for expression-``ite`` arms are threaded to the
  machine's callbacks (``E._load``, ``E._check_div``,
  ``E._concrete_index``).

Evaluation order is the IR's, as :mod:`repro.ir.interp` and
:mod:`repro.ir.symexec` have it: operands left to right, a register
write's index before its value (the driver resolves the index), a
division's operands before its div-zero check, and only the chosen arm
of an ``ite`` whose condition is an int.  On an all-int state a plan is
therefore a concrete transfer function.  Translation validation
(:mod:`repro.verify`) runs the emitted source unchanged, through the
same driver, and proves every plan equal to its rule's IR.

Term construction happens at run time, never at generation time: the
term pool is swappable (``terms.set_pool``), so a digest-keyed
cross-engine cache must not bake ``Term`` objects in.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..ir import nodes as N
from .errors import CompileError
from .ops import OPS

__all__ = ["rule_plan", "plan_name", "module_source",
           "S_LOCAL", "S_REG", "S_PC", "S_STORE", "S_OUT", "S_HALT",
           "S_TRAP", "S_IF"]

# Plan statement tags (first tuple element).  A ``None`` value function
# reads the next input byte: ``in()`` is always a whole right-hand side.
S_LOCAL = 0      # (tag, name, fn)
S_REG = 1        # (tag, regfile, index_spec, fn)
S_PC = 2         # (tag, fn)
S_STORE = 3      # (tag, addr_fn, value_fn, size)
S_OUT = 4        # (tag, fn)
S_HALT = 5       # (tag, fn)
S_TRAP = 6       # (tag, fn)
S_IF = 7         # (tag, cond_fn, then_plan, else_plan)

# index_spec forms for S_REG:
#   None               single register (regfile is a plain register)
#   ("f", field_name)  index comes from an encoding field: FT[name]
#   ("c", value)       constant index, resolved at generation time
#   ("e", fn)          general expression: eval + E._concrete_index

#: IR binary op -> its operator's name in :data:`repro.compile.ops.OPS`.
_OP_NAMES = {
    "add": "add", "sub": "sub", "mul": "mul",
    "udiv": "udiv", "urem": "urem", "sdiv": "sdiv", "srem": "srem",
    "and": "and_", "or": "or_", "xor": "xor",
    "shl": "shl", "lshr": "lshr", "ashr": "ashr",
    "eq": "eq", "ne": "ne", "ult": "ult", "ule": "ule",
    "ugt": "ugt", "uge": "uge", "slt": "slt", "sle": "sle",
    "sgt": "sgt", "sge": "sge",
}

_DIV_OPS = frozenset({"udiv", "urem", "sdiv", "srem"})


def _emits_statements(expr: N.Expr) -> bool:
    """Whether rendering ``expr`` emits statement lines (not pure inline).

    Used for operand ordering: when a *right* operand emits statements,
    the left operand must be materialized into a temp first, or the
    right operand's effects (solver checks, loads) would run before the
    left operand evaluates.
    """
    if isinstance(expr, N.IteExpr):
        return True
    if isinstance(expr, N.BinOp):
        return (expr.op in _DIV_OPS or _emits_statements(expr.left)
                or _emits_statements(expr.right))
    if isinstance(expr, N.ReadReg):
        if expr.index is None or isinstance(expr.index, (N.Field, N.Const)):
            return False
        return True
    if isinstance(expr, (N.UnOp, N.Ext, N.ExtractBits)):
        return _emits_statements(expr.operand)
    if isinstance(expr, N.ConcatBits):
        return (_emits_statements(expr.hi_part)
                or _emits_statements(expr.lo_part))
    if isinstance(expr, N.Load):
        return _emits_statements(expr.addr)
    return False


class _SymEmitter:
    """Emits one generated expression function's source."""

    def __init__(self, name: str):
        self.lines: List[str] = ["def %s(E, S, FT, L, D):" % name]
        self.indent = 1
        self._temp = 0
        self._guard = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def temp(self) -> str:
        self._temp += 1
        return "_t%d" % self._temp

    def guard_name(self) -> str:
        self._guard += 1
        return "_g%d" % self._guard

    # ``guards`` below is a *source-level* expression string for the
    # current guard tuple — "()" at statement level, growing by the
    # arm condition inside each symbolic ite arm.

    def expr(self, expr: N.Expr, guards: str) -> str:
        if isinstance(expr, N.Const):
            return str(expr.value)
        if isinstance(expr, N.Field):
            return "FT[%r]" % expr.name
        if isinstance(expr, N.Local):
            return "L[%r]" % expr.name
        if isinstance(expr, N.Pc):
            return "pc(S.pc, %d)" % expr.width
        if isinstance(expr, N.InputByte):
            raise CompileError(
                "in() may only be the entire right-hand side of an "
                "assignment (input discipline, repro.adl.translate)")
        if isinstance(expr, N.ReadReg):
            return "S.read_reg(%r, %s)" % (
                expr.regfile, self._index(expr.index, guards))
        if isinstance(expr, N.Load):
            addr = self.expr(expr.addr, guards)
            return "E._load(S, %s, %d, %s, D)" % (addr, expr.size, guards)
        if isinstance(expr, N.BinOp):
            if expr.op in _DIV_OPS:
                # Both operands materialize in order, then the div-zero
                # check runs *before* the op term is built.
                left_t = self.temp()
                self.emit("%s = %s" % (left_t, self.expr(expr.left,
                                                         guards)))
                right_t = self.temp()
                self.emit("%s = %s" % (right_t, self.expr(expr.right,
                                                          guards)))
                self.emit("if E.config.check_div_zero:")
                self.emit("    E._check_div(S, %s, %s, D)"
                          % (right_t, guards))
                return "%s(%s, %s, %d)" % (_OP_NAMES[expr.op], left_t,
                                           right_t, expr.left.width)
            left = self.expr(expr.left, guards)
            if _emits_statements(expr.right):
                left_t = self.temp()
                self.emit("%s = %s" % (left_t, left))
                left = left_t
            right = self.expr(expr.right, guards)
            return "%s(%s, %s, %d)" % (_OP_NAMES[expr.op], left, right,
                                       expr.left.width)
        if isinstance(expr, N.UnOp):
            operand = self.expr(expr.operand, guards)
            if expr.op in ("not", "boolnot"):
                return "not_(%s, %d)" % (operand, expr.operand.width)
            if expr.op == "neg":
                return "neg(%s, %d)" % (operand, expr.operand.width)
            raise CompileError("unknown unary op %r" % expr.op)
        if isinstance(expr, N.Ext):
            operand = self.expr(expr.operand, guards)
            extra = expr.width - expr.operand.width
            kind = "zext" if expr.kind == "zext" else "sext"
            return "%s(%s, %d, %d)" % (kind, operand, expr.operand.width,
                                       extra)
        if isinstance(expr, N.ExtractBits):
            return "extract(%s, %d, %d, %d)" % (
                self.expr(expr.operand, guards), expr.operand.width,
                expr.hi, expr.lo)
        if isinstance(expr, N.ConcatBits):
            hi = self.expr(expr.hi_part, guards)
            if _emits_statements(expr.lo_part):
                hi_t = self.temp()
                self.emit("%s = %s" % (hi_t, hi))
                hi = hi_t
            lo = self.expr(expr.lo_part, guards)
            return "concat(%s, %s, %d, %d)" % (
                hi, lo, expr.hi_part.width, expr.lo_part.width)
        if isinstance(expr, N.IteExpr):
            return self._ite(expr, guards)
        raise CompileError("unknown IR expression %r" % (expr,))

    def _index(self, index: Optional[N.Expr], guards: str) -> str:
        if index is None:
            return "None"
        if isinstance(index, N.Field):
            # A field is the decoded int; _concrete_index would return
            # it unchanged.
            return "FT[%r]" % index.name
        if isinstance(index, N.Const):
            return str(index.value)
        term = self.temp()
        self.emit("%s = %s" % (term, self.expr(index, guards)))
        return "E._concrete_index(S, %s, D)" % term

    def _ite(self, expr: N.IteExpr, guards: str) -> str:
        cond = self.temp()
        self.emit("%s = %s" % (cond, self.expr(expr.cond, guards)))
        result = self.temp()
        self.emit("if type(%s) is int:" % cond)
        self.indent += 1
        # Concrete condition: evaluate only the chosen arm, under the
        # *unchanged* guards.
        self.emit("if %s == 1:" % cond)
        self.indent += 1
        self.emit("%s = %s" % (result, self.expr(expr.then, guards)))
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        self.emit("%s = %s" % (result, self.expr(expr.other, guards)))
        self.indent -= 2
        self.emit("else:")
        self.indent += 1
        then_guards = self.guard_name()
        self.emit("%s = %s + (%s,)" % (then_guards, guards, cond))
        then = self.temp()
        self.emit("%s = %s" % (then, self.expr(expr.then, then_guards)))
        else_guards = self.guard_name()
        self.emit("%s = %s + (not_(%s, 1),)" % (else_guards, guards, cond))
        other = self.temp()
        self.emit("%s = %s" % (other, self.expr(expr.other, else_guards)))
        self.emit("%s = ite(%s, %s, %s, %d)" % (result, cond, then, other,
                                                expr.width))
        self.indent -= 1
        return result

    def source(self, result: str) -> str:
        return "\n".join(self.lines + ["    return %s" % result])


class _PlanBuilder:
    """Lowers one rule into (plan literal, generated functions)."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.functions: List[str] = []
        self._count = 0

    def fn(self, expr: N.Expr) -> str:
        name = "%s_%d" % (self.prefix, self._count)
        self._count += 1
        emitter = _SymEmitter(name)
        result = emitter.expr(expr, "()")
        self.functions.append(emitter.source(result))
        return name

    def value_fn(self, value: N.Expr) -> str:
        """An assignment's value function; ``None`` reads input."""
        return "None" if isinstance(value, N.InputByte) else self.fn(value)

    def index_spec(self, index: Optional[N.Expr]) -> str:
        if index is None:
            return "None"
        if isinstance(index, N.Field):
            return "('f', %r)" % index.name
        if isinstance(index, N.Const):
            return "('c', %d)" % index.value
        return "('e', %s)" % self.fn(index)

    def plan(self, stmts) -> str:
        rows = []
        for stmt in stmts:
            if isinstance(stmt, N.SetLocal):
                rows.append("(%d, %r, %s)" % (
                    S_LOCAL, stmt.name, self.value_fn(stmt.value)))
            elif isinstance(stmt, N.SetReg):
                index = self.index_spec(stmt.index)
                rows.append("(%d, %r, %s, %s)" % (
                    S_REG, stmt.regfile, index,
                    self.value_fn(stmt.value)))
            elif isinstance(stmt, N.SetPc):
                rows.append("(%d, %s)" % (S_PC, self.fn(stmt.value)))
            elif isinstance(stmt, N.Store):
                rows.append("(%d, %s, %s, %d)" % (
                    S_STORE, self.fn(stmt.addr), self.fn(stmt.value),
                    stmt.size))
            elif isinstance(stmt, N.Output):
                rows.append("(%d, %s)" % (S_OUT, self.fn(stmt.value)))
            elif isinstance(stmt, N.Halt):
                rows.append("(%d, %s)" % (S_HALT, self.fn(stmt.code)))
            elif isinstance(stmt, N.Trap):
                rows.append("(%d, %s)" % (S_TRAP, self.fn(stmt.code)))
            elif isinstance(stmt, N.IfStmt):
                rows.append("(%d, %s, %s, %s)" % (
                    S_IF, self.fn(stmt.cond), self.plan(stmt.then_body),
                    self.plan(stmt.else_body)))
            else:
                raise CompileError("unknown IR statement %r" % (stmt,))
        if not rows:
            return "()"
        return "(%s,)" % ", ".join(rows)


def plan_name(rule: str) -> str:
    """The module-level name a rule's generated source binds its plan
    to."""
    return "_plan_%s" % rule


def rule_plan(isa: str, instr) -> Tuple[tuple, str]:
    """Generate one rule's plan: ``(plan, source)``.

    ``source`` is the exact text executed to build ``plan``;
    :func:`module_source` assembles these texts into one module.
    """
    prefix = "_s_%s" % instr.name
    builder = _PlanBuilder(prefix)
    try:
        plan = builder.plan(instr.semantics)
    except CompileError as error:
        raise CompileError("%s: rule %r: %s" % (isa, instr.name, error))
    name = plan_name(instr.name)
    source = "\n\n".join(builder.functions
                         + ["%s = %s" % (name, plan)]) + "\n"
    namespace: Dict[str, Any] = dict(OPS)
    exec(compile(source, "<repro.compile:%s:%s>" % (isa, prefix), "exec"),
         namespace)
    return namespace[name], source


def module_source(isa: str, rows: List[Tuple[str, str]]) -> str:
    """One module from per-rule ``(name, plan source)`` rows, with a
    ``PLANS`` table (rule name -> plan)."""
    chunks = ["# generated by repro.compile — plans for %r" % isa]
    for name, source in rows:
        chunks.extend(["# rule %r" % name, source.rstrip("\n")])
    chunks.append("PLANS = {\n%s\n}" % "\n".join(
        "    %r: %s," % (name, plan_name(name)) for name, _source in rows))
    return "\n\n".join(chunks) + "\n"
