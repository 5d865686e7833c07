"""The register-transfer IR that ADL instruction semantics compile to.

Each ADL ``instruction`` is translated once into a small list of IR
statements (:class:`Stmt` subclasses) over IR expressions (:class:`Expr`
subclasses).  The IR is the *retargeting interface* of the system: the concrete
simulator (:mod:`repro.isa.simulator`) interprets it and the symbolic
executor (:mod:`repro.core.executor`) runs code compiled from it
(:mod:`repro.compile`); neither sees ISA-specific code.

Design notes
------------
* Expressions carry an explicit ``width`` (bits); widths are checked by
  :func:`repro.ir.validate.validate_block` after translation.
* ``Field`` references name instruction-encoding fields/operands; they are
  bound to concrete integers at decode time, so one IR block per
  *instruction definition* serves every decoded instance.
* Reading ``Pc`` during semantics yields the address of the *current*
  instruction; assigning :class:`SetPc` sets the next pc.  If no ``SetPc``
  executes, the machine falls through to ``address + length``.
* Environment interaction is reduced to three effects: ``InputByte`` (an
  expression: the next byte of program input), :class:`Output` (emit a
  byte), and :class:`Halt` (stop with an exit code).  The machine-code
  workloads use ISA instructions that map onto these.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

__all__ = [
    "Expr", "Const", "Field", "Local", "ReadReg", "Pc", "Load", "InputByte",
    "BinOp", "UnOp", "Ext", "ExtractBits", "ConcatBits", "IteExpr",
    "Stmt", "SetLocal", "SetReg", "SetPc", "Store", "Output", "Halt",
    "Trap", "IfStmt",
    "BINARY_OPS", "COMPARISON_OPS", "UNARY_OPS",
]

# Binary operators whose result width equals the operand width.
BINARY_OPS = frozenset({
    "add", "sub", "mul", "udiv", "urem", "sdiv", "srem",
    "and", "or", "xor", "shl", "lshr", "ashr",
})

# Comparisons produce width-1 booleans.
COMPARISON_OPS = frozenset({
    "eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge",
})

UNARY_OPS = frozenset({"not", "neg", "boolnot"})


class Expr:
    """Base class for IR expressions (immutable)."""

    __slots__ = ("width",)

    def __init__(self, width: int):
        self.width = width

    def children(self) -> Tuple["Expr", ...]:
        return ()


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, width: int):
        super().__init__(width)
        self.value = value & ((1 << width) - 1)

    def __repr__(self):
        return "Const({:#x}, {})".format(self.value, self.width)


class Field(Expr):
    """A decoded instruction field or derived operand, bound at decode time."""

    __slots__ = ("name",)

    def __init__(self, name: str, width: int):
        super().__init__(width)
        self.name = name

    def __repr__(self):
        return "Field({!r}, {})".format(self.name, self.width)


class Local(Expr):
    """A temporary introduced by ``local`` in the semantics block."""

    __slots__ = ("name",)

    def __init__(self, name: str, width: int):
        super().__init__(width)
        self.name = name

    def __repr__(self):
        return "Local({!r}, {})".format(self.name, self.width)


class ReadReg(Expr):
    """Read ``regfile[index]`` (or a single register, index ``None``)."""

    __slots__ = ("regfile", "index")

    def __init__(self, regfile: str, index: Optional[Expr], width: int):
        super().__init__(width)
        self.regfile = regfile
        self.index = index

    def children(self):
        return (self.index,) if self.index is not None else ()

    def __repr__(self):
        return "ReadReg({!r}, {!r})".format(self.regfile, self.index)


class Pc(Expr):
    """The address of the currently executing instruction."""

    __slots__ = ()

    def __repr__(self):
        return "Pc({})".format(self.width)


class Load(Expr):
    """Little/big-endian memory load of ``size`` bytes (width = 8*size)."""

    __slots__ = ("addr", "size")

    def __init__(self, addr: Expr, size: int):
        super().__init__(8 * size)
        self.addr = addr
        self.size = size

    def children(self):
        return (self.addr,)

    def __repr__(self):
        return "Load({!r}, {})".format(self.addr, self.size)


class InputByte(Expr):
    """The next byte of program input (the symbolic-input source)."""

    __slots__ = ()

    def __init__(self):
        super().__init__(8)

    def __repr__(self):
        return "InputByte()"


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, width: int):
        super().__init__(width)
        self.op = op
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def __repr__(self):
        return "BinOp({!r}, {!r}, {!r})".format(self.op, self.left, self.right)


class UnOp(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, width: int):
        super().__init__(width)
        self.op = op
        self.operand = operand

    def children(self):
        return (self.operand,)

    def __repr__(self):
        return "UnOp({!r}, {!r})".format(self.op, self.operand)


class Ext(Expr):
    """Zero- or sign-extension to ``width`` bits (kind: 'zext'/'sext')."""

    __slots__ = ("kind", "operand")

    def __init__(self, kind: str, operand: Expr, width: int):
        super().__init__(width)
        self.kind = kind
        self.operand = operand

    def children(self):
        return (self.operand,)

    def __repr__(self):
        return "Ext({!r}, {!r}, {})".format(self.kind, self.operand, self.width)


class ExtractBits(Expr):
    __slots__ = ("operand", "hi", "lo")

    def __init__(self, operand: Expr, hi: int, lo: int):
        super().__init__(hi - lo + 1)
        self.operand = operand
        self.hi = hi
        self.lo = lo

    def children(self):
        return (self.operand,)

    def __repr__(self):
        return "ExtractBits({!r}, {}, {})".format(self.operand, self.hi, self.lo)


class ConcatBits(Expr):
    """Concatenation; ``hi`` supplies the most significant bits."""

    __slots__ = ("hi_part", "lo_part")

    def __init__(self, hi_part: Expr, lo_part: Expr):
        super().__init__(hi_part.width + lo_part.width)
        self.hi_part = hi_part
        self.lo_part = lo_part

    def children(self):
        return (self.hi_part, self.lo_part)

    def __repr__(self):
        return "ConcatBits({!r}, {!r})".format(self.hi_part, self.lo_part)


class IteExpr(Expr):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Expr, other: Expr):
        super().__init__(then.width)
        self.cond = cond
        self.then = then
        self.other = other

    def children(self):
        return (self.cond, self.then, self.other)

    def __repr__(self):
        return "IteExpr({!r}, {!r}, {!r})".format(self.cond, self.then, self.other)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class for IR statements."""

    __slots__ = ()


class SetLocal(Stmt):
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Expr):
        self.name = name
        self.value = value

    def __repr__(self):
        return "SetLocal({!r}, {!r})".format(self.name, self.value)


class SetReg(Stmt):
    """Write ``regfile[index] = value`` (index ``None`` for single regs)."""

    __slots__ = ("regfile", "index", "value")

    def __init__(self, regfile: str, index: Optional[Expr], value: Expr):
        self.regfile = regfile
        self.index = index
        self.value = value

    def __repr__(self):
        return "SetReg({!r}, {!r}, {!r})".format(
            self.regfile, self.index, self.value)


class SetPc(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Expr):
        self.value = value

    def __repr__(self):
        return "SetPc({!r})".format(self.value)


class Store(Stmt):
    __slots__ = ("addr", "value", "size")

    def __init__(self, addr: Expr, value: Expr, size: int):
        self.addr = addr
        self.value = value
        self.size = size

    def __repr__(self):
        return "Store({!r}, {!r}, {})".format(self.addr, self.value, self.size)


class Output(Stmt):
    """Emit the low byte of ``value`` to the program output stream."""

    __slots__ = ("value",)

    def __init__(self, value: Expr):
        self.value = value

    def __repr__(self):
        return "Output({!r})".format(self.value)


class Halt(Stmt):
    """Stop the machine with an exit code."""

    __slots__ = ("code",)

    def __init__(self, code: Expr):
        self.code = code

    def __repr__(self):
        return "Halt({!r})".format(self.code)


class Trap(Stmt):
    """Signal a program-level failure (the defect suite's assert-fail)."""

    __slots__ = ("code",)

    def __init__(self, code: Expr):
        self.code = code

    def __repr__(self):
        return "Trap({!r})".format(self.code)


class IfStmt(Stmt):
    __slots__ = ("cond", "then_body", "else_body")

    def __init__(self, cond: Expr, then_body: Sequence[Stmt],
                 else_body: Sequence[Stmt] = ()):
        self.cond = cond
        self.then_body = tuple(then_body)
        self.else_body = tuple(else_body)

    def __repr__(self):
        return "IfStmt({!r}, {!r}, {!r})".format(
            self.cond, self.then_body, self.else_body)
