"""Mixed int/term operators: the runtime library of generated plans.

The engine keeps a value as a plain ``int`` while it is concrete and as
a :class:`repro.smt.terms.Term` only once it is symbolic.  Every IR
operator a plan evaluates is one function here, called with the IR's
widths as literals (ints carry none):

* when every operand is an ``int`` it does masked int arithmetic, which
  equals the constant folding of the matching ``T`` constructor
  (``tests/compile/test_ops.py`` checks every operator against it);
* otherwise it lifts the int operands to constants with :func:`lift`
  and calls that constructor, so every symbolic term — and every solver
  query built from one — is exactly the term the all-``Term`` engine
  built, and normalizes a constant result back to an ``int``
  (:func:`norm`).

So no engine state ever holds a constant ``Term``.  Operand widths
follow the IR: a binary operator's ``w`` is its operands' width (also
for comparisons, whose result is 1 bit), ``zext``/``sext``/``extract``
take the operand's width, ``concat`` both parts' widths.

Translation validation (:mod:`repro.verify.planeval`) runs plans with
these operators wrapped to reject a width literal that disagrees with a
``Term`` operand; only the int path reads the literal, so that check is
what carries the proof of the ``Term`` path over to the int path.
"""

from __future__ import annotations

from typing import Union

from ..smt import terms as T

__all__ = ["Value", "lift", "norm", "OPS"]

#: A concrete (``int``) or symbolic (non-constant ``Term``) value.
Value = Union[int, T.Term]

_CONST = T.CONST


def lift(value: Value, width: int) -> T.Term:
    """``value`` as a term: an int becomes a ``width``-bit constant."""
    return value if isinstance(value, T.Term) else T.bv(value, width)


def norm(value: Value) -> Value:
    """A constant term as its ``int`` value; anything else unchanged."""
    if isinstance(value, T.Term) and value.op == _CONST:
        return value.value
    return value


# -- arithmetic ---------------------------------------------------------------

def add(a, b, w):
    if type(a) is int and type(b) is int:
        return (a + b) & ((1 << w) - 1)
    return norm(T.add(lift(a, w), lift(b, w)))


def sub(a, b, w):
    if type(a) is int and type(b) is int:
        return (a - b) & ((1 << w) - 1)
    return norm(T.sub(lift(a, w), lift(b, w)))


def mul(a, b, w):
    if type(a) is int and type(b) is int:
        return (a * b) & ((1 << w) - 1)
    return norm(T.mul(lift(a, w), lift(b, w)))


def udiv(a, b, w):
    if type(a) is int and type(b) is int:
        return a // b if b else (1 << w) - 1
    return norm(T.udiv(lift(a, w), lift(b, w)))


def urem(a, b, w):
    if type(a) is int and type(b) is int:
        return a % b if b else a
    return norm(T.urem(lift(a, w), lift(b, w)))


def sdiv(a, b, w):
    if type(a) is int and type(b) is int:
        sign = 1 << (w - 1)
        sa, sb = (a ^ sign) - sign, (b ^ sign) - sign
        if sb == 0:
            return 1 if sa < 0 else (1 << w) - 1
        quotient = abs(sa) // abs(sb)       # truncates toward zero
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        return quotient & ((1 << w) - 1)
    return norm(T.sdiv(lift(a, w), lift(b, w)))


def srem(a, b, w):
    if type(a) is int and type(b) is int:
        sign = 1 << (w - 1)
        sa, sb = (a ^ sign) - sign, (b ^ sign) - sign
        if sb == 0:
            return a
        remainder = abs(sa) % abs(sb)       # takes the dividend's sign
        if sa < 0:
            remainder = -remainder
        return remainder & ((1 << w) - 1)
    return norm(T.srem(lift(a, w), lift(b, w)))


def neg(a, w):
    if type(a) is int:
        return -a & ((1 << w) - 1)
    return norm(T.neg(a))


# -- bitwise ------------------------------------------------------------------

def and_(a, b, w):
    if type(a) is int and type(b) is int:
        return a & b
    return norm(T.and_(lift(a, w), lift(b, w)))


def or_(a, b, w):
    if type(a) is int and type(b) is int:
        return a | b
    return norm(T.or_(lift(a, w), lift(b, w)))


def xor(a, b, w):
    if type(a) is int and type(b) is int:
        return a ^ b
    return norm(T.xor(lift(a, w), lift(b, w)))


def not_(a, w):
    if type(a) is int:
        return ~a & ((1 << w) - 1)
    return norm(T.not_(a))


# -- shifts (over-shifting gives 0, or the sign fill for ashr) ----------------

def shl(a, b, w):
    if type(a) is int and type(b) is int:
        return (a << b) & ((1 << w) - 1) if b < w else 0
    return norm(T.shl(lift(a, w), lift(b, w)))


def lshr(a, b, w):
    if type(a) is int and type(b) is int:
        return a >> b if b < w else 0
    return norm(T.lshr(lift(a, w), lift(b, w)))


def ashr(a, b, w):
    if type(a) is int and type(b) is int:
        sign = 1 << (w - 1)
        # Python's >> sign-fills, so shifting by >= w needs no clamp.
        return (((a ^ sign) - sign) >> b) & ((1 << w) - 1)
    return norm(T.ashr(lift(a, w), lift(b, w)))


# -- comparisons (1-bit results; ``w`` is the operands' width) ----------------

def eq(a, b, w):
    if type(a) is int and type(b) is int:
        return 1 if a == b else 0
    return norm(T.eq(lift(a, w), lift(b, w)))


def ne(a, b, w):
    if type(a) is int and type(b) is int:
        return 1 if a != b else 0
    return norm(T.ne(lift(a, w), lift(b, w)))


def ult(a, b, w):
    if type(a) is int and type(b) is int:
        return 1 if a < b else 0
    return norm(T.ult(lift(a, w), lift(b, w)))


def ule(a, b, w):
    if type(a) is int and type(b) is int:
        return 1 if a <= b else 0
    return norm(T.ule(lift(a, w), lift(b, w)))


def ugt(a, b, w):
    if type(a) is int and type(b) is int:
        return 1 if a > b else 0
    return norm(T.ugt(lift(a, w), lift(b, w)))


def uge(a, b, w):
    if type(a) is int and type(b) is int:
        return 1 if a >= b else 0
    return norm(T.uge(lift(a, w), lift(b, w)))


# Signed comparisons flip the sign bit and compare unsigned, as T does.

def slt(a, b, w):
    if type(a) is int and type(b) is int:
        sign = 1 << (w - 1)
        return 1 if a ^ sign < b ^ sign else 0
    return norm(T.slt(lift(a, w), lift(b, w)))


def sle(a, b, w):
    if type(a) is int and type(b) is int:
        sign = 1 << (w - 1)
        return 1 if a ^ sign <= b ^ sign else 0
    return norm(T.sle(lift(a, w), lift(b, w)))


def sgt(a, b, w):
    if type(a) is int and type(b) is int:
        sign = 1 << (w - 1)
        return 1 if a ^ sign > b ^ sign else 0
    return norm(T.sgt(lift(a, w), lift(b, w)))


def sge(a, b, w):
    if type(a) is int and type(b) is int:
        sign = 1 << (w - 1)
        return 1 if a ^ sign >= b ^ sign else 0
    return norm(T.sge(lift(a, w), lift(b, w)))


# -- structure ----------------------------------------------------------------

def zext(a, w, extra):
    if type(a) is int:
        return a
    return norm(T.zext(a, extra))


def sext(a, w, extra):
    if type(a) is int:
        sign = 1 << (w - 1)
        return ((a ^ sign) - sign) & ((1 << (w + extra)) - 1)
    return norm(T.sext(a, extra))


def extract(a, w, hi, lo):
    if type(a) is int:
        return (a >> lo) & ((1 << (hi - lo + 1)) - 1)
    return norm(T.extract(a, hi, lo))


def concat(hi, lo, hi_width, lo_width):
    if type(hi) is int and type(lo) is int:
        return (hi << lo_width) | lo
    return norm(T.concat(lift(hi, hi_width), lift(lo, lo_width)))


def ite(cond, then, other, w):
    """Both arms already evaluated.  Generated plans test an ``int``
    condition themselves and evaluate only the chosen arm."""
    if type(cond) is int:
        return then if cond == 1 else other
    return norm(T.ite(cond, lift(then, w), lift(other, w)))


def pc(value, w):
    """The current instruction's address at ``w`` bits (IR ``Pc``):
    truncated or zero-extended, like the reference evaluators."""
    if type(value) is int:
        return value & ((1 << w) - 1)
    if value.width > w:
        return norm(T.extract(value, w - 1, 0))
    return norm(T.zext(value, w - value.width))


#: Generated plans' globals: emitted name -> operator.
OPS = {
    "add": add, "sub": sub, "mul": mul, "udiv": udiv, "urem": urem,
    "sdiv": sdiv, "srem": srem, "neg": neg,
    "and_": and_, "or_": or_, "xor": xor, "not_": not_,
    "shl": shl, "lshr": lshr, "ashr": ashr,
    "eq": eq, "ne": ne, "ult": ult, "ule": ule, "ugt": ugt, "uge": uge,
    "slt": slt, "sle": sle, "sgt": sgt, "sge": sge,
    "zext": zext, "sext": sext, "extract": extract, "concat": concat,
    "ite": ite, "pc": pc,
}
