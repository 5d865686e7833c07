"""Width normalization: push truncation through low-bit-preserving ops.

The translation validator compares terms built by two different code
paths, which may meet at different widths: the reference IR evaluation
builds every value at its IR width, while a compiled plan's int results
reach the validator's machine as minimal-width constants, and a value
written to a location is viewed at the location's declared width
(zero-extended or truncated).  Semantically identical, structurally
different, and a naive bit-blast of the inequality would hand the SAT
solver a miter for every obligation.

:func:`lower` rewrites ``extract(term, w-1, 0)`` by pushing the
truncation through every operator whose low ``w`` bits depend only on
the low ``w`` bits of its inputs — add, sub, mul, the bitwise ops,
not, constant-amount shl, concat, zext, sext and ite — so both sides
collapse to the *same* hash-consed term and the obligation discharges
by pointer identity.  Operators that mix high bits into low bits
(variable shifts, lshr/ashr, division, comparisons) keep an opaque
``extract`` wrapper, which is still sound: ``lower`` only ever returns
a term equal to the low bits of its input.

:func:`canon` combines this with the known-bits analysis
(:mod:`repro.smt.knownbits`): leading provably-zero bits are stripped
first, so terms carrying different amounts of zero head-room meet at
their shared significant width.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import terms as T
from .knownbits import significant_width

__all__ = ["lower", "canon"]

#: Ops whose low-w result bits are a function of the low-w input bits.
_MODULAR = frozenset({T.ADD, T.SUB, T.MUL, T.AND, T.OR, T.XOR})

Cache = Dict[Tuple[int, int], T.Term]


def lower(term: T.Term, width: int,
          cache: Optional[Cache] = None) -> T.Term:
    """A term of ``width`` bits equal to ``extract(term, width-1, 0)``,
    with the truncation pushed as deep as soundness allows."""
    if width > term.width:
        raise T.WidthError("cannot lower width %d to %d"
                           % (term.width, width))
    if cache is None:
        cache = {}
    key = (term.tid, width)
    hit = cache.get(key)
    if hit is not None:
        return hit
    result = _lower(term, width, cache)
    cache[key] = result
    return result


def _lower(term: T.Term, width: int, cache: Cache) -> T.Term:
    if width == term.width:
        return _local(term, width, cache)
    op = term.op
    if op == T.CONST:
        return T.bv(term.value & T.mask(width), width)
    if op in _MODULAR:
        left = lower(term.args[0], width, cache)
        right = lower(term.args[1], width, cache)
        return _local_binop(op, left, right)
    if op == T.NOT:
        return T.not_(lower(term.args[0], width, cache))
    if op == T.ZEXT:
        inner = term.args[0]
        if width <= inner.width:
            return lower(inner, width, cache)
        return T.zext(lower(inner, inner.width, cache),
                      width - inner.width)
    if op == T.SEXT:
        inner = term.args[0]
        if width <= inner.width:
            return lower(inner, width, cache)
        return T.sext(lower(inner, inner.width, cache),
                      width - inner.width)
    if op == T.CONCAT:
        hi_part, lo_part = term.args
        if width <= lo_part.width:
            return lower(lo_part, width, cache)
        return T.concat(lower(hi_part, width - lo_part.width, cache),
                        lower(lo_part, lo_part.width, cache))
    if op == T.EXTRACT:
        hi, lo = term.params
        return lower(T.extract(term.args[0], lo + width - 1, lo),
                     width, cache)
    if op == T.ITE:
        return T.ite(term.args[0],
                     lower(term.args[1], width, cache),
                     lower(term.args[2], width, cache))
    if op == T.SHL:
        amount = term.args[1]
        if amount.is_const():
            shift = amount.value
            if shift >= width:
                return T.bv(0, width)
            return T.shl(lower(term.args[0], width, cache),
                         T.bv(shift, width))
    # lshr/ashr/division/variable shifts/predicates: high bits feed low
    # bits, so the truncation stays an opaque extract around the
    # locally-simplified term.
    return T.extract(_local(term, term.width, cache), width - 1, 0)


def _local(term: T.Term, width: int, cache: Cache) -> T.Term:
    """Same-width pass: rebuild through the simplifying constructors so
    identities the two codegen paths introduce (``x & 0xff..f``,
    ``x | 0``, ``x + 0``) fold away even without truncation."""
    op = term.op
    if op in _MODULAR:
        return _local_binop(op,
                            lower(term.args[0], term.args[0].width, cache),
                            lower(term.args[1], term.args[1].width, cache))
    if op == T.NOT:
        return T.not_(lower(term.args[0], term.args[0].width, cache))
    if op == T.ITE:
        return T.ite(term.args[0],
                     lower(term.args[1], width, cache),
                     lower(term.args[2], width, cache))
    if op == T.CONCAT:
        hi_part, lo_part = term.args
        return T.concat(lower(hi_part, hi_part.width, cache),
                        lower(lo_part, lo_part.width, cache))
    if op in (T.ZEXT, T.SEXT):
        inner = term.args[0]
        rebuilt = lower(inner, inner.width, cache)
        extra = term.width - inner.width
        return T.zext(rebuilt, extra) if op == T.ZEXT \
            else T.sext(rebuilt, extra)
    return term


_IDENTITY_SKIP = {
    T.ADD: 0, T.SUB: 0, T.OR: 0, T.XOR: 0,
}


def _local_binop(op: str, left: T.Term, right: T.Term) -> T.Term:
    """Build ``op`` via the simplifying constructor, plus the identities
    (``x & mask``, ``x op 0``) that truncation leaves behind."""
    width = left.width
    if op == T.AND:
        full = T.mask(width)
        if right.is_const() and right.value == full:
            return left
        if left.is_const() and left.value == full:
            return right
        return T.and_(left, right)
    skip = _IDENTITY_SKIP.get(op)
    if skip is not None and right.is_const() and right.value == skip:
        return left
    if op in (T.ADD, T.OR, T.XOR) and left.is_const() \
            and left.value == _IDENTITY_SKIP.get(op):
        return right
    if op == T.MUL and right.is_const() and right.value == 1:
        return left
    if op == T.MUL and left.is_const() and left.value == 1:
        return right
    builder = {T.ADD: T.add, T.SUB: T.sub, T.MUL: T.mul,
               T.AND: T.and_, T.OR: T.or_, T.XOR: T.xor}[op]
    return builder(left, right)


def canon(term: T.Term, width: Optional[int] = None,
          cache: Optional[Cache] = None,
          kb_cache: Optional[Dict[int, Tuple[int, int]]] = None) -> T.Term:
    """Canonical comparison form of ``term``.

    With ``width`` (the obligation's destination width) the term is
    lowered to exactly that many bits.  Without it, leading
    provably-zero bits are stripped (known-bits) so both sides of a
    comparison meet at their shared significant width.
    """
    if width is None:
        width = significant_width(term, kb_cache)
    return lower(term, width, cache)
