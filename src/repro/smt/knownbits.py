"""Known-bits abstract domain over terms.

The bit-level companion of :mod:`repro.smt.interval`: for every term we
track a pair ``(known, value)`` of ints where bit ``i`` of ``known``
set means bit ``i`` of the term equals bit ``i`` of ``value`` under
*every* variable assignment.  Constants are fully known, variables
fully unknown, and the transfer functions propagate exactly the cheap
facts the translation validator needs:

* leading known-zero bits let :mod:`repro.smt.normalize` shrink a term
  to its significant width (so ``(a + b) & 0xffffffff`` computed at 33
  bits and the reference ``add`` at 32 bits meet at the same width),
* two terms whose known bits disagree somewhere are *definitely
  unequal*, so their equality is a known 0 (which in turn decides an
  ``ite`` it guards).

Soundness direction: ``known`` may always be an under-approximation
(claiming fewer bits known is safe); it must never claim a bit known
with the wrong value.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import terms as T

__all__ = ["known_bits", "significant_width", "definitely_unequal"]

#: (known mask, value) — ``value`` is always normalized to ``value & known``.
Bits = Tuple[int, int]


def known_bits(term: T.Term,
               cache: Optional[Dict[int, Bits]] = None) -> Bits:
    """``(known, value)`` for ``term``; memoized via ``cache`` (keyed on
    term id) across one analysis session."""
    if cache is None:
        cache = {}
    hit = cache.get(term.tid)
    if hit is not None:
        return hit
    result = _transfer(term, cache)
    known, value = result
    result = (known & T.mask(term.width), value & known & T.mask(term.width))
    cache[term.tid] = result
    return result


def _unknown(width: int) -> Bits:
    return (0, 0)


def _transfer(term: T.Term, cache: Dict[int, Bits]) -> Bits:
    op = term.op
    width = term.width
    full = T.mask(width)
    if op == T.CONST:
        return (full, term.value)
    if op == T.VAR:
        return _unknown(width)
    if op == T.AND:
        ka, va = known_bits(term.args[0], cache)
        kb, vb = known_bits(term.args[1], cache)
        # A result bit is known when both inputs are known, or either
        # input is a known zero.
        known = (ka & kb) | (ka & ~va) | (kb & ~vb)
        return (known, va & vb)
    if op == T.OR:
        ka, va = known_bits(term.args[0], cache)
        kb, vb = known_bits(term.args[1], cache)
        known = (ka & kb) | (ka & va) | (kb & vb)
        return (known, va | vb)
    if op == T.XOR:
        ka, va = known_bits(term.args[0], cache)
        kb, vb = known_bits(term.args[1], cache)
        return (ka & kb, va ^ vb)
    if op == T.NOT:
        ka, va = known_bits(term.args[0], cache)
        return (ka, ~va & full)
    if op == T.ZEXT:
        inner = term.args[0]
        ka, va = known_bits(inner, cache)
        high = full & ~T.mask(inner.width)
        return (ka | high, va)
    if op == T.SEXT:
        inner = term.args[0]
        ka, va = known_bits(inner, cache)
        sign = 1 << (inner.width - 1)
        if ka & sign:
            high = full & ~T.mask(inner.width)
            ext = high if (va & sign) else 0
            return (ka | high, va | ext)
        return (ka & T.mask(inner.width - 1), va & T.mask(inner.width - 1))
    if op == T.EXTRACT:
        hi, lo = term.params
        ka, va = known_bits(term.args[0], cache)
        return (ka >> lo, va >> lo)
    if op == T.CONCAT:
        hi_part, lo_part = term.args
        kh, vh = known_bits(hi_part, cache)
        kl, vl = known_bits(lo_part, cache)
        shift = lo_part.width
        return ((kh << shift) | kl, (vh << shift) | vl)
    if op in (T.ADD, T.SUB):
        ka, va = known_bits(term.args[0], cache)
        kb, vb = known_bits(term.args[1], cache)
        # Bits are known from the bottom up while both inputs (and the
        # rippling carry/borrow) stay known.
        prefix = _trailing_known(ka & kb)
        if prefix == 0:
            return _unknown(width)
        low_mask = T.mask(prefix)
        raw = (va + vb) if op == T.ADD else (va - vb)
        return (low_mask, raw & low_mask)
    if op == T.MUL:
        ka, va = known_bits(term.args[0], cache)
        kb, vb = known_bits(term.args[1], cache)
        if ka == full and kb == full:
            return (full, (va * vb) & full)
        # A known-zero suffix of either factor forces a zero suffix.
        zeros = _trailing_zeros(ka, va) + _trailing_zeros(kb, vb)
        if zeros >= width:
            return (full, 0)
        return (T.mask(min(zeros, width)), 0)
    if op == T.SHL:
        return _shift_bits(term, cache, "shl")
    if op == T.LSHR:
        return _shift_bits(term, cache, "lshr")
    if op == T.ASHR:
        return _shift_bits(term, cache, "ashr")
    if op == T.ITE:
        kc, vc = known_bits(term.args[0], cache)
        if kc & 1:
            chosen = term.args[1] if (vc & 1) else term.args[2]
            return known_bits(chosen, cache)
        ka, va = known_bits(term.args[1], cache)
        kb, vb = known_bits(term.args[2], cache)
        agree = ka & kb & ~(va ^ vb)
        return (agree, va & agree)
    if op == T.EQ:
        a, b = term.args
        if a is b:
            return (1, 1)
        if definitely_unequal(a, b, cache):
            return (1, 0)
        return _unknown(1)
    # udiv/urem/sdiv/srem/ult/... — no cheap bit facts worth tracking.
    return _unknown(width)


def _shift_bits(term: T.Term, cache: Dict[int, Bits], kind: str) -> Bits:
    value_bits = known_bits(term.args[0], cache)
    ka, va = known_bits(term.args[1], cache)
    width = term.width
    full = T.mask(width)
    if ka != full:
        return _unknown(width)
    amount = va
    kv, vv = value_bits
    if kind == "shl":
        if amount >= width:
            return (full, 0)
        low = T.mask(amount)
        return (((kv << amount) | low) & full, (vv << amount) & full)
    if kind == "lshr":
        if amount >= width:
            return (full, 0)
        high = full & ~T.mask(width - amount) if amount else 0
        return ((kv >> amount) | high, vv >> amount)
    # ashr clamps to width - 1 (SMT-LIB mirror in the interpreter).
    shift = min(amount, width - 1)
    sign = 1 << (width - 1)
    if not (kv & sign):
        return ((kv >> shift) & T.mask(width - shift), vv >> shift)
    shifted_k = (kv >> shift) | (full & ~T.mask(width - shift))
    ext = (full & ~T.mask(width - shift)) if (vv & sign) else 0
    return (shifted_k, (vv >> shift) | ext)


def _trailing_known(known: int) -> int:
    count = 0
    while known & 1:
        known >>= 1
        count += 1
    return count


def _trailing_zeros(known: int, value: int) -> int:
    count = 0
    while (known & 1) and not (value & 1):
        known >>= 1
        value >>= 1
        count += 1
    return count


def significant_width(term: T.Term,
                      cache: Optional[Dict[int, Bits]] = None) -> int:
    """Smallest width that holds every possibly-set bit of ``term``:
    ``term.width`` minus the leading *known-zero* bits (at least 1)."""
    known, value = known_bits(term, cache)
    width = term.width
    while width > 1:
        bit = 1 << (width - 1)
        if (known & bit) and not (value & bit):
            width -= 1
        else:
            break
    return width


def definitely_unequal(a: T.Term, b: T.Term,
                       cache: Optional[Dict[int, Bits]] = None) -> bool:
    """Some bit position is known in both terms with different values —
    the terms differ under *every* assignment."""
    if a is b or a.width != b.width:
        return False
    if cache is None:
        cache = {}
    ka, va = known_bits(a, cache)
    kb, vb = known_bits(b, cache)
    return bool(ka & kb & (va ^ vb))
