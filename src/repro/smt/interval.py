"""Conservative unsigned-interval analysis over bitvector terms.

Used as a cheap pre-filter before bit-blasting: if the interval of a path
condition is exactly ``[0, 0]`` the query is unsatisfiable without touching
the SAT solver.  The analysis is deliberately simple — soundness means the
computed interval always *contains* every feasible value, so ``[0, 0]``
implies genuinely-unsat while anything else is "don't know".
"""

from __future__ import annotations

from typing import Dict, Tuple

from . import terms as T

__all__ = ["interval", "refute_conjunction"]

Interval = Tuple[int, int]


def _full(width: int) -> Interval:
    return (0, T.mask(width))


def interval(term: T.Term, cache: Dict[int, Interval] = None) -> Interval:
    """Unsigned ``(lo, hi)`` bounds of ``term`` (iterative, memoized)."""
    if cache is None:
        cache = {}
    stack = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if node.tid in cache:
            continue
        if not ready:
            if node.op == T.CONST:
                cache[node.tid] = (node.value, node.value)
                continue
            if node.op == T.VAR:
                cache[node.tid] = _full(node.width)
                continue
            stack.append((node, True))
            for arg in node.args:
                stack.append((arg, False))
            continue
        cache[node.tid] = _combine(node, [cache[a.tid] for a in node.args])
    return cache[term.tid]


def _bit_ceiling(value: int) -> int:
    """Smallest all-ones mask covering ``value``."""
    return (1 << value.bit_length()) - 1


def _combine(node: T.Term, argv) -> Interval:
    op, w = node.op, node.width
    top = T.mask(w)
    if op == T.ADD:
        lo = argv[0][0] + argv[1][0]
        hi = argv[0][1] + argv[1][1]
        return (lo, hi) if hi <= top else _full(w)
    if op == T.SUB:
        lo = argv[0][0] - argv[1][1]
        hi = argv[0][1] - argv[1][0]
        return (lo, hi) if lo >= 0 else _full(w)
    if op == T.MUL:
        lo = argv[0][0] * argv[1][0]
        hi = argv[0][1] * argv[1][1]
        return (lo, hi) if hi <= top else _full(w)
    if op == T.UDIV:
        (alo, ahi), (blo, bhi) = argv
        if blo > 0:
            return (alo // bhi, ahi // blo)
        return _full(w)
    if op == T.UREM:
        (alo, ahi), (blo, bhi) = argv
        if blo > 0:
            return (0, min(ahi, bhi - 1))
        return (0, max(ahi, bhi - 1 if bhi else 0))
    if op == T.AND:
        return (0, min(argv[0][1], argv[1][1]))
    if op == T.OR:
        return (max(argv[0][0], argv[1][0]),
                min(top, _bit_ceiling(argv[0][1] | argv[1][1])))
    if op == T.XOR:
        return (0, min(top, _bit_ceiling(argv[0][1] | argv[1][1])))
    if op == T.NOT:
        return (top - argv[0][1], top - argv[0][0])
    if op == T.SHL:
        (alo, ahi), (blo, bhi) = argv
        if blo == bhi:
            if blo >= w:
                return (0, 0)
            hi = ahi << blo
            if hi <= top:
                return (alo << blo, hi)
        return _full(w)
    if op == T.LSHR:
        (alo, ahi), (blo, bhi) = argv
        if blo == bhi:
            if blo >= w:
                return (0, 0)
            return (alo >> blo, ahi >> blo)
        return (0, argv[0][1])
    if op == T.ASHR:
        return _full(w)
    if op == T.CONCAT:
        lo_width = node.args[1].width
        return (argv[0][0] << lo_width, (argv[0][1] << lo_width) | argv[1][1])
    if op == T.EXTRACT:
        hi_bit, lo_bit = node.params
        if lo_bit == 0:
            return (0, min(T.mask(w), argv[0][1]))
        return _full(w)
    if op == T.ZEXT:
        return argv[0]
    if op == T.SEXT:
        inner_width = node.args[0].width
        if argv[0][1] < (1 << (inner_width - 1)):
            return argv[0]
        return _full(w)
    if op == T.ITE:
        clo, chi = argv[0]
        if clo == chi:
            return argv[1] if clo == 1 else argv[2]
        return (min(argv[1][0], argv[2][0]), max(argv[1][1], argv[2][1]))
    if op == T.EQ:
        (alo, ahi), (blo, bhi) = argv
        if ahi < blo or bhi < alo:
            return (0, 0)
        if alo == ahi == blo == bhi:
            return (1, 1)
        return (0, 1)
    if op == T.ULT:
        (alo, ahi), (blo, bhi) = argv
        if ahi < blo:
            return (1, 1)
        if alo >= bhi:
            return (0, 0)
        return (0, 1)
    if op == T.ULE:
        (alo, ahi), (blo, bhi) = argv
        if ahi <= blo:
            return (1, 1)
        if alo > bhi:
            return (0, 0)
        return (0, 1)
    return _full(w)


def _atom_bounds(cond: T.Term, bounds: Dict[int, Interval]) -> None:
    """Refine per-variable bounds from one atomic predicate, if it has the
    shape ``var <op> const`` (or its negation).  Sound refinements only."""
    negated = False
    while cond.op == T.NOT:
        negated = not negated
        cond = cond.args[0]
    if cond.op not in (T.EQ, T.ULT, T.ULE) or len(cond.args) != 2:
        return
    a, b = cond.args
    if a.op == T.VAR and b.op == T.CONST:
        v, c, var_on_left = a, b.value, True
    elif b.op == T.VAR and a.op == T.CONST:
        v, c, var_on_left = b, a.value, False
    else:
        return
    lo, hi = bounds.get(v.tid, _full(v.width))
    top = T.mask(v.width)
    op = cond.op
    if op == T.EQ:
        if not negated:
            lo, hi = max(lo, c), min(hi, c)
        # negated eq refines nothing interval-wise (a hole, not a bound)
    elif op == T.ULT:
        if var_on_left:      # v < c  /  not(v < c) == v >= c
            if not negated:
                hi = min(hi, c - 1)
            else:
                lo = max(lo, c)
        else:                # c < v  /  not(c < v) == v <= c
            if not negated:
                lo = max(lo, c + 1)
            else:
                hi = min(hi, c)
    elif op == T.ULE:
        if var_on_left:      # v <= c  /  v > c
            if not negated:
                hi = min(hi, c)
            else:
                lo = max(lo, c + 1)
        else:                # c <= v  /  v < c
            if not negated:
                lo = max(lo, c)
            else:
                hi = min(hi, c - 1)
    lo, hi = max(lo, 0), min(hi, top)
    bounds[v.tid] = (lo, hi)


def refute_conjunction(conds) -> bool:
    """True when interval propagation proves the conjunction unsatisfiable.

    First pass harvests per-variable bounds from atomic predicates; second
    pass re-evaluates every conjunct's interval with those refined variable
    ranges.  An empty variable range or a conjunct pinned to 0 is a proof of
    unsatisfiability.
    """
    conds = list(conds)
    bounds: Dict[int, Interval] = {}
    for cond in conds:
        _atom_bounds(cond, bounds)
    for lo, hi in bounds.values():
        if lo > hi:
            return True
    cache: Dict[int, Interval] = dict(bounds)
    for cond in conds:
        if interval(cond, cache) == (0, 0):
            return True
    return False
