"""Soundness of the known-bits abstract domain.

For every term and every concrete assignment, a bit the domain claims
to know must match the evaluated value — the one-sided guarantee the
canonicalizer's width shrinking (``normalize.canon``) relies on.
"""

import random

import pytest

from repro.smt import terms as T
from repro.smt.knownbits import (definitely_unequal, known_bits,
                                 significant_width)


def _vars():
    return T.var("kb_a", 8), T.var("kb_b", 8)


def _sample_terms():
    a, b = _vars()
    return [
        T.bv(0xA5, 8),
        a,
        T.and_(a, T.bv(0xF0, 8)),
        T.or_(a, T.bv(0x0F, 8)),
        T.xor(a, b),
        T.not_(a),
        T.zext(a, 8),
        T.sext(T.bv(0x80, 8), 8),
        T.extract(T.concat(a, b), 11, 4),
        T.add(T.and_(a, T.bv(0x0F, 8)), T.bv(1, 8)),
        T.sub(a, a),
        T.mul(a, T.bv(4, 8)),
        T.shl(a, T.bv(3, 8)),
        T.lshr(a, T.bv(5, 8)),
        T.ashr(a, T.bv(5, 8)),
        T.ite(T.eq(a, b), T.bv(3, 8), T.bv(1, 8)),
        T.eq(T.and_(a, T.bv(0, 8)), T.bv(0, 8)),
    ]


def _assignments(count=128, seed=99):
    rng = random.Random(seed)
    rows = [{"kb_a": rng.randrange(256), "kb_b": rng.randrange(256)}
            for _ in range(count)]
    rows += [{"kb_a": 0, "kb_b": 0}, {"kb_a": 255, "kb_b": 255},
             {"kb_a": 0x80, "kb_b": 0x7F}]
    return rows


@pytest.mark.parametrize("position", range(len(_sample_terms())))
def test_known_bits_sound(position):
    term = _sample_terms()[position]
    known, value = known_bits(term, {})
    assert known & ~T.mask(term.width) == 0
    for env in _assignments():
        concrete = T.evaluate(term, env)
        assert concrete & known == value & known, (term, env)


@pytest.mark.parametrize("position", range(len(_sample_terms())))
def test_significant_width_sound(position):
    term = _sample_terms()[position]
    width = significant_width(term, {})
    assert 1 <= width <= term.width
    for env in _assignments(count=64):
        assert T.evaluate(term, env) <= T.mask(width), (term, width)


def test_constant_fully_known():
    known, value = known_bits(T.bv(0x5A, 8), {})
    assert known == 0xFF and value == 0x5A


def test_definite_equality_decisions_sound():
    a, _ = _vars()
    low = T.and_(a, T.bv(0x0F, 8))
    # Disjoint known bits: 0x10 | low can never equal low, so the EQ
    # rule makes their equality a known 0.
    high = T.or_(low, T.bv(0x10, 8))
    assert definitely_unequal(high, low, {})
    assert known_bits(T.eq(high, low), {}) == (1, 0)
    # A free variable is never definitely anything vs a constant.
    assert not definitely_unequal(a, T.bv(0, 8), {})
    assert known_bits(T.eq(a, T.bv(0, 8)), {}) == (0, 0)
