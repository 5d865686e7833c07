"""The operator library's int path against ``T``'s constant folding.

Generated plans do masked int arithmetic while every operand is
concrete and call the ``T`` constructors otherwise
(:mod:`repro.compile.ops`).  Translation validation proves the term
path and checks the width literals; this file is what ties the int
path to the term path: for every operator, the int result must equal
the constant the ``T`` constructor folds the same operands to —
exhaustively at widths 1–8, on edge and seeded-random values at 16, 32
and 64 bits (the specs multiply at 64 bits and extend 32 -> 64 for
``mulh``).  It also pins the mixed path: a symbolic operand builds exactly
the term ``T`` builds, and a constant result comes back as an int.
"""

import itertools
import random

import pytest

from repro.compile import ops
from repro.smt import terms as T

BINARY = ["add", "sub", "mul", "udiv", "urem", "sdiv", "srem",
          "and_", "or_", "xor", "shl", "lshr", "ashr",
          "eq", "ne", "ult", "ule", "ugt", "uge",
          "slt", "sle", "sgt", "sge"]
UNARY = ["not_", "neg"]
SMALL_WIDTHS = range(1, 9)
WIDE_WIDTHS = [16, 32, 64]


@pytest.fixture(autouse=True)
def folding_pool():
    """A hash-consing, simplifying pool: the folding the int path must
    equal (restored afterwards)."""
    previous = T.set_pool(T.TermPool(hash_consing=True, simplify=True))
    yield
    T.set_pool(previous)


def _folded(term):
    assert term.is_const(), "T did not fold %r" % (term,)
    return term.value


def _edge_values(width):
    top = (1 << width) - 1
    sign = 1 << (width - 1)
    return sorted({0, 1, 2, 3, width - 1, width, width + 1, sign - 1,
                   sign, sign + 1, top - 1, top, 0x5555 & top,
                   0xaaaa & top})


def _wide_pairs(width, seed):
    rng = random.Random(seed)
    top = (1 << width) - 1
    edges = _edge_values(width)
    pairs = list(itertools.product(edges, edges))
    pairs += [(rng.randint(0, top), rng.randint(0, top))
              for _ in range(400)]
    pairs += [(rng.randint(0, top), rng.randint(0, width + 2))
              for _ in range(100)]            # in-range shift amounts
    return pairs


def _check_binary(name, width, pairs):
    op = ops.OPS[name]
    fold = getattr(T, name)
    consts = {}

    def const(value):
        term = consts.get(value)
        if term is None:
            term = consts[value] = T.bv(value, width)
        return term

    for a, b in pairs:
        got = op(a, b, width)
        assert type(got) is int, (name, width, a, b)
        want = _folded(fold(const(a), const(b)))
        assert got == want, (name, width, a, b, got, want)


@pytest.mark.parametrize("name", BINARY)
def test_binary_exhaustive_small_widths(name):
    for width in SMALL_WIDTHS:
        values = range(1 << width)
        _check_binary(name, width, itertools.product(values, values))


@pytest.mark.parametrize("width", WIDE_WIDTHS)
@pytest.mark.parametrize("name", BINARY)
def test_binary_edges_and_random_wide(name, width):
    _check_binary(name, width, _wide_pairs(width, seed=width * 1009))


@pytest.mark.parametrize("name", UNARY)
def test_unary(name):
    op, fold = ops.OPS[name], getattr(T, name)
    for width in list(SMALL_WIDTHS) + WIDE_WIDTHS:
        values = range(1 << width) if width <= 8 else _edge_values(width)
        for a in values:
            assert op(a, width) == _folded(fold(T.bv(a, width))), \
                (name, width, a)


def test_extensions():
    for width in list(SMALL_WIDTHS) + WIDE_WIDTHS:
        values = range(1 << width) if width <= 8 else _edge_values(width)
        for a, extra in itertools.product(values, (0, 1, 7, 8, 24, 32)):
            term = T.bv(a, width)
            assert ops.zext(a, width, extra) == \
                _folded(T.zext(term, extra)), (width, a, extra)
            assert ops.sext(a, width, extra) == \
                _folded(T.sext(term, extra)), (width, a, extra)


def test_extract():
    for width in list(SMALL_WIDTHS) + WIDE_WIDTHS:
        values = range(1 << width) if width <= 8 else _edge_values(width)
        for a in values:
            term = T.bv(a, width)
            for lo in range(width):
                for hi in range(lo, width):
                    assert ops.extract(a, width, hi, lo) == \
                        _folded(T.extract(term, hi, lo)), (width, a, hi, lo)


def test_concat():
    for hi_width in SMALL_WIDTHS:
        for lo_width in range(1, 9 - hi_width):
            for hi, lo in itertools.product(range(1 << hi_width),
                                            range(1 << lo_width)):
                want = T.concat(T.bv(hi, hi_width), T.bv(lo, lo_width))
                assert ops.concat(hi, lo, hi_width, lo_width) == \
                    _folded(want), (hi_width, lo_width, hi, lo)
    for width in (16, 32):
        for hi, lo in itertools.product(_edge_values(width),
                                        _edge_values(width)):
            assert ops.concat(hi, lo, width, width) == \
                _folded(T.concat(T.bv(hi, width), T.bv(lo, width)))


def test_ite_and_pc():
    for width in SMALL_WIDTHS:
        for cond, a, b in itertools.product((0, 1), range(1 << width),
                                            (0, (1 << width) - 1)):
            want = T.ite(T.bv(cond, 1), T.bv(a, width), T.bv(b, width))
            assert ops.ite(cond, a, b, width) == _folded(want)
    for value, width in itertools.product(_edge_values(32), (8, 16, 32)):
        assert ops.pc(value, width) == T.bv(value, width).value


def test_mixed_operands_build_the_t_term():
    """A symbolic operand: the operator returns exactly the term the
    ``T`` constructor builds from the lifted operands."""
    x = T.var("ops_x", 8)
    for name in BINARY:
        op, fold = ops.OPS[name], getattr(T, name)
        for value in (0, 1, 3, 0x80, 0xff):
            assert op(x, value, 8) is ops.norm(fold(x, T.bv(value, 8)))
            assert op(value, x, 8) is ops.norm(fold(T.bv(value, 8), x))
    assert ops.concat(x, 5, 8, 4) is T.concat(x, T.bv(5, 4))
    assert ops.ite(T.eq(x, T.bv(1, 8)), 2, x, 8) is \
        T.ite(T.eq(x, T.bv(1, 8)), T.bv(2, 8), x)


def test_constant_results_come_back_as_ints():
    x = T.var("ops_y", 8)
    assert ops.and_(x, 0, 8) == 0 and type(ops.and_(x, 0, 8)) is int
    assert ops.mul(0, x, 8) == 0
    assert ops.or_(x, 0xff, 8) == 0xff
    assert ops.xor(x, x, 8) == 0
    assert ops.eq(x, x, 8) == 1
    assert ops.ult(x, 0, 8) == 0
    assert ops.extract(T.concat(T.bv(0xa, 4), x), 12, 11, 8) == 0xa
    assert ops.ite(T.eq(x, T.bv(0, 8)), 7, 7, 8) == 7
    assert ops.norm(T.bv(9, 8)) == 9 and ops.norm(x) is x
    assert ops.lift(9, 8) is T.bv(9, 8) and ops.lift(x, 8) is x
