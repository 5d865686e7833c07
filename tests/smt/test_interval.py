"""Unit tests for the interval pre-filter (soundness is the key property)."""

from repro.smt import terms as T
from repro.smt.interval import interval, refute_conjunction


def bv8(value):
    return T.bv(value, 8)


class TestBasicIntervals:
    def test_const(self):
        assert interval(bv8(42)) == (42, 42)

    def test_var_is_full_range(self):
        assert interval(T.var("iv_x", 8)) == (0, 255)

    def test_add_without_overflow(self):
        t = T.make_no_simplify_add if False else None
        # add of constants folds, so build with vars restricted via ite
        x = T.var("iv_x", 8)
        t = T.add(T.ite(T.var("iv_c", 1), bv8(1), bv8(2)), bv8(10))
        assert interval(t) == (11, 12)

    def test_add_with_possible_overflow_widens(self):
        x = T.var("iv_x", 8)
        assert interval(T.add(x, bv8(1))) == (0, 255)

    def test_ite_hull(self):
        c = T.var("iv_c", 1)
        t = T.ite(c, bv8(5), bv8(9))
        assert interval(t) == (5, 9)

    def test_zext_preserves(self):
        t = T.zext(T.ite(T.var("iv_c", 1), bv8(3), bv8(7)), 8)
        assert interval(t) == (3, 7)

    def test_and_bounded_by_min(self):
        x = T.var("iv_x", 8)
        assert interval(T.and_(x, bv8(0x0f)))[1] <= 0x0f

    def test_comparison_decided(self):
        sel = T.ite(T.var("iv_c", 1), bv8(1), bv8(2))
        assert interval(T.ult(sel, bv8(10))) == (1, 1)
        assert interval(T.ult(sel, bv8(1))) == (0, 0)


class TestDefiniteness:
    def test_definitely_false(self):
        sel = T.ite(T.var("iv_d", 1), bv8(1), bv8(2))
        assert interval(T.ugt(sel, bv8(100))) == (0, 0)

    def test_definitely_true(self):
        sel = T.ite(T.var("iv_d", 1), bv8(1), bv8(2))
        assert interval(T.ule(sel, bv8(2))) == (1, 1)

    def test_unknown_is_neither(self):
        x = T.var("iv_e", 8)
        assert interval(T.ult(x, bv8(10))) == (0, 1)


class TestRefuteConjunction:
    def test_contradictory_bounds(self):
        x = T.var("rc_x", 8)
        assert refute_conjunction([T.ult(x, bv8(3)), T.ugt(x, bv8(200))])

    def test_eq_vs_bound(self):
        x = T.var("rc_y", 8)
        assert refute_conjunction([T.eq(x, bv8(50)), T.ult(x, bv8(10))])

    def test_negated_bound(self):
        x = T.var("rc_z", 8)
        # not(x < 100) means x >= 100; combined with x < 50 -> unsat
        assert refute_conjunction([T.not_(T.ult(x, bv8(100))),
                                   T.ult(x, bv8(50))])

    def test_satisfiable_not_refuted(self):
        x = T.var("rc_w", 8)
        assert not refute_conjunction([T.ult(x, bv8(100)),
                                       T.ugt(x, bv8(50))])

    def test_constant_reversed_operand(self):
        x = T.var("rc_v", 8)
        # 200 <= x  together with  x <= 100
        assert refute_conjunction([T.uge(x, bv8(200)), T.ule(x, bv8(100))])

    def test_empty_conjunction_sat(self):
        assert not refute_conjunction([])

    def test_soundness_never_refutes_sat_random(self):
        import random

        from repro.smt import evaluate
        rng = random.Random(7)
        x = T.var("rc_r", 8)
        for _ in range(100):
            lo = rng.randrange(0, 200)
            hi = lo + rng.randrange(0, 55)
            conds = [T.uge(x, bv8(lo)), T.ule(x, bv8(hi))]
            witness = {"rc_r": lo}
            assert all(evaluate(c, witness) == 1 for c in conds)
            assert not refute_conjunction(conds)
