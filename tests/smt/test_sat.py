"""Unit tests for the CDCL SAT core."""

import itertools
import random

import pytest

from repro.smt.sat import SAT, UNSAT, SatSolver, luby


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert SatSolver().solve() == SAT

    def test_unit_clause(self):
        s = SatSolver()
        s.add_clause([1])
        assert s.solve() == SAT
        assert s.model()[1] == 1

    def test_contradicting_units(self):
        s = SatSolver()
        s.add_clause([1])
        s.add_clause([-1])
        assert s.solve() == UNSAT

    def test_empty_clause_is_unsat(self):
        s = SatSolver()
        s.add_clause([])
        assert s.solve() == UNSAT

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            SatSolver().add_clause([0])

    def test_zero_assumption_rejected(self):
        s = SatSolver()
        s.add_clause([1, 2])
        with pytest.raises(ValueError):
            s.solve(assumptions=[1, 0])
        assert s.solve(assumptions=[-1]) == SAT

    def test_tautology_ignored(self):
        s = SatSolver()
        s.add_clause([1, -1])
        assert s.solve() == SAT

    def test_duplicate_literals_deduped(self):
        s = SatSolver()
        s.add_clause([1, 1, 1])
        assert s.solve() == SAT
        assert s.model()[1] == 1

    def test_simple_implication_chain(self):
        s = SatSolver()
        s.add_clause([1])
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        assert s.solve() == SAT
        model = s.model()
        assert model[1] == model[2] == model[3] == 1

    def test_model_satisfies_clauses(self):
        s = SatSolver()
        clauses = [[1, 2], [-1, 3], [-2, -3], [1, -3]]
        for c in clauses:
            s.add_clause(c)
        assert s.solve() == SAT
        model = s.model()
        for c in clauses:
            assert any((lit > 0) == (model[abs(lit)] == 1) for lit in c)


class TestPigeonhole:
    def _pigeonhole(self, holes):
        """n+1 pigeons into n holes: classic small UNSAT family."""
        pigeons = holes + 1
        s = SatSolver()

        def v(p, h):
            return p * holes + h + 1

        for p in range(pigeons):
            s.add_clause([v(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-v(p1, h), -v(p2, h)])
        return s

    def test_php3_unsat(self):
        assert self._pigeonhole(3).solve() == UNSAT

    def test_php4_unsat(self):
        assert self._pigeonhole(4).solve() == UNSAT

    def test_learning_happens(self):
        s = self._pigeonhole(4)
        s.solve()
        assert s.stats["conflicts"] > 0


class TestAssumptions:
    def test_sat_under_assumptions(self):
        s = SatSolver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1]) == SAT
        assert s.model()[2] == 1

    def test_unsat_under_assumptions_then_sat(self):
        s = SatSolver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1, -2]) == UNSAT
        assert s.solve(assumptions=[-1]) == SAT
        assert s.solve() == SAT

    def test_assumption_conflicts_with_unit(self):
        s = SatSolver()
        s.add_clause([5])
        assert s.solve(assumptions=[-5]) == UNSAT
        assert s.solve(assumptions=[5]) == SAT

    def test_incremental_reuse(self):
        s = SatSolver()
        # (a | b) & (!a | c)
        s.add_clause([1, 2])
        s.add_clause([-1, 3])
        for _ in range(3):
            assert s.solve(assumptions=[1]) == SAT
            assert s.model()[3] == 1
            assert s.solve(assumptions=[-3, 1]) == UNSAT


class TestRandom3Sat:
    def _brute_force(self, num_vars, clauses):
        for bits in itertools.product([0, 1], repeat=num_vars):
            if all(any((lit > 0) == (bits[abs(lit) - 1] == 1) for lit in c)
                   for c in clauses):
                return True
        return False

    def test_agrees_with_brute_force(self):
        rng = random.Random(1234)
        for round_no in range(40):
            num_vars = rng.randint(3, 8)
            num_clauses = rng.randint(2, 30)
            clauses = []
            for _ in range(num_clauses):
                size = rng.randint(1, 3)
                clause = [rng.choice([-1, 1]) * rng.randint(1, num_vars)
                          for _ in range(size)]
                clauses.append(clause)
            s = SatSolver()
            for c in clauses:
                s.add_clause(c)
            got = s.solve()
            expected = SAT if self._brute_force(num_vars, clauses) else UNSAT
            assert got == expected, (round_no, clauses)
            if got == SAT:
                model = s.model()
                for c in clauses:
                    assert any((lit > 0) == (model[abs(lit)] == 1)
                               for lit in c), (clauses, model)
