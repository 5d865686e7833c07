"""Tests for the DIMACS CNF export (external-solver interop aid)."""

import re

from repro.smt import Solver
from repro.smt import terms as T
from repro.smt.bitblast import BitBlaster


class TestDimacsExport:
    def test_header_and_clause_shape(self):
        blaster = BitBlaster()
        a = T.var("dim_a", 4)
        lit = blaster.literal_for(T.eq(a, T.bv(5, 4)))
        text = blaster.to_dimacs(assumptions=[lit])
        lines = text.strip().splitlines()
        assert lines[0].startswith("c ")
        header = re.match(r"p cnf (\d+) (\d+)", lines[1])
        assert header
        num_vars, num_clauses = int(header.group(1)), int(header.group(2))
        body = lines[2:]
        assert len(body) == num_clauses
        for line in body:
            literals = [int(tok) for tok in line.split()]
            assert literals[-1] == 0
            for lit_value in literals[:-1]:
                assert lit_value != 0
                assert abs(lit_value) <= num_vars

    def test_export_is_satisfiable_consistent(self):
        """A model from our solver satisfies the exported CNF."""
        solver = Solver(use_query_cache=False, use_intervals=False)
        x = T.var("dim_x", 8)
        cond = T.eq(T.add(x, T.bv(1, 8)), T.bv(0x80, 8))
        solver.add(cond)
        assert solver.check() == "sat"
        # Re-blast into a fresh blaster for the export.
        blaster = BitBlaster()
        lit = blaster.literal_for(cond)
        text = blaster.to_dimacs(assumptions=[lit])
        clauses = [[int(tok) for tok in line.split()[:-1]]
                   for line in text.strip().splitlines()[2:]]
        # Check the exported instance with our own SAT core.
        from repro.smt.sat import SAT, SatSolver
        checker = SatSolver()
        for clause in clauses:
            checker.add_clause(clause)
        assert checker.solve() == SAT
        model = checker.model()
        value = blaster.extract_model(model)["dim_x"]
        assert (value + 1) & 0xff == 0x80
