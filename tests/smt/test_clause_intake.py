"""The bit-blaster's two ways into the SAT core store the same clauses.

``_and`` and ``_xor`` clauses start with the gate's fresh output and
hold distinct variables, so the bit-blaster hands them to
:meth:`SatSolver.attach` as built.  Every other clause goes through
:meth:`SatSolver.add_codes`, the normalizing path that
:meth:`SatSolver.add_clause` also takes from DIMACS.

This module draws random sequences of ``_and``, ``_xor`` and ``_mux``
gates over a small pool of literals, so that operands often repeat or
negate each other, and blasts them into one solver.  It feeds the same
clauses, as DIMACS, through ``add_clause`` into a twin solver.  Both
must then hold the same clauses, the same unit list and the same watch
list for every literal code, and answer the same random assumption sets
with the same verdict, statistics and model.  Gates drawn after a solve
take the incremental path, where normalization may reorder a clause.
"""

import random

import pytest

from repro.smt.bitblast import BitBlaster
from repro.smt.sat import SAT, SatSolver, code_to_lit

SEEDS = range(40)
ROUNDS = 3
GATES_PER_ROUND = 30
INPUTS = 5


def _draw_gate(rng, blaster, pool):
    """Add one random gate over ``pool``'s literals; returns its output."""
    def pick():
        lit = rng.choice(pool)
        return lit ^ 1 if rng.random() < 0.5 else lit

    kind = rng.choice(("and", "xor", "mux"))
    if kind == "and":
        return blaster._and(pick(), pick())
    if kind == "xor":
        return blaster._xor(pick(), pick())
    sel, then, other = pick(), pick(), pick()
    if rng.random() < 0.3:
        # The shifter's case: the select is, or negates, an arm.
        if rng.random() < 0.5:
            then = sel ^ rng.randrange(2)
        else:
            other = sel ^ rng.randrange(2)
    return blaster._mux(sel, then, other)


def _assert_twins(sat, twin):
    assert twin.num_vars == sat.num_vars
    assert twin.clauses() == sat.clauses()
    assert twin._units == sat._units
    assert twin._watches == sat._watches


def _sync(sat, twin, copied):
    """Declare ``sat``'s variables in ``twin`` and add the clauses stored
    since the first ``copied``; returns the new count."""
    while twin.num_vars < sat.num_vars:
        twin.new_var()
    stored = sat.clauses()
    for clause in stored[copied:]:
        twin.add_clause(clause)
    return len(stored)


@pytest.mark.parametrize("seed", SEEDS)
def test_gate_path_matches_dimacs_intake(seed):
    rng = random.Random(seed)
    blaster = BitBlaster()
    sat = blaster.sat
    twin = SatSolver()
    pool = [blaster._true] + [blaster._fresh() for _ in range(INPUTS)]
    copied = 0
    for _ in range(ROUNDS):
        for _ in range(GATES_PER_ROUND):
            pool.append(_draw_gate(rng, blaster, pool))
        copied = _sync(sat, twin, copied)
        _assert_twins(sat, twin)
        for _ in range(2):
            assumptions = [code_to_lit(rng.choice(pool) ^ rng.randrange(2))
                           for _ in range(rng.randint(1, 4))]
            verdict = sat.solve(assumptions)
            assert twin.solve(assumptions) == verdict
            assert twin.stats == sat.stats
            if verdict == SAT:
                assert twin.model() == sat.model()
            _assert_twins(sat, twin)
