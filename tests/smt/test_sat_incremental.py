"""Incremental use of the CDCL core, checked against brute force.

The SMT layer keeps one :class:`~repro.smt.sat.SatSolver` for a whole
exploration: it adds clauses between solves and asks each query under
assumptions, so learned clauses, the level-0 trail, the unit list and
the branching heap all carry over from one ``solve`` to the next.
Hypothesis drives random streams that interleave ``new_var``,
``add_clause`` and ``solve(assumptions)`` over at most 10 variables —
with duplicate literals, tautologies, the empty clause, variables the
solver has not seen yet, and units added after a solve — and every
verdict is checked by enumerating all assignments.  Every SAT model must
satisfy every clause added so far and every assumption.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.smt.sat import SAT, UNSAT, SatSolver

MAX_VARS = 10


def literals(num_vars):
    return st.integers(1, num_vars).flatmap(
        lambda var: st.sampled_from((var, -var)))


@st.composite
def streams(draw):
    """Operations over a few variables: small formulas reach level-0
    units and conflicts, the states incremental solving gets wrong."""
    lits = literals(draw(st.integers(1, MAX_VARS)))
    operation = st.one_of(
        st.just(("new_var", None)),
        st.tuples(st.just("clause"), st.lists(lits, min_size=1,
                                              max_size=4)),
        st.tuples(st.just("clause"), st.lists(lits, max_size=1)),
        st.tuples(st.just("solve"), st.lists(lits, max_size=3)),
        st.just(("solve", [])),
    )
    return draw(st.lists(operation, min_size=10, max_size=60))


def satisfiable(num_vars, clauses):
    for bits in itertools.product((0, 1), repeat=num_vars):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
               for clause in clauses):
            return True
    return False


def satisfies(model, clause):
    """Tautologies hold even over variables the solver never created."""
    return any(-lit in clause or model[abs(lit)] == (lit > 0)
               for lit in clause)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(streams())
# A conflict at level 0 makes the formula UNSAT for good: a later solve
# must not resume propagation from where the conflict stopped it.
@example([("clause", [1]), ("clause", [2]), ("clause", [-1, -2]),
          ("solve", []), ("solve", [])])
# A clause added after a solve whose watched literals are both false at
# level 0: no propagation ever visits it again, so the clause must not be
# watched there.
@example([("clause", [1]), ("clause", [2]), ("solve", []),
          ("clause", [-1, -2, 3]), ("clause", [-3]), ("solve", [])])
@example([("clause", [1]), ("clause", [2]), ("solve", []),
          ("clause", [-1, -2]), ("solve", [])])
def test_stream_verdicts_match_brute_force(stream):
    solver = SatSolver()
    clauses = []
    for op, arg in stream:
        if op == "new_var":
            if solver.num_vars < MAX_VARS:
                assert solver.new_var() == solver.num_vars
            continue
        if op == "clause":
            solver.add_clause(arg)
            clauses.append(arg)
            continue
        verdict = solver.solve(arg)
        query = clauses + [[lit] for lit in arg]
        num_vars = max([solver.num_vars]
                       + [abs(lit) for clause in query for lit in clause])
        assert verdict == (SAT if satisfiable(num_vars, query) else UNSAT), \
            (stream, arg)
        if verdict == SAT:
            model = solver.model()
            assert sorted(model) == list(range(1, solver.num_vars + 1))
            assert all(satisfies(model, clause) for clause in query), \
                (stream, arg)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.lists(literals(6), min_size=1, max_size=3), max_size=30),
       st.lists(st.lists(literals(6), max_size=3), min_size=2, max_size=6))
def test_repeated_solves_on_a_fixed_formula(clauses, queries):
    """The same formula asked under several assumption sets: every
    answer agrees with solving from scratch."""
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)
    for assumptions in queries:
        fresh = SatSolver()
        for clause in clauses:
            fresh.add_clause(clause)
        assert solver.solve(assumptions) == fresh.solve(assumptions), \
            (clauses, assumptions)
