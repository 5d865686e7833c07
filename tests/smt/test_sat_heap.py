"""The branching heap picks what a linear scan over the variables picks.

:class:`~repro.smt.sat.SatSolver` branches on the unassigned variable of
highest activity, the lowest index among ties.  It finds that variable
in a lazy heap (stale entries skipped, popped variables pushed again on
backtrack, the heap rebuilt when activities are rescaled or when stale
entries pile up), and the search is pinned, so at every decision the
heap's pick must equal the scan it replaced.  Hypothesis (derandomized)
draws the formulas; one run per example starts the activity increment
near 1e100, so the rescale and its heap rebuild happen within a few
conflicts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.sat import UNSAT, SatSolver


class ScanCheckedSolver(SatSolver):
    """Asserts at every decision that the heap agrees with a scan."""

    def __init__(self):
        super().__init__()
        self.picks = 0
        self.rescales = 0
        self.rebuilds = 0

    def _scan(self):
        best_var, best_act = 0, -1.0
        for var in range(1, self.num_vars + 1):
            if self._val[2 * var] == -1 and self._activity[var] > best_act:
                best_var, best_act = var, self._activity[var]
        return self._phase[best_var] if best_var else None

    def _pick_branch(self):
        expected = self._scan()
        picked = super()._pick_branch()
        assert picked == expected, (picked, expected)
        self.picks += 1
        return picked

    def _rescale(self):
        self.rescales += 1
        super()._rescale()

    def _rebuild_heap(self):
        self.rebuilds += 1
        super()._rebuild_heap()


@st.composite
def formulas(draw):
    """(num_vars, clauses, assumption sets), near the 3-SAT threshold."""
    num_vars = draw(st.integers(5, 30))
    literal = st.integers(1, num_vars).flatmap(
        lambda var: st.sampled_from((var, -var)))
    size = int(4.3 * num_vars)
    clauses = draw(st.lists(st.lists(literal, min_size=2, max_size=3),
                            min_size=size, max_size=size))
    queries = draw(st.lists(st.lists(literal, max_size=4), min_size=1,
                            max_size=4))
    return num_vars, clauses, queries


def _run(clauses, queries, var_inc):
    solver = ScanCheckedSolver()
    solver._var_inc = var_inc
    for clause in clauses:
        solver.add_clause(clause)
    for assumptions in queries:
        if solver.solve(assumptions) == UNSAT and not assumptions:
            break
    return solver


@settings(max_examples=80, deadline=None, derandomize=True)
@given(formulas())
def test_heap_pick_equals_linear_scan(formula):
    _num_vars, clauses, queries = formula
    _run(clauses, queries, 1.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(formulas())
def test_heap_survives_rescale(formula):
    """Starting the increment at 1e99, a variable's tenth bump crosses
    1e100, and after 45 conflicts any bump does: activities are rescaled
    and the heap rebuilt in the middle of conflict analysis, and the
    picks after it still match."""
    _num_vars, clauses, queries = formula
    solver = _run(clauses, queries, 1e99)
    if solver.stats["conflicts"] > 45:
        assert solver.rescales > 0
    assert solver.rebuilds >= solver.rescales


def test_rescale_and_compaction_are_exercised():
    """One fixed hard formula (pigeonhole(6) is UNSAT after hundreds of
    conflicts) reaches both rebuild paths under the scan check."""
    holes = 6

    def var(pigeon, hole):
        return pigeon * holes + hole + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(holes + 1)]
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                clauses.append([-var(p1, h), -var(p2, h)])
    for var_inc, rescaled in ((1.0, False), (1e99, True)):
        solver = _run(clauses, [[]], var_inc)
        assert solver.stats["conflicts"] > 100
        assert solver.picks == solver.stats["decisions"]  # UNSAT: no last pick
        assert (solver.rescales > 0) == rescaled
        assert solver.rebuilds > solver.rescales  # stale-entry compaction
