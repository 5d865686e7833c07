"""A CDCL SAT solver.

Implements the standard conflict-driven clause learning loop: two-watched-
literal propagation, first-UIP conflict analysis with learned-clause
minimization, EVSIDS branching, phase saving, and Luby restarts.  Pure
Python, tuned for the clause counts the bit-blaster produces (tens of
thousands of clauses), not for SAT-competition instances.

The public interface (:meth:`SatSolver.add_clause`, ``solve``, ``model``
and ``clauses``) speaks DIMACS: variables are positive integers, and a
negative integer denotes the negated literal.  Inside, a literal is a
*code*, ``2*v`` for ``v`` and ``2*v + 1`` for ``-v``: negation is
``code ^ 1``, the variable is ``code >> 1``, and one value list indexed
by code says whether a literal is true (1), false (0) or unassigned (-1).
Watch lists are indexed by code too; ``_watches[p]`` holds the clauses
watching ``p ^ 1``, visited when ``p`` becomes true.

Clauses come in at one normalizing path with two entry points:
:meth:`SatSolver.add_clause` takes DIMACS literals and
:meth:`SatSolver.add_codes` takes codes.  Both drop repeated literals
and tautologies, declare unseen variables and re-watch a clause added
after a solve.  The bit-blaster (:mod:`repro.smt.bitblast`) feeds
codes, and hands its ``and``/``xor`` gate clauses to
:meth:`SatSolver.attach`, which stores and watches a clause as it is.
That is sound only for the clauses a gate builds: the gate's fresh,
unassigned output first, then literals over distinct, declared
variables.

Branching takes the unassigned variable of highest activity, the lowest
index among ties.  A lazy min-heap of ``(-activity, var)`` entries finds
it: a bump pushes a fresh entry and leaves the old one stale, stale
entries and assigned variables are dropped when they reach the top, and
backtracking pushes a variable again only if its live entry was popped.
Rescaling the activities past 1e100 rebuilds the heap.

The search itself is part of the contract.  Every path input the engine
reports is read from a model, so a change to how this module computes
must not change which decision, propagation or conflict happens when:
``tests/smt/test_sat_search.py`` pins each solve's statistics and model
on a fixed corpus, and ``tests/smt/test_sat_heap.py`` holds every heap
pick to a linear scan over the activities.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["SatSolver", "SAT", "UNSAT", "lit_to_code", "code_to_lit"]

SAT = "sat"
UNSAT = "unsat"

_UNASSIGNED = -1


def luby(i: int) -> int:
    """The Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 ..."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


def lit_to_code(lit: int) -> int:
    """The code of a DIMACS literal."""
    if lit > 0:
        return lit << 1
    if lit < 0:
        return (-lit << 1) | 1
    raise ValueError("0 is not a valid literal")


def code_to_lit(code: int) -> int:
    """The DIMACS literal of a code."""
    return -(code >> 1) if code & 1 else code >> 1


class SatSolver:
    """Incremental-ish CDCL solver.

    Clauses persist across :meth:`solve` calls; per-call *assumptions* give
    the incremental interface the SMT layer needs (assert once, query under
    different assumption sets).
    """

    def __init__(self, decay: float = 0.95, restart_base: int = 100):
        self._num_vars = 0
        self._clauses: List[List[int]] = []   # every stored clause, as codes
        self._units: List[int] = []            # codes of the unit clauses
        self._watches: List[List[List[int]]] = [[], []]  # code -> clauses
        self._val: List[int] = [_UNASSIGNED, _UNASSIGNED]
        self._level: List[int] = [0]
        self._reason: List[Optional[List[int]]] = [None]
        self._phase: List[int] = [1]           # var -> code to branch on
        self._activity: List[float] = [0.0]
        self._heap: List[tuple] = []
        self._in_heap: List[bool] = [False]    # var has a live heap entry
        self._seen: List[bool] = [False]       # conflict-analysis marks
        self._var_inc = 1.0
        self._decay = decay
        self._restart_base = restart_base
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._queue_head = 0
        # Set by an empty clause or a conflict at level 0: the clauses are
        # unsatisfiable for good, so every later solve answers UNSAT.
        self._refuted = False
        # Statistics, exposed for the benchmarks.
        self.stats = {"decisions": 0, "propagations": 0, "conflicts": 0,
                      "restarts": 0, "learned": 0}

    # -- construction -------------------------------------------------------

    def new_var(self) -> int:
        var = self._num_vars = self._num_vars + 1
        self._val += (_UNASSIGNED, _UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._phase.append(2 * var + 1)
        self._activity.append(0.0)
        self._in_heap.append(True)
        self._seen.append(False)
        self._watches += ([], [])
        # Activity 0 and the highest index: no entry sorts after this one,
        # so appending keeps the heap ordered.
        self._heap.append((-0.0, var))
        return var

    def _grow(self, num_vars: int) -> None:
        while self._num_vars < num_vars:
            self.new_var()

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a clause (a sequence of DIMACS literals)."""
        self.add_codes([lit_to_code(lit) for lit in lits])

    def add_codes(self, codes: Sequence[int]) -> None:
        """Add a clause given as literal codes.  Repeated literals are
        dropped, a tautology is dropped whole, the empty clause refutes
        the solver, and undeclared variables are declared."""
        clause: List[int] = []
        top = 0
        for code in codes:
            var = code >> 1
            if var > top:
                top = var
            if code in clause:
                continue
            if code ^ 1 in clause:
                self._grow(top)
                return  # tautology
            clause.append(code)
        if top > self._num_vars:
            self._grow(top)
        if not clause:
            self._refuted = True
            return
        if len(clause) == 1:
            self._clauses.append(clause)
            # Kept apart so every solve replays them at level 0.
            self._units.append(clause[0])
            return
        val = self._val
        if val[clause[0]] == 0 and val[clause[1]] == 0:
            self._watch_past_level0(clause)
        self.attach(clause)

    def attach(self, clause: List[int]) -> None:
        """Store a clause of literal codes as it is and watch its first
        two literals.  The caller guarantees what :meth:`add_codes`
        would otherwise establish: at least two literals over distinct,
        declared variables, and a first literal whose variable is
        unassigned, as a gate's fresh output is."""
        self._clauses.append(clause)
        watches = self._watches
        watches[clause[0] ^ 1].append(clause)
        watches[clause[1] ^ 1].append(clause)

    def _watch_past_level0(self, clause: List[int]) -> None:
        """A clause added after a solve whose first two literals are false
        at level 0 would be watched where propagation never looks again:
        watch two literals that are not, or keep what the clause forces."""
        val = self._val
        level = self._level

        def dead(code):
            return val[code] == 0 and level[code >> 1] == 0

        if not (dead(clause[0]) and dead(clause[1])):
            return
        clause.sort(key=dead)  # stable: live literals first, in order
        if dead(clause[0]):
            self._refuted = True
        elif dead(clause[1]):
            self._units.append(clause[0])

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    def clauses(self) -> List[List[int]]:
        """Every stored clause as DIMACS literals, in the order added."""
        return [[code_to_lit(code) for code in clause]
                for clause in self._clauses]

    # -- assignment helpers --------------------------------------------------

    def _assign(self, code: int, reason: Optional[List[int]]) -> None:
        val = self._val
        val[code] = 1
        val[code ^ 1] = 0
        var = code >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(code)

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or None."""
        trail = self._trail
        watches = self._watches
        val = self._val
        level = self._level
        reason = self._reason
        depth = len(self._trail_lim)
        start = head = self._queue_head
        while head < len(trail):
            true_lit = trail[head]
            head += 1
            false_lit = true_lit ^ 1
            watch_list = watches[true_lit]
            i = 0
            end = len(watch_list)
            while i < end:
                clause = watch_list[i]
                # Make sure the falsified literal is in slot 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                if val[first] == 1:
                    i += 1
                    continue
                # Look for a replacement watch, scanning the tail in order.
                k = 2
                size = len(clause)
                while k < size:
                    other = clause[k]
                    if val[other] != 0:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other ^ 1].append(clause)
                        end -= 1
                        watch_list[i] = watch_list[end]
                        watch_list.pop()
                        break
                    k += 1
                else:
                    # Clause is unit or conflicting.
                    if val[first] == 0:
                        self._queue_head = head
                        self.stats["propagations"] += head - start
                        return clause
                    val[first] = 1
                    val[first ^ 1] = 0
                    var = first >> 1
                    level[var] = depth
                    reason[var] = clause
                    trail.append(first)
                    i += 1
        self._queue_head = head
        self.stats["propagations"] += head - start
        return None

    # -- conflict analysis ---------------------------------------------------

    def _rebuild_heap(self) -> None:
        activity = self._activity
        heap = self._heap
        heap[:] = [(-activity[var], var)
                   for var in range(1, self._num_vars + 1)]
        heapify(heap)
        self._in_heap[1:] = [True] * self._num_vars

    def _rescale(self) -> None:
        activity = self._activity
        for var in range(1, self._num_vars + 1):
            activity[var] *= 1e-100
        self._var_inc *= 1e-100
        self._rebuild_heap()

    def _analyze(self, conflict: List[int]):
        """First-UIP learning; returns (learned clause, backtrack level)."""
        level = self._level
        reason = self._reason
        trail = self._trail
        seen = self._seen
        activity = self._activity
        heap = self._heap
        in_heap = self._in_heap
        var_inc = self._var_inc
        learned: List[int] = [0]  # slot 0 becomes the asserting literal
        counter = 0
        lit = -1
        clause = conflict
        index = len(trail)
        current_level = len(self._trail_lim)
        while True:
            for q in clause:
                if q == lit:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    act = activity[var] = activity[var] + var_inc
                    if act > 1e100:
                        self._rescale()
                        var_inc = self._var_inc
                    elif in_heap[var]:
                        heappush(heap, (-act, var))
                    if level[var] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Walk the trail backwards to the next marked literal.
            while True:
                index -= 1
                lit = trail[index]
                if seen[lit >> 1]:
                    break
            counter -= 1
            seen[lit >> 1] = False
            if counter == 0:
                break
            clause = reason[lit >> 1]
        learned[0] = lit ^ 1
        # Clause minimization: drop literals implied by the rest.
        keep = [learned[0]]
        for q in learned[1:]:
            var = q >> 1
            reason_q = reason[var]
            if reason_q is None:
                keep.append(q)
                continue
            for r in reason_q:
                rvar = r >> 1
                if rvar != var and not seen[rvar] and level[rvar] > 0:
                    keep.append(q)
                    break
        for q in learned[1:]:
            seen[q >> 1] = False
        learned = keep
        if len(learned) == 1:
            back_level = 0
        else:
            # Second-highest decision level in the clause.
            back_level = max(level[q >> 1] for q in learned[1:])
            # Ensure the literal at that level is in slot 1 (watch invariant).
            for k in range(1, len(learned)):
                if level[learned[k] >> 1] == back_level:
                    learned[1], learned[k] = learned[k], learned[1]
                    break
        return learned, back_level

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        limit = trail_lim[level]
        val = self._val
        phase = self._phase
        in_heap = self._in_heap
        heap = self._heap
        activity = self._activity
        for code in trail[limit:]:
            var = code >> 1
            phase[var] = code
            val[code] = val[code ^ 1] = _UNASSIGNED
            if not in_heap[var]:
                in_heap[var] = True
                heappush(heap, (-activity[var], var))
        del trail[limit:]
        del trail_lim[level:]
        self._queue_head = len(trail)

    def _pick_branch(self) -> Optional[int]:
        """The phase-saved literal of the unassigned variable with the
        highest activity (lowest index among ties), or None."""
        if len(self._trail) == self._num_vars:
            return None  # all assigned: no need to drain the heap
        heap = self._heap
        activity = self._activity
        in_heap = self._in_heap
        val = self._val
        while heap:
            neg_act, var = heappop(heap)
            if -neg_act != activity[var]:
                continue  # stale: the variable was bumped since
            in_heap[var] = False
            if val[var << 1] == _UNASSIGNED:
                return self._phase[var]
        return None

    # -- main loop -----------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = ()) -> str:
        """Solve under ``assumptions``; returns :data:`SAT` or :data:`UNSAT`."""
        if self._refuted:
            return UNSAT
        self._backtrack(0)
        val = self._val
        # Replay unit clauses at level 0.
        for code in self._units:
            if val[code] == 0:
                self._refuted = True
                return UNSAT
            if val[code] == _UNASSIGNED:
                self._assign(code, None)
        if self._propagate() is not None:
            self._refuted = True
            return UNSAT
        assumptions = [lit_to_code(lit) for lit in assumptions]
        for code in assumptions:
            self._grow(code >> 1)
        trail = self._trail
        trail_lim = self._trail_lim
        watches = self._watches
        stats = self.stats
        restart_round = 1
        conflicts_until_restart = self._restart_base * luby(restart_round)
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats["conflicts"] += 1
                conflicts_here += 1
                if not trail_lim:
                    self._refuted = True
                    return UNSAT
                if len(trail_lim) <= len(assumptions):
                    # Conflict forced purely by the assumptions.
                    return UNSAT
                learned, back_level = self._analyze(conflict)
                back_level = max(back_level, len(assumptions))
                if back_level >= len(trail_lim):
                    back_level = len(trail_lim) - 1
                self._backtrack(back_level)
                if len(learned) > 1:
                    watches[learned[0] ^ 1].append(learned)
                    watches[learned[1] ^ 1].append(learned)
                    stats["learned"] += 1
                self._assign(learned[0], learned)
                self._var_inc /= self._decay
                if len(self._heap) > 4 * self._num_vars + 64:
                    self._rebuild_heap()  # drop the stale entries
                continue
            if conflicts_here >= conflicts_until_restart:
                stats["restarts"] += 1
                restart_round += 1
                conflicts_until_restart = self._restart_base * luby(restart_round)
                conflicts_here = 0
                self._backtrack(len(assumptions)
                                if len(trail_lim) > len(assumptions) else 0)
                continue
            # Apply pending assumptions, one decision level each.
            if len(trail_lim) < len(assumptions):
                code = assumptions[len(trail_lim)]
                value = val[code]
                if value == 0:
                    return UNSAT
                trail_lim.append(len(trail))
                if value == _UNASSIGNED:
                    self._assign(code, None)
                continue
            decision = self._pick_branch()
            if decision is None:
                return SAT
            stats["decisions"] += 1
            trail_lim.append(len(trail))
            self._assign(decision, None)

    def model(self) -> Dict[int, int]:
        """Assignment after a SAT answer: var -> 0/1 (unassigned vars -> 0)."""
        val = self._val
        return {var: (1 if val[2 * var] == 1 else 0)
                for var in range(1, self._num_vars + 1)}
