"""The CDCL search is pinned: same decisions, propagations and conflicts.

Every path input the engine reports is read from a SAT model, so a
change inside :class:`~repro.smt.sat.SatSolver` that alters which
decision, propagation or conflict happens when can move the pinned
exploration fingerprints (``tests/compile/pinned_fingerprints.json``),
far from its cause.  This module replays a small fixed corpus and
compares every ``solve`` call with ``sat_search_pins.json``: the CNF
size it saw, its verdict, its :attr:`SatSolver.stats` delta and a
digest of its model.  The corpus:

* the engine exploring ``checksum`` kernels of length 4-7 and a depth-5
  maze on rv32 (the bit-blaster's CNF, solved under assumptions);
* pigeonhole(5), an UNSAT instance refuted by conflict learning;
* 40 seeded random 3-SAT instances near the threshold, each solved
  plainly and then under two assumption sets (incremental reuse).

The pins were recorded with the previous core, which scanned every
variable at each decision, and the current core reproduces all but 25
of them.  Those 25 are solves asked of a solver already refuted at
level 0, and they were recorded again: the current core answers them
UNSAT at once, with no search.  The previous core resumed the
propagation the conflict had cut short; here that still reached UNSAT
after a few more propagations, but on other formulas it answered SAT
(``test_sat_incremental.py`` has two).

A failure names the first solve that differs.  When the CNF size
already differs there, the bit-blaster or the engine moved, not the
search.  Running the module as a script prints the pins again from the
code at hand::

    PYTHONPATH=src python -m tests.smt.test_sat_search \\
        > tests/smt/sat_search_pins.json
"""

import hashlib
import json
import os
import random
import sys
from contextlib import contextmanager

import pytest

from repro.smt.sat import SAT, SatSolver

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "sat_search_pins.json")

STAT_KEYS = ("decisions", "propagations", "conflicts", "learned",
             "restarts")

#: Lengths of the checksum kernels; the bank draws each one's multiplier
#: and a reachable magic.
CHECKSUM_LENGTHS = (4, 5, 6, 7)
MAZE_DEPTH = 5
MAZE_SOLUTION = 0b10110
RANDOM_INSTANCES = 40


def _model_digest(model):
    bits = bytes(model[var] for var in range(1, len(model) + 1))
    return hashlib.sha256(bits).hexdigest()[:16]


@contextmanager
def recorded_solves():
    """Record every :meth:`SatSolver.solve` call made inside the block as
    ``[num_vars, num_clauses, assumptions, verdict, stats delta, model
    digest or None]``."""
    calls = []
    original = SatSolver.solve

    def solve(self, assumptions=()):
        assumptions = list(assumptions)
        before = [self.stats[key] for key in STAT_KEYS]
        shape = [self.num_vars, self.num_clauses, len(assumptions)]
        verdict = original(self, assumptions)
        delta = [self.stats[key] - old
                 for key, old in zip(STAT_KEYS, before)]
        digest = _model_digest(self.model()) if verdict == SAT else None
        calls.append(shape + [verdict, delta, digest])
        return verdict

    SatSolver.solve = solve
    try:
        yield calls
    finally:
        SatSolver.solve = original


def _checksum_bank():
    bank = random.Random("sat search pins")
    params = {}
    for length in CHECKSUM_LENGTHS:
        multiplier = bank.randrange(3, 256, 2)
        acc = 0
        for _ in range(length):
            acc = (acc * multiplier + bank.randrange(256)) & 0xffff
        params["checksum-l%d" % length] = dict(length=length, magic=acc,
                                               multiplier=multiplier)
    return params


def _explore(kernel, params):
    from repro.core import Engine
    from repro.programs import build_kernel
    model, image = build_kernel(kernel, "rv32", **params)
    engine = Engine(model)
    engine.load_image(image)
    engine.explore()


def pigeonhole(holes):
    """holes + 1 pigeons into ``holes`` holes, as DIMACS clauses."""
    def var(pigeon, hole):
        return pigeon * holes + hole + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(holes + 1)]
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def random_3sat(seed):
    """(clauses, assumption sets) of one seeded instance near the 4.26
    clause/variable threshold."""
    rng = random.Random(seed)
    num_vars = rng.randint(40, 70)
    clauses = [[rng.choice((-1, 1)) * var
                for var in rng.sample(range(1, num_vars + 1), 3)]
               for _ in range(int(4.26 * num_vars))]
    assumption_sets = [[rng.choice((-1, 1)) * var
                        for var in rng.sample(range(1, num_vars + 1), 4)]
                       for _ in range(2)]
    return clauses, assumption_sets


def _solve_cnf(clauses, assumption_sets=()):
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)
    solver.solve()
    for assumptions in assumption_sets:
        solver.solve(assumptions)


def corpus():
    """name -> a callable running one corpus member."""
    runs = {name: (lambda p=params: _explore("checksum", p))
            for name, params in _checksum_bank().items()}
    runs["maze-d%d" % MAZE_DEPTH] = lambda: _explore(
        "maze", dict(depth=MAZE_DEPTH, solution=MAZE_SOLUTION))
    runs["pigeonhole-5"] = lambda: _solve_cnf(pigeonhole(5))
    runs["random-3sat"] = lambda: [_solve_cnf(*random_3sat(seed))
                                   for seed in range(RANDOM_INSTANCES)]
    return runs


def record(name):
    with recorded_solves() as calls:
        corpus()[name]()
    return calls


@pytest.fixture(scope="module")
def pins():
    with open(PINS_PATH) as handle:
        return json.load(handle)


def test_every_corpus_member_is_pinned(pins):
    assert sorted(pins) == sorted(corpus())


@pytest.mark.parametrize("name", sorted(corpus()))
def test_search_matches_pins(pins, name):
    found = record(name)
    pinned = pins[name]
    for index, (got, want) in enumerate(zip(found, pinned)):
        if got[:3] != want[:3]:
            pytest.fail("%s solve %d: the CNF differs before the search "
                        "(num_vars, num_clauses, assumptions) %r != %r"
                        % (name, index, got[:3], want[:3]))
        assert got == want, (
            "%s solve %d: [verdict, %s delta, model digest] drifted"
            % (name, index, "/".join(STAT_KEYS)))
    assert len(found) == len(pinned), name


if __name__ == "__main__":
    # One solve a line keeps a drift's diff readable.
    sys.stdout.write("{\n%s\n}\n" % ",\n".join(
        "%s: [\n%s\n]" % (json.dumps(name), ",\n".join(
            json.dumps(call) for call in record(name)))
        for name in sorted(corpus())))
