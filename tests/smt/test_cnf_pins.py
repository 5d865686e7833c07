"""The bit-blaster's CNF is pinned: same clauses, in the same order.

The SAT pins (``test_sat_search.py``) hold each solve's CNF size, not
the clauses themselves.  A change to how the bit-blaster hands clauses
to the SAT core can keep every size and still reorder a clause's
literals, which moves the watches, and so the search, far from its
cause.  This module blasts ``eq(op(x, y), z)`` into a fresh
:class:`~repro.smt.bitblast.BitBlaster` for every operator
``_blast_node`` handles, at widths 1, 3, 8 and 32 where the operator
applies, and compares ``num_vars``, ``num_clauses`` and a sha256 of
``to_dimacs()`` with ``cnf_pins.json``.  ``shl(x, x)`` and
``lshr(x, x)`` at width 8 are in the corpus too: there a mux's select
equals its shifted-in bit, so some of its clauses repeat a literal or
hold one and its negation, and the SAT core must drop the repeat or the
whole clause.

Variables are named per case, and every case declares ``x``, ``y`` and
``z`` before building the operator, so the term pool orders operands
the same way whatever ran earlier in the process.

Running the module as a script prints the pins again from the code at
hand::

    PYTHONPATH=src python -m tests.smt.test_cnf_pins \\
        > tests/smt/cnf_pins.json
"""

import hashlib
import json
import os
import sys

import pytest

from repro.smt import terms as T
from repro.smt.bitblast import BitBlaster

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "cnf_pins.json")

WIDTHS = (1, 3, 8, 32)

#: Operators of two same-width operands whose result has that width.
BINARY = {
    "add": T.add, "sub": T.sub, "mul": T.mul, "udiv": T.udiv,
    "urem": T.urem, "sdiv": T.sdiv, "srem": T.srem, "and": T.and_,
    "or": T.or_, "xor": T.xor, "shl": T.shl, "lshr": T.lshr,
    "ashr": T.ashr,
}

#: Predicates of two same-width operands: a width-1 result.
PREDICATES = {"eq": T.eq, "ult": T.ult, "ule": T.ule}


def _case(name, width, build, out_width=None):
    """One corpus member: ``eq(build(x, y, c), z)`` over variables named
    after the case, with ``z`` as wide as the result."""
    def run():
        x = T.var("cnfpin.%s.x" % name, width)
        y = T.var("cnfpin.%s.y" % name, width)
        c = T.var("cnfpin.%s.c" % name, 1)
        z = T.var("cnfpin.%s.z" % name, out_width or width)
        return T.eq(build(x, y, c), z)
    return name, run


def corpus():
    """name -> a callable returning the corpus member's boolean term."""
    cases = []
    for width in WIDTHS:
        tag = "w%d" % width
        for op, build in BINARY.items():
            cases.append(_case("%s-%s" % (op, tag), width,
                               lambda x, y, c, f=build: f(x, y)))
        for op, build in PREDICATES.items():
            cases.append(_case("%s-%s" % (op, tag), width,
                               lambda x, y, c, f=build: f(x, y), 1))
        pattern = T.bv(0x5a5a5a5b, width)
        cases.append(_case("const-" + tag, width,
                           lambda x, y, c, k=pattern: T.add(x, k)))
        cases.append(_case("not-" + tag, width,
                           lambda x, y, c: T.not_(x)))
        cases.append(_case("concat-" + tag, width,
                           lambda x, y, c: T.concat(x, y), 2 * width))
        cases.append(_case("zext-" + tag, width,
                           lambda x, y, c: T.zext(x, 3), width + 3))
        cases.append(_case("sext-" + tag, width,
                           lambda x, y, c: T.sext(x, 3), width + 3))
        cases.append(_case("ite-" + tag, width,
                           lambda x, y, c: T.ite(c, x, y)))
        if width > 1:
            hi, lo = width - 1, width // 2
            cases.append(_case("extract-" + tag, width,
                               lambda x, y, c, h=hi, l=lo:
                               T.extract(x, h, l), hi - lo + 1))
    cases.append(_case("shl-self-w8", 8, lambda x, y, c: T.shl(x, x)))
    cases.append(_case("lshr-self-w8", 8, lambda x, y, c: T.lshr(x, x)))
    return dict(cases)


def pin(name):
    """``[num_vars, num_clauses, sha256 of to_dimacs()]`` of one member
    blasted into a fresh blaster."""
    blaster = BitBlaster()
    blaster.literal_for(corpus()[name]())
    text = blaster.to_dimacs()
    return [blaster.sat.num_vars, blaster.sat.num_clauses,
            hashlib.sha256(text.encode("ascii")).hexdigest()]


@pytest.fixture(scope="module")
def pins():
    with open(PINS_PATH) as handle:
        return json.load(handle)


def test_every_corpus_member_is_pinned(pins):
    assert sorted(pins) == sorted(corpus())


def test_corpus_terms_keep_their_operator():
    """The term constructors fold nothing away: each member's left-hand
    side is the operator it is named after."""
    for name, build in corpus().items():
        term = build()
        assert term.op == T.EQ, name
        ops = {arg.op for arg in term.args}
        op = name.split("-")[0]
        assert (T.ADD if op == "const" else op) in ops, (name, ops)


@pytest.mark.parametrize("name", sorted(corpus()))
def test_cnf_matches_pins(pins, name):
    got = pin(name)
    want = pins[name]
    assert got[:2] == want[:2], (
        "%s: (num_vars, num_clauses) %r != %r" % (name, got[:2], want[:2]))
    assert got[2] == want[2], (
        "%s: same CNF size, but the clauses or their literal order "
        "differ" % name)


if __name__ == "__main__":
    sys.stdout.write("{\n%s\n}\n" % ",\n".join(
        "%s: %s" % (json.dumps(name), json.dumps(pin(name)))
        for name in sorted(corpus())))
