"""Stateful property test (hypothesis): cached vs cache-free solver.

A :class:`RuleBasedStateMachine` drives a cached solver (every layer on)
and a cache-free reference through random interleavings of
assert / push / pop / check, letting hypothesis *search* for an
operation sequence on which the cache changes an answer — and shrink it
to a minimal reproduction if it ever finds one.  Two invariants:

* every check's verdict is identical on both solvers, and
* every SAT model concretely satisfies every asserted conjunct
  (including the check's extra constraints).

``derandomize=True`` pins the example stream so CI runs are
deterministic (the satellite requirement: fixed seed/profile).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, precondition, rule)

from repro.smt import SAT, Solver
from repro.smt import terms as T

WIDTH = 8
_VARS = ("sa", "sb", "sc")
_PREDS = (T.eq, T.ult, T.ule, T.slt, T.sle)
_BINOPS = (T.add, T.sub, T.xor, T.and_, T.or_)


@st.composite
def atoms(draw):
    roll = draw(st.integers(0, 2))
    if roll == 0:
        return T.var(draw(st.sampled_from(_VARS)), WIDTH)
    if roll == 1:
        return T.bv(draw(st.integers(0, 255)), WIDTH)
    op = draw(st.sampled_from(_BINOPS))
    return op(T.var(draw(st.sampled_from(_VARS)), WIDTH),
              T.bv(draw(st.integers(0, 255)), WIDTH))


@st.composite
def predicates(draw):
    pred = draw(st.sampled_from(_PREDS))
    cond = pred(draw(atoms()), draw(atoms()))
    if draw(st.booleans()):
        cond = T.not_(cond)
    return cond


class CacheTwinMachine(RuleBasedStateMachine):
    """Twin solvers stepped in lockstep by hypothesis-chosen rules."""

    def __init__(self):
        super().__init__()
        self.cached = Solver()  # query cache + intervals
        self.reference = Solver(use_query_cache=False)
        self.last_extra = []

    @rule(cond=predicates())
    def assert_cond(self, cond):
        self.cached.add(cond)
        self.reference.add(cond)

    @rule()
    def push(self):
        self.cached.push()
        self.reference.push()

    @precondition(lambda self: len(self.cached._frames) > 1)
    @rule()
    def pop(self):
        self.cached.pop()
        self.reference.pop()

    @rule(extra=st.lists(predicates(), max_size=2))
    def check(self, extra):
        self.last_extra = extra
        self._check_agree(extra)

    @rule()
    def recheck_last(self):
        """Verbatim repeat — the exact-cache path must stay faithful."""
        self._check_agree(self.last_extra)

    def _check_agree(self, extra):
        got = self.cached.check(extra=extra)
        want = self.reference.check(extra=extra)
        assert got == want, "cached=%s reference=%s" % (got, want)
        if got == SAT:
            conds = self.cached.assertions() + list(extra)
            model = self.cached.model()
            assert T.all_true(conds, model), (
                "cached model %r does not satisfy the query" % (model,))

    def teardown(self):
        # Frame bookkeeping must end consistent between the twins.
        assert len(self.cached._frames) == len(self.reference._frames)


TestCacheTwins = CacheTwinMachine.TestCase
TestCacheTwins.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
    derandomize=True)
