"""Differential harness: cached solver vs cache-free twin.

The ISSUE-3 centerpiece correctness artifact.  Every stream of
assert / push / pop / check operations is replayed in lockstep against

* a **cached** solver — every layer on (query cache with exact hits,
  unsat subsumption and model reuse, plus the interval pre-filter), and
* a **reference** solver — query cache off, so every check reaches the
  interval/bit-blast core,

and on every single check the two verdicts must be identical, and any
SAT answer's model must concretely satisfy every asserted conjunct
(``terms.all_true``).  Streams are deterministic per seed (plain
``random.Random``), so a failure reproduces from its printed seed.

The generator is biased toward the patterns symbolic execution
produces — shared path-condition prefixes (push/pop), superset
extension (assert-then-recheck), and verbatim repeats — because those
are exactly the shapes the cache layers answer.  A meta-assertion at
the bottom verifies the harness is not vacuous: across the run, every
cache layer must actually have fired.
"""

import random

import pytest

from repro.smt import SAT, UNSAT, Solver
from repro.smt import terms as T

WIDTH = 8
VARS = ["da", "db", "dc", "dd"]


def _rand_atom(rng: random.Random) -> T.Term:
    """One width-8 term: variable, constant, or a small combination."""
    roll = rng.random()
    if roll < 0.4:
        return T.var(rng.choice(VARS), WIDTH)
    if roll < 0.6:
        return T.bv(rng.randrange(256), WIDTH)
    op = rng.choice((T.add, T.sub, T.xor, T.and_, T.or_))
    return op(T.var(rng.choice(VARS), WIDTH),
              T.bv(rng.randrange(256), WIDTH))


def _rand_pred(rng: random.Random) -> T.Term:
    """One boolean conjunct shaped like a branch condition."""
    pred = rng.choice((T.eq, T.ult, T.ule, T.slt, T.sle))
    cond = pred(_rand_atom(rng), _rand_atom(rng))
    if rng.random() < 0.3:
        cond = T.not_(cond)
    return cond


class _Twins:
    """A cached solver and its cache-free reference, driven in lockstep."""

    def __init__(self):
        self.cached = Solver()  # all layers on (the engine default)
        self.reference = Solver(use_query_cache=False)
        self.checks = 0

    def add(self, cond: T.Term) -> None:
        self.cached.add(cond)
        self.reference.add(cond)

    def push(self) -> None:
        self.cached.push()
        self.reference.push()

    def pop(self) -> None:
        self.cached.pop()
        self.reference.pop()

    def depth(self) -> int:
        return len(self.cached._frames)

    def check(self, seed: int, extra=()) -> str:
        extra = list(extra)
        got = self.cached.check(extra=extra)
        want = self.reference.check(extra=extra)
        self.checks += 1
        assert got == want, (
            "verdict divergence (seed %d, check %d): cached=%s reference=%s"
            % (seed, self.checks, got, want))
        conds = self.cached.assertions() + extra
        if got == SAT:
            model = self.cached.model()
            assert T.all_true(conds, model), (
                "cached solver returned an invalid model (seed %d): %r"
                % (seed, model))
            assert T.all_true(conds, self.reference.model()), (
                "reference solver returned an invalid model (seed %d)" % seed)
        return got


def _drive_stream(seed: int, steps: int) -> _Twins:
    """Replay one randomized stream; returns the twins for inspection."""
    rng = random.Random(seed)
    twins = _Twins()
    last_extra = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.40:
            twins.add(_rand_pred(rng))
        elif roll < 0.52:
            twins.push()
        elif roll < 0.64:
            if twins.depth() > 1:
                twins.pop()
            else:
                twins.add(_rand_pred(rng))
        elif roll < 0.88:
            last_extra = [_rand_pred(rng) for _ in range(rng.randrange(3))]
            twins.check(seed, extra=last_extra)
        else:
            # Verbatim repeat of the previous query — the exact-hit path
            # (a finished path's input query repeats the last
            # feasibility check in the real engine).
            twins.check(seed, extra=last_extra)
    twins.check(seed, extra=last_extra)
    return twins


class TestDifferentialStreams:
    """500+ randomized streams, zero divergences allowed."""

    # Class-level tallies so the meta-assertions can prove the harness
    # exercised every cache layer at least once across the whole run.
    totals = {"hits": 0, "model_reuse": 0, "subsumed": 0, "misses": 0}

    @classmethod
    def _tally(cls, twins: _Twins) -> None:
        stats = twins.cached.stats
        cls.totals["hits"] += stats.cache_hit_sat + stats.cache_hit_unsat
        cls.totals["model_reuse"] += stats.cache_model_reuse
        cls.totals["subsumed"] += stats.cache_subsumed_unsat
        cls.totals["misses"] += stats.cache_misses

    @pytest.mark.parametrize("block", range(10))
    def test_streams_agree(self, block):
        """10 blocks x 35 streams x ~14 ops = 350 streams."""
        for offset in range(35):
            twins = _drive_stream(seed=block * 1000 + offset, steps=14)
            self._tally(twins)

    @pytest.mark.parametrize("block", range(5))
    def test_long_streams_agree(self, block):
        """5 blocks x 30 longer streams (deeper push/pop nesting)."""
        for offset in range(30):
            twins = _drive_stream(seed=77000 + block * 1000 + offset,
                                  steps=26)
            self._tally(twins)

    def test_replayed_streams_hit_exact_cache(self):
        """Replaying one stream's queries verbatim on a shared solver
        pair must only add exact hits — and still agree everywhere."""
        replay_hits = 0
        for seed in range(500, 520):
            rng = random.Random(seed)
            twins = _Twins()
            queries = []
            for _ in range(8):
                twins.add(_rand_pred(rng))
                extra = [_rand_pred(rng) for _ in range(rng.randrange(2))]
                queries.append(extra)
                twins.check(seed, extra=extra)
            before = (twins.cached.stats.cache_hit_sat
                      + twins.cached.stats.cache_hit_unsat)
            for extra in queries:
                twins.check(seed, extra=extra)
            # The final query of the loop repeats verbatim; earlier ones
            # were prefixes, which the reference must still agree on.
            hits = (twins.cached.stats.cache_hit_sat
                    + twins.cached.stats.cache_hit_unsat)
            replay_hits += hits - before
            self._tally(twins)
        # Aggregate (a stream whose conjunction simplifies to literal
        # false legitimately bypasses the cache, so per-seed hit counts
        # can be zero): replays must hit the exact cache overall.
        assert replay_hits >= 20, replay_hits

    def test_zz_meta_every_layer_fired(self):
        """Run last (zz): the harness must have exercised every layer."""
        totals = type(self).totals
        assert totals["hits"] > 0, totals
        assert totals["model_reuse"] > 0, totals
        assert totals["subsumed"] > 0, totals
        assert totals["misses"] > 0, totals


class TestSubsumptionDirected:
    """Directed (non-random) interleavings that pin each layer."""

    def test_superset_of_unsat_is_subsumed(self):
        twins = _Twins()
        x = T.var("da", WIDTH)
        twins.add(T.ult(x, T.bv(5, WIDTH)))
        twins.add(T.ult(T.bv(250, WIDTH), x))
        assert twins.check(0) == UNSAT
        # Any extension of an unsat conjunction is unsat without solving.
        twins.add(T.eq(T.var("db", WIDTH), T.bv(7, WIDTH)))
        assert twins.check(0) == UNSAT
        assert twins.cached.stats.cache_subsumed_unsat >= 1

    def test_push_pop_restores_sat(self):
        twins = _Twins()
        x = T.var("da", WIDTH)
        twins.add(T.ult(x, T.bv(5, WIDTH)))
        assert twins.check(0) == SAT
        twins.push()
        twins.add(T.ult(T.bv(250, WIDTH), x))
        assert twins.check(0) == UNSAT
        twins.pop()
        # Popping must drop the unsat conjunct for the cache too: the
        # canonical key of the restored frame is the original SAT key.
        assert twins.check(0) == SAT

    def test_conjunct_order_cannot_split_entries(self):
        a = T.ult(T.var("da", WIDTH), T.bv(9, WIDTH))
        b = T.eq(T.var("db", WIDTH), T.bv(3, WIDTH))
        twins = _Twins()
        assert twins.check(0, extra=[a, b]) == SAT
        misses_before = twins.cached.stats.cache_misses
        assert twins.check(0, extra=[b, a]) == SAT
        assert twins.check(0, extra=[a, b, a]) == SAT
        assert twins.cached.stats.cache_misses == misses_before
