"""Phase profiler: nesting, self-time, caller-timed scopes, disabled
no-op."""

import time

from repro.obs.profile import PhaseProfiler
from repro.smt.solver import cache_answers


def spin(seconds):
    """Busy-wait so perf_counter time is attributable to this scope."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TestScopes:
    def test_single_phase_counts_calls_and_time(self):
        profiler = PhaseProfiler()
        for _ in range(3):
            with profiler.phase("solver"):
                spin(0.002)
        stats = profiler.stats("solver")
        assert stats.calls == 3
        assert stats.total >= 0.006
        assert abs(stats.total - stats.self_time) < 1e-9

    def test_nesting_attributes_self_time(self):
        profiler = PhaseProfiler()
        with profiler.phase("eval"):
            spin(0.002)
            with profiler.phase("memory"):
                spin(0.002)
                with profiler.phase("solver"):
                    spin(0.002)
        eval_stats = profiler.stats("eval")
        memory_stats = profiler.stats("memory")
        solver_stats = profiler.stats("solver")
        # Inclusive totals nest.
        assert eval_stats.total >= memory_stats.total >= solver_stats.total
        # Self time excludes children.
        assert eval_stats.self_time < eval_stats.total
        assert memory_stats.self_time < memory_stats.total
        assert abs(solver_stats.self_time - solver_stats.total) < 1e-9
        # The parent's self time is roughly total minus the child.
        assert (abs((eval_stats.total - memory_stats.total)
                    - eval_stats.self_time) < 0.002)

    def test_sibling_scopes_both_charged_to_parent(self):
        profiler = PhaseProfiler()
        with profiler.phase("eval"):
            with profiler.phase("solver"):
                spin(0.001)
            with profiler.phase("solver"):
                spin(0.001)
        assert profiler.stats("solver").calls == 2
        assert profiler.stats("eval").self_time < profiler.stats(
            "eval").total

    def test_recursive_same_phase(self):
        profiler = PhaseProfiler()
        with profiler.phase("eval"):
            with profiler.phase("eval"):
                spin(0.001)
        stats = profiler.stats("eval")
        assert stats.calls == 2
        # Self time never exceeds inclusive total across the pair.
        assert stats.self_time <= stats.total + 1e-9


class TestCallerTimedScope:
    def test_close_charges_the_callers_reading(self):
        profiler = PhaseProfiler()
        outer = profiler.open("eval")
        with profiler.phase("memory"):
            spin(0.001)
        inner = profiler.open("solver")
        inner.close(0.25)
        outer.close(0.5)
        solver = profiler.stats("solver")
        assert (solver.calls, solver.total, solver.self_time) \
            == (1, 0.25, 0.25)
        eval_stats = profiler.stats("eval")
        assert (eval_stats.calls, eval_stats.total) == (1, 0.5)
        # Both children's time is the parent's child time.
        memory = profiler.stats("memory").total
        assert eval_stats.self_time == 0.5 - (memory + 0.25)
        # The stack is unwound: a new root scope has no parent.
        profiler.open("decode").close(0.125)
        assert profiler.stats("decode").self_time == 0.125

    def test_disabled_open_is_shared_noop(self):
        profiler = PhaseProfiler(enabled=False)
        scope = profiler.open("eval")
        assert scope is profiler.phase("eval")
        scope.close(1.0)
        assert profiler.snapshot() == {}


class TestDisabled:
    def test_disabled_profiler_records_nothing(self):
        profiler = PhaseProfiler(enabled=False)
        with profiler.phase("solver"):
            pass
        assert profiler.snapshot() == {}
        assert profiler.stats("solver").calls == 0

    def test_disabled_phase_is_shared_noop(self):
        profiler = PhaseProfiler(enabled=False)
        assert profiler.phase("a") is profiler.phase("b")


class TestReporting:
    def test_snapshot_and_report(self):
        profiler = PhaseProfiler()
        with profiler.phase("decode"):
            spin(0.001)
        snap = profiler.snapshot()
        assert snap["decode"]["calls"] == 1
        assert snap["decode"]["total_s"] > 0
        text = profiler.report()
        assert "decode" in text
        assert "calls" in text

    def test_reset(self):
        profiler = PhaseProfiler()
        with profiler.phase("decode"):
            pass
        profiler.reset()
        assert profiler.snapshot() == {}


class TestSolverCacheAccounting:
    """Query-cache answers must not inflate measured solver work.

    The accounting contract (SolverStats docstring): ``checks`` counts
    every ``Solver.check`` call, but a call answered by the cache layer
    adds nothing to the ``solver`` profiler phase, the
    ``solver.check_ms`` histogram, ``solve_time`` or the
    ``solver_check`` event count — it is counted under ``cache_*`` and
    emits one ``solver_cache`` event instead.  The counts live in
    ``SolverStats`` alone: the solver registers no metric counter.
    """

    @staticmethod
    def _solver_with_obs():
        from repro.obs import Obs, RingBufferSink
        from repro.smt import Solver

        obs = Obs(metrics=True, profile=True)
        ring = RingBufferSink(capacity=1000)
        obs.add_sink(ring)
        solver = Solver()
        solver.attach_obs(obs)
        return solver, obs, ring

    @staticmethod
    def _by_kind(ring):
        counts = {}
        for event in ring.events():
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def test_cached_hit_skips_phase_histogram_and_event(self):
        from repro.smt import SAT
        from repro.smt import terms as T

        solver, obs, ring = self._solver_with_obs()
        cond = T.ult(T.var("acc_a", 8), T.bv(9, 8))
        assert solver.check(extra=[cond]) == SAT

        phase_calls = obs.profiler.stats("solver").calls
        hist_count = obs.metrics.histogram("solver.check_ms").count
        solve_time = solver.stats.solve_time
        checks = solver.stats.checks
        events = self._by_kind(ring)

        assert solver.check(extra=[cond]) == SAT  # exact cache hit

        assert solver.stats.checks == checks + 1
        assert solver.stats.cache_hit_sat == 1
        # None of the solver-work meters moved.
        assert obs.profiler.stats("solver").calls == phase_calls
        assert obs.metrics.histogram("solver.check_ms").count == hist_count
        assert solver.stats.solve_time == solve_time
        after = self._by_kind(ring)
        assert after.get("solver_check", 0) == events.get("solver_check", 0)
        assert after.get("solver_cache", 0) \
            == events.get("solver_cache", 0) + 1
        assert obs.metrics.counters_snapshot() == {}

    def test_solved_query_is_fully_metered(self):
        from repro.smt import SAT
        from repro.smt import terms as T

        solver, obs, ring = self._solver_with_obs()
        # x > 9: the zero-model fast path cannot answer this one, so it
        # must reach the solving layers and be fully metered.
        cond = T.ult(T.bv(9, 8), T.var("acc_b", 8))
        assert solver.check(extra=[cond]) == SAT
        assert obs.profiler.stats("solver").calls == 1
        # One clock reading: the phase is charged exactly solve_time.
        assert obs.profiler.stats("solver").total \
            == solver.stats.solve_time > 0
        assert obs.metrics.histogram("solver.check_ms").count == 1
        assert self._by_kind(ring).get("solver_check", 0) == 1
        assert solver.stats.cache_misses == 1
        assert obs.metrics.counters_snapshot() == {}

    def test_frame_reuse_counts_without_solver_work(self):
        from repro.smt import Solver

        solver, obs, ring = self._solver_with_obs()
        solver.note_frame_reuse()
        assert solver.stats.frame_reuse == 1
        assert solver.stats.checks == 0
        assert obs.profiler.stats("solver").calls == 0
        assert cache_answers(solver.stats.as_dict()) == 1
        assert obs.metrics.counters_snapshot() == {}
        events = self._by_kind(ring)
        assert events.get("solver_cache", 0) == 1
        assert events.get("solver_check", 0) == 0

    def test_delta_since_covers_cache_fields(self):
        from repro.smt import SAT, Solver
        from repro.smt import terms as T

        solver = Solver()
        cond = T.ult(T.var("acc_c", 8), T.bv(9, 8))
        assert solver.check(extra=[cond]) == SAT
        before = solver.stats.as_dict()
        assert solver.check(extra=[cond]) == SAT
        solver.note_frame_reuse()
        delta = solver.stats.delta_since(before)
        assert delta["checks"] == 1
        assert delta["cache_hit_sat"] == 1
        assert delta["frame_reuse"] == 1
        assert delta["sat_calls"] == 0
        assert delta["solve_time"] == 0.0


class TestScopeUnwinding:
    """Scopes must unwind correctly when client code raises."""

    def test_exception_still_charges_scope(self):
        profiler = PhaseProfiler()
        try:
            with profiler.phase("eval"):
                spin(0.001)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        stats = profiler.stats("eval")
        assert stats.calls == 1
        assert stats.total >= 0.001
        # The stack is fully unwound: a fresh root scope is charged as a
        # root, not as a child of the failed one.
        with profiler.phase("decode"):
            pass
        assert profiler.stats("decode").calls == 1
        assert abs(profiler.stats("decode").total
                   - profiler.stats("decode").self_time) < 1e-9

    def test_exception_in_nested_scope_unwinds_to_parent(self):
        profiler = PhaseProfiler()
        with profiler.phase("eval"):
            try:
                with profiler.phase("solver"):
                    raise ValueError("inner")
            except ValueError:
                pass
            spin(0.001)
        eval_stats = profiler.stats("eval")
        solver_stats = profiler.stats("solver")
        assert eval_stats.calls == 1
        assert solver_stats.calls == 1
        # The parent kept timing after the child blew up.
        assert eval_stats.total >= solver_stats.total + 0.001
        # And the child's elapsed time was still handed to the parent.
        assert eval_stats.self_time < eval_stats.total

    def test_deep_nesting_unwinds_completely(self):
        profiler = PhaseProfiler()
        depth = 200

        def recurse(level):
            if level == 0:
                raise RuntimeError("bottom")
            with profiler.phase("eval"):
                recurse(level - 1)

        try:
            recurse(depth)
        except RuntimeError:
            pass
        assert profiler.stats("eval").calls == depth
        # Every frame exited: a new root scope has no leaked parent, so
        # its self time equals its total.
        with profiler.phase("memory"):
            spin(0.001)
        memory = profiler.stats("memory")
        assert abs(memory.total - memory.self_time) < 1e-9

    def test_deep_nesting_totals_are_coherent(self):
        profiler = PhaseProfiler()

        def recurse(level):
            with profiler.phase("eval"):
                if level:
                    recurse(level - 1)
                else:
                    spin(0.001)

        recurse(50)
        stats = profiler.stats("eval")
        assert stats.calls == 51
        # Self time across a recursive chain never exceeds the sum of
        # inclusive totals.
        assert stats.self_time <= stats.total + 1e-9


class TestStatsRegistration:
    """stats() semantics: live view when enabled, detached when not."""

    def test_enabled_stats_is_live_registered_view(self):
        profiler = PhaseProfiler()
        view = profiler.stats("solver")
        assert view.calls == 0
        with profiler.phase("solver"):
            pass
        # The earlier handle observes later activity (same object).
        assert view.calls == 1
        assert profiler.stats("solver") is view

    def test_disabled_stats_is_detached_placeholder(self):
        profiler = PhaseProfiler(enabled=False)
        view = profiler.stats("solver")
        assert view.calls == 0
        with profiler.phase("solver"):
            pass
        # Disabled profiler: nothing recorded anywhere, and the
        # placeholder never appears in snapshots.
        assert view.calls == 0
        assert profiler.snapshot() == {}
        assert profiler.stats("solver") is not view
