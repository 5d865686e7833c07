"""Unit tests for defect/path reporting containers."""

from repro.core.reporting import (
    DIV_BY_ZERO,
    TRAP,
    Defect,
    ExplorationResult,
    PathResult,
)
from repro.smt.solver import solved_queries


def make_defect(kind=TRAP, pc=0x1000):
    return Defect(kind, pc, "trap", "msg", b"\x01", {"in_0": 1}, 7, 3)


class TestDefect:
    def test_fields(self):
        defect = make_defect()
        assert defect.kind == TRAP
        assert defect.pc == 0x1000
        assert defect.input_bytes == b"\x01"

    def test_repr(self):
        assert "reachable-trap" in repr(make_defect())


class TestExplorationResult:
    def test_defects_by_kind(self):
        result = ExplorationResult()
        result.defects.append(make_defect(TRAP))
        result.defects.append(make_defect(DIV_BY_ZERO))
        result.defects.append(make_defect(TRAP, pc=0x2000))
        grouped = result.defects_by_kind()
        assert len(grouped[TRAP]) == 2
        assert len(grouped[DIV_BY_ZERO]) == 1

    def test_first_defect_filters(self):
        result = ExplorationResult()
        result.defects.append(make_defect(DIV_BY_ZERO))
        result.defects.append(make_defect(TRAP))
        assert result.first_defect().kind == DIV_BY_ZERO
        assert result.first_defect(TRAP).kind == TRAP
        assert result.first_defect("nothing") is None

    def test_summary_is_one_line_with_counts(self):
        result = ExplorationResult()
        result.defects.append(make_defect())
        result.paths.append(PathResult("halted", None, b"", 0))
        result.solver_stats = {"checks": 12}
        text = result.summary()
        assert "\n" not in text
        assert "paths=1" in text
        assert "defects=1" in text
        assert "solver_checks=12" in text

    def test_details_mentions_defects(self):
        result = ExplorationResult()
        result.defects.append(make_defect())
        result.paths.append(PathResult("halted", None, b"", 0))
        text = result.details()
        assert "paths=1" in text
        assert "reachable-trap" in text

    def test_path_result_repr(self):
        path = PathResult("halted", None, b"ab", 3)
        assert "halted" in repr(path)


class TestSolverCacheLine:
    def test_no_line_when_cache_never_fired(self):
        result = ExplorationResult()
        result.solver_stats = {"checks": 5}
        assert result.solver_cache_line() is None
        assert "solver cache:" not in result.details()

    def test_line_summarizes_cache_traffic(self):
        result = ExplorationResult()
        result.solver_stats = {
            "checks": 10, "cache_hit_sat": 3, "cache_hit_unsat": 1,
            "cache_model_reuse": 2, "cache_subsumed_unsat": 1,
            "cache_misses": 3, "frame_reuse": 4,
        }
        line = result.solver_cache_line()
        assert line is not None
        assert "hits=4" in line
        assert "model_reuse=2" in line
        assert "subsumed=1" in line
        assert "misses=3" in line
        assert "frame_reuse=4" in line
        # (4+2+1 query-cache answers + 4 frame reuses) / (10 checks + 4)
        assert "hit_ratio=0.79" in line
        assert line in result.details()

    def test_shared_summary_helper_matches_method(self):
        from repro.core.reporting import solver_cache_summary
        stats = {"cache_hit_sat": 2, "cache_misses": 2}
        result = ExplorationResult()
        result.solver_stats = dict(stats)
        assert solver_cache_summary(stats) == result.solver_cache_line()
        assert solver_cache_summary(None) is None
        assert solver_cache_summary({}) is None


class TestCacheDeltaAccounting:
    """Per-exploration solver_stats deltas with the cache active.

    Cached answers and frame reuse must not inflate the *solver work*
    counters of an exploration: a second identical exploration on one
    engine re-asks the same queries, so its delta shows cache traffic
    — not fresh sat_calls.
    """

    def test_second_exploration_delta_shows_hits_not_solves(self):
        from repro.isa import build
        from repro.programs import build_kernel
        from repro.core import Engine, EngineConfig

        model, image = build_kernel("password", "rv32")
        engine = Engine(model, config=EngineConfig())
        engine.load_image(image)
        first = engine.explore()
        second = engine.explore()
        # Identical outcome both times.
        assert len(second.paths) == len(first.paths)
        assert len(second.defects) == len(first.defects)
        # The rerun's delta is dominated by cache answers: it performed
        # checks, but strictly fewer SAT-core calls than the first run.
        assert second.solver_stats["checks"] > 0
        hits = (second.solver_stats["cache_hit_sat"]
                + second.solver_stats["cache_hit_unsat"]
                + second.solver_stats["cache_model_reuse"]
                + second.solver_stats["cache_subsumed_unsat"])
        assert hits > 0
        assert second.solver_stats["sat_calls"] \
            < first.solver_stats["sat_calls"] or \
            first.solver_stats["sat_calls"] == 0
        # Deltas are per-exploration, not cumulative: the second run's
        # cache hits were not already present in the first delta.
        assert first.solver_stats["cache_hit_sat"] \
            <= second.solver_stats["cache_hit_sat"] + \
            first.solver_stats["cache_misses"]

    def test_cache_off_delta_has_zero_cache_fields(self):
        from repro.programs import build_kernel
        from repro.core import Engine, EngineConfig

        model, image = build_kernel("password", "rv32")
        engine = Engine(model,
                        config=EngineConfig(use_solver_cache=False))
        engine.load_image(image)
        result = engine.explore()
        stats = result.solver_stats
        # No replay of any kind: every cache_* counter (the query
        # cache's and any other) and frame reuse stay at zero, so
        # every check is a solved query.
        cache_fields = {key: value for key, value in stats.items()
                        if key.startswith("cache_")}
        assert set(cache_fields.values()) == {0}
        assert stats["frame_reuse"] == 0
        assert solved_queries(stats) == stats["checks"] > 0
        assert result.solver_cache_line() is None
