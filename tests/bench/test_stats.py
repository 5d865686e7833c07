"""Robust statistics of the observatory: bands, verdicts, changepoints.

Every series here is synthetic and deterministic — the point of the
median/MAD machinery is that these assertions hold regardless of the
machine running them.
"""

import pytest

from repro.bench import (Band, changepoint, classify, mad, median,
                         noise_band, sparkline)

STEADY = [10.0] * 8
NOISY_FLAT = [10.0, 10.2, 9.9, 10.1, 9.8, 10.05, 10.1, 9.95]
STEP = [10.0] * 6 + [13.0] * 6
DRIFT = [10.0 + 0.02 * i for i in range(12)]    # +2.2% end to end


class TestMedianMad:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_mad_single_sample_is_zero(self):
        assert mad([42.0]) == 0.0

    def test_mad_robust_to_one_outlier(self):
        # One GC pause must not blow up the spread estimate.
        assert mad([10.0, 10.1, 9.9, 10.0, 50.0]) <= 0.1


class TestNoiseBand:
    def test_zero_spread_gets_relative_floor(self):
        band = noise_band(STEADY)
        assert band.radius == pytest.approx(0.5)    # 5% of 10
        assert band.contains(10.4)
        assert not band.contains(10.6)

    def test_min_abs_floor(self):
        band = noise_band([0.001] * 5, min_abs=0.01)
        assert band.radius == 0.01

    def test_band_bounds(self):
        band = Band(10.0, 1.0)
        assert band.lo == 9.0 and band.hi == 11.0
        assert band.to_dict()["center"] == 10.0


class TestClassify:
    def test_steady_identical_is_ok(self):
        assert classify(STEADY, STEADY, "lower").flag == "ok"

    def test_noisy_but_flat_is_ok(self):
        # Jitter within the band must never flag (no flapping gates).
        assert classify(NOISY_FLAT, list(reversed(NOISY_FLAT)),
                        "lower").flag == "ok"

    def test_step_regression_lower_is_better(self):
        verdict = classify(STEADY, [13.0] * 3, "lower")
        assert verdict.flag == "regression"
        assert verdict.worse_ratio == pytest.approx(0.3)

    def test_direction_awareness(self):
        # Throughput drop = regression; throughput rise = improvement.
        assert classify(STEADY, [7.0] * 3, "higher").flag == "regression"
        assert classify(STEADY, [13.0] * 3, "higher").flag == "improvement"
        assert classify(STEADY, [7.0] * 3, "lower").flag == "improvement"

    def test_tiny_n_single_samples(self):
        # n=1 on both sides: MAD is 0, the relative floor still guards.
        assert classify([10.0], [10.3], "lower").flag == "ok"
        assert classify([10.0], [12.0], "lower").flag == "regression"

    def test_zero_baseline_changed_never_regression(self):
        # No relative move to judge: a moved zero baseline is
        # "changed", an unmoved one "ok", neither a regression.
        verdict = classify([0.0, 0.0, 0.0], [5.0], "lower")
        assert verdict.flag == "changed"
        assert verdict.delta_ratio is None
        assert classify([0.0], [0.0], "higher").flag == "ok"

    def test_info_direction_is_changed_or_ok(self):
        verdict = classify([4.0], [9.0], "info")
        assert verdict.flag == "changed"
        assert verdict.worse_ratio is None
        assert classify([4.0], [4.0], "info").flag == "ok"

    def test_move_exactly_at_band_edge_is_ok(self):
        # One sample: the band is the relative floor, 10 +- 2.5; a
        # median on its edge is inside it.
        assert classify([10.0], [12.5], "lower", min_rel=0.25).flag == "ok"
        assert classify([10.0], [12.5], "lower",
                        min_rel=0.2499).flag == "regression"

    def test_bad_direction_raises(self):
        with pytest.raises(ValueError):
            classify(STEADY, STEADY, "sideways")

    def test_verdict_to_dict(self):
        row = classify(STEADY, [13.0] * 3, "lower").to_dict()
        assert row["flag"] == "regression"
        assert row["band"]["center"] == 10.0


class TestChangepoint:
    def test_flat_series_none(self):
        assert changepoint(STEADY) is None

    def test_noisy_flat_none(self):
        assert changepoint(NOISY_FLAT) is None

    def test_step_detected(self):
        shift = changepoint(STEP)
        assert shift is not None
        assert shift.index == 6
        assert shift.shift_ratio == pytest.approx(0.3)

    def test_gradual_drift_within_band_none(self):
        assert changepoint(DRIFT) is None

    def test_short_series_none(self):
        assert changepoint([10.0, 13.0, 13.0, 13.0, 13.0]) is None

    def test_downward_step(self):
        shift = changepoint([10.0] * 5 + [6.0] * 5)
        assert shift is not None
        assert shift.shift_ratio == pytest.approx(-0.4)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_is_mid_blocks(self):
        assert sparkline([5.0] * 4) == "▄▄▄▄"

    def test_range_and_width(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10
        assert line[0] == "▁" and line[-1] == "█"
