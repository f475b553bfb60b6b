import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netadjust.diagnostics import Diagnostics
from netadjust.extrapolation import (
    AnnualGridSurvival,
    ExtendedSurvival,
    extend_survival,
    follow_up_cutoff,
)
from netadjust.registry import StepSurvivalCurve

from conftest import at, one_stratum
from oracles import ExtrapolationError, fit_exponential_tail, select_anchor_times


def one_curve(jumps, values):
    """A one-stratum step curve: offsets [0, n]."""
    return StepSurvivalCurve(jumps, values, [0, len(jumps)])


def exp_curve(rate, jumps=None):
    jumps = np.arange(0.5, 20.0, 0.5) if jumps is None else np.asarray(jumps, float)
    return one_curve(jumps, np.exp(-rate * jumps))


class TestAnchorSelection:
    def test_last_four_integers(self):
        anchors = select_anchor_times(exp_curve(0.1), 15.0, 4)
        assert anchors.tolist() == [12.0, 13.0, 14.0, 15.0]

    def test_positivity_filter(self):
        jumps = np.array([1.0, 5.0, 14.0])
        curve = one_curve(jumps, np.array([0.8, 0.4, 0.0]))
        anchors = select_anchor_times(curve, 15.0, 4)
        assert anchors.tolist() == [10.0, 11.0, 12.0, 13.0]

    def test_h_ten(self):
        anchors = select_anchor_times(exp_curve(0.1), 15.0, 10)
        assert anchors.tolist() == [float(t) for t in range(6, 16)]

    def test_fewer_than_two_points_errors(self):
        curve = one_curve(np.array([0.5]), np.array([0.0]))
        with pytest.raises(ExtrapolationError):
            select_anchor_times(curve, 1.0, 4)

    def test_short_follow_up_uses_all(self):
        anchors = select_anchor_times(exp_curve(0.1), 2.0, 6)
        assert anchors.tolist() == [0.0, 1.0, 2.0]


class TestTailFit:
    def test_exact_exponential(self):
        g0, g1 = fit_exponential_tail(exp_curve(0.2), np.array([12.0, 13.0, 14.0, 15.0]))
        assert g0 == pytest.approx(0.0, abs=1e-10)
        assert g1 == pytest.approx(0.2, abs=1e-10)

    def test_two_anchors_interpolating_line(self):
        curve = one_curve(np.array([1.0, 2.0]), np.array([0.8, 0.5]))
        g0, g1 = fit_exponential_tail(curve, np.array([1.0, 2.0]))
        assert math.exp(-g0 - g1 * 1.0) == pytest.approx(0.8, abs=1e-12)
        assert math.exp(-g0 - g1 * 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_constant_curve(self):
        curve = one_curve(np.array([0.5]), np.array([0.5]))
        g0, g1 = fit_exponential_tail(curve, np.array([1.0, 2.0, 3.0]))
        assert g1 == 0.0
        assert g0 == pytest.approx(math.log(2.0), abs=1e-12)

    def test_singular_anchors(self):
        with pytest.raises(ExtrapolationError):
            fit_exponential_tail(exp_curve(0.1), np.array([3.0, 3.0, 3.0]))

    def test_negative_slope_clipped(self):
        # a monotone curve cannot produce a materially negative slope, so
        # exercise the guard with a stub evaluator
        class Rising:
            def survival_at(self, t):
                return 0.5 + 0.1 * np.asarray(t)

        diag = Diagnostics()
        g0, g1 = fit_exponential_tail(Rising(), np.array([1.0, 2.0]), diag)
        assert g1 == 0.0
        assert math.exp(-g0) == pytest.approx(math.sqrt(0.6 * 0.7), abs=1e-12)
        assert diag.get("extrapolation_slope_clipped") == 1


class TestExtendedSurvival:
    def test_base_below_cutoff(self):
        curve = exp_curve(0.15)
        ext = extend_survival(curve, np.array([10.0]), 4)
        for t in (0.0, 3.3, 10.0):
            assert at(ext, t) == at(curve, t)

    def test_exponential_continuation(self):
        ext = extend_survival(exp_curve(0.15), np.array([10.0]), 4)
        assert at(ext, 15.0) == pytest.approx(math.exp(-0.15 * 15.0), rel=1e-9)

    def test_monotone_clip_at_cutoff(self):
        ext = ExtendedSurvival(exp_curve(0.3), tau=np.array([10.0]), g0=np.array([-1.0]), g1=np.array([0.01]))
        cap = at(exp_curve(0.3), 10.0)
        assert at(ext, 10.4) == pytest.approx(cap, abs=1e-15)

    def test_fallback_carries_last_value(self):
        curve = one_curve(np.array([0.5]), np.array([0.7]))
        diag = Diagnostics()
        ext = extend_survival(curve, np.array([0.9]), 4, diag)
        assert diag.get("extrapolation_fallback") == 1
        assert at(ext, 30.0) == pytest.approx(0.7, rel=1e-12)

    @given(st.floats(0.0, 0.5), st.integers(2, 8))
    @settings(max_examples=50, deadline=None)
    def test_exactness_on_exponentials(self, rate, h):
        ext = extend_survival(exp_curve(rate), np.array([12.0]), h)
        for t in (0.5, 5.0, 12.0, 18.0, 40.0):
            assert at(ext, t) == pytest.approx(math.exp(-rate * t), rel=1e-9, abs=1e-12)

    @given(st.lists(st.floats(0.0, 0.4), min_size=3, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_extension_stays_monotone(self, drops):
        values = np.cumprod(1.0 - np.asarray(drops))
        jumps = np.arange(1.0, len(drops) + 1.0)
        curve = one_curve(jumps, values)
        try:
            ext = extend_survival(curve, np.array([float(len(drops))]), 4)
        except ExtrapolationError:
            return
        grid = np.linspace(0.0, len(drops) + 20.0, 200)
        out = ext.survival_at(grid)[0]
        assert np.all(np.diff(out) <= 1e-12)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestFollowUpCutoff:
    def test_rule(self):
        table = one_stratum(np.arange(1.0, 11.0), np.ones(10, dtype=bool))
        # at-risk at times 1..10 is 10,9,...,1
        assert follow_up_cutoff(table, 5).tolist() == [6.0]

    def test_fallback_to_last_time(self):
        table = one_stratum(np.array([1.0, 2.0]), np.array([True, True]))
        assert follow_up_cutoff(table, 5).tolist() == [2.0]


def interpolate(grid, t):
    """The annual grid read between its points, as the adjusted and the
    population providers read their grids: row 0 of a one-stratum stack."""
    out = AnnualGridSurvival(np.asarray(grid)[None]).survival_at(t)[0]
    return out if np.ndim(t) else out[0]


class TestLoglinearInterpolate:
    def test_exact_at_grid(self):
        grid = np.array([1.0, 0.9, 0.81, 0.5])
        for t in range(4):
            assert interpolate(grid, float(t)) == grid[t]

    def test_geometric_mean(self):
        value = interpolate(np.array([1.0, 0.9, 0.81]), 1.5)
        assert value == pytest.approx(0.9 * math.sqrt(0.9), abs=1e-12)

    def test_constant_grid(self):
        grid = np.full(6, 0.4)
        grid[0] = 1.0
        ts = np.array([1.2, 2.7, 4.9])
        assert np.allclose(interpolate(grid, ts), 0.4, atol=1e-15)

    @given(st.floats(0.0, 0.8), st.floats(0.01, 9.99))
    @settings(max_examples=60, deadline=None)
    def test_exact_on_exponentials_between_grid(self, rate, t):
        grid = np.exp(-rate * np.arange(11.0))
        assert interpolate(grid, t) == pytest.approx(
            math.exp(-rate * t), rel=1e-10
        )


class TestAnnualGridSurvival:
    def test_hazard_survival_consistency(self):
        grid = np.array([1.0, 0.9, 0.7, 0.65])
        curve = AnnualGridSurvival(grid[None])
        for t in (0.0, 0.4, 1.0, 2.9, 3.0):
            assert math.exp(-curve.cumulative_hazard_at(t)[0, 0]) == pytest.approx(
                at(curve, t), rel=1e-12
            )
        for t in range(4):
            assert at(curve, float(t)) == grid[t]

    def test_one_row_per_stratum(self):
        with pytest.raises(ValueError, match="one row per stratum"):
            AnnualGridSurvival(np.array([1.0, 0.8]))

    def test_extension_past_grid_counted(self):
        diag = Diagnostics()
        curve = AnnualGridSurvival(np.array([[1.0, 0.8]]), diag)
        value = at(curve, 3.0)
        assert value == pytest.approx(0.8 ** 3, rel=1e-12)
        assert diag.get("grid_extended_eval") == 1
