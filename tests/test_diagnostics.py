import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kabc.diagnostics import (
    check_fit_window,
    crest_position,
    crest_track,
    decay_fit,
    default_tail_window,
    h1_squared,
    sobolev_norm,
)
from kabc.exact import peakon_speed
from kabc.params import preset
from kabc.spectral import Field, Grid, get_ops
from oracles import WeightSpec, peakon_line_eval, weighted_sup


def track(fields, times):
    """crest_track of the crest positions of the fields, stored at times."""
    return crest_track(times, [crest_position(f) for f in fields], fields[0].grid.length)


class TestSobolevNorm:
    def test_zero(self):
        g = Grid(64, 2 * np.pi)
        assert sobolev_norm(Field(g, np.zeros(64)), 1.0) == 0.0

    def test_sine_h1(self):
        g = Grid(64, 2 * np.pi)
        f = Field(g, np.sin(g.nodes))
        # int sin^2 + int cos^2 = 2 pi
        assert sobolev_norm(f, 1.0) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)

    def test_sine_l2(self):
        g = Grid(64, 2 * np.pi)
        f = Field(g, np.sin(g.nodes))
        assert sobolev_norm(f, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_rejects_negative_s(self):
        g = Grid(16, 1.0)
        with pytest.raises(ValueError):
            sobolev_norm(Field(g, np.zeros(16)), -1.0)

    def test_overflow_reads_inf(self):
        # a finite spectrum whose power |hat|^2 overflows
        f = Field(Grid(64, 2 * np.pi), np.full(64, 1e300))
        assert sobolev_norm(f, 3.0) == math.inf
        assert h1_squared(f) == math.inf

    @settings(deadline=None, max_examples=25)
    @given(
        s1=st.floats(min_value=0.0, max_value=4.0),
        s2=st.floats(min_value=0.0, max_value=4.0),
        seed=st.integers(0, 1000),
    )
    def test_monotone_in_s(self, s1, s2, seed):
        if s1 > s2:
            s1, s2 = s2, s1
        g = Grid(64, 2 * np.pi)
        rng = np.random.default_rng(seed)
        f = Field(g, rng.normal(size=64))
        assert sobolev_norm(f, s1) <= sobolev_norm(f, s2) * (1 + 1e-12)


class TestDecayFit:
    def grid(self):
        return Grid(512, 40 * np.pi)

    def field_from_distance(self, grid, fn):
        d = np.abs(grid.nodes - grid.length / 2)
        return Field(grid, fn(d))

    def test_pure_exponential(self):
        g = self.grid()
        f = self.field_from_distance(g, lambda d: np.exp(-0.5 * d))
        fit = decay_fit(f, (5.0, 15.0))
        assert fit.theta_hat == pytest.approx(0.5, abs=0.01)
        assert fit.r2 > 0.9999
        assert not fit.floor_hit

    def test_peakon_exponent(self):
        g = self.grid()
        f = self.field_from_distance(g, lambda d: 0.7 * np.exp(-d))
        fit = decay_fit(f, (5.0, 15.0))
        assert fit.theta_hat == pytest.approx(1.0, abs=0.01)

    @settings(deadline=None, max_examples=25)
    @given(theta=st.floats(min_value=0.05, max_value=1.5), amp=st.floats(min_value=0.1, max_value=10.0))
    def test_exact_on_analytic_exponentials(self, theta, amp):
        # exact nodal samples of A exp(-theta d): the fit is exact to
        # round-off as long as nothing hits the floor
        g = Grid(512, 40.0)
        d = np.abs(g.nodes - g.length / 2)
        f = Field(g, amp * np.exp(-theta * d))
        fit = decay_fit(f, (2.0, 10.0))
        if not fit.floor_hit:
            assert abs(fit.theta_hat - theta) < 1e-6

    def test_gaussian_is_flagged_non_exponential(self):
        g = self.grid()
        f = self.field_from_distance(g, lambda d: np.exp(-(d**2)))
        # window [5, 10]: nearly all samples fall below the floor, so the
        # fit is flagged through floor_hit (analytic log-slope 2*d ~ >= 10)
        fit = decay_fit(f, (5.0, 10.0))
        assert fit.theta_hat >= 5.0 or not math.isfinite(fit.theta_hat)
        assert fit.floor_hit or fit.r2 < 0.995
        # window [2, 5] keeps everything above the floor: the parabola in
        # log-space shows up as a bad linear fit with steep local slope 2*d
        g2 = Grid(1024, 40 * np.pi)
        f = Field(g2, np.exp(-np.abs(g2.nodes - g2.length / 2) ** 2))
        fit2 = decay_fit(f, (2.0, 5.0))
        assert not fit2.floor_hit
        assert fit2.theta_hat >= 5.0
        assert fit2.r2 < 0.995

    def test_all_below_floor(self):
        g = self.grid()
        f = self.field_from_distance(g, lambda d: np.zeros_like(d))
        fit = decay_fit(f, (5.0, 15.0))
        assert fit.floor_hit
        assert math.isnan(fit.theta_hat)

    def test_window_validation(self):
        g = self.grid()
        f = self.field_from_distance(g, lambda d: np.exp(-d))
        with pytest.raises(ValueError):
            decay_fit(f, (10.0, 5.0))
        with pytest.raises(ValueError):
            decay_fit(f, (5.0, g.length / 2))  # too close to seam
        with pytest.raises(ValueError):
            decay_fit(f, (5.0, 5.5))  # too few nodes
        for window in ((-60.0, -40.0), (-10.0, 10.0)):  # the left tail; through the crest
            with pytest.raises(ValueError, match="right of the box center"):
                decay_fit(f, window)

    @pytest.mark.parametrize("x_hi, ok", [(26.0, True), (25.999999, False)])
    def test_window_of_exactly_16_grid_spacings(self, x_hi, ok):
        # dx = 1, so [10, 26] spans exactly 16 spacings; parse and the fit
        # apply this one rule
        g = Grid(512, 512.0)
        f = self.field_from_distance(g, lambda d: np.exp(-0.1 * d))
        if ok:
            assert check_fit_window((10, x_hi), g) == (10.0, x_hi)
            assert decay_fit(f, (10.0, x_hi)).theta_hat == pytest.approx(0.1, rel=1e-6)
        else:
            for call in (lambda: check_fit_window((10, x_hi), g), lambda: decay_fit(f, (10.0, x_hi))):
                with pytest.raises(ValueError, match="fewer than 16 grid spacings"):
                    call()


class TestWeightedSup:
    def test_zero(self):
        g = Grid(64, 2 * np.pi)
        assert weighted_sup(Field(g, np.zeros(64)), WeightSpec(0.5, 1.0)) == 0.0

    def test_matched_exponent_gives_one(self):
        g = Grid(500, 40.0)
        d = np.abs(g.nodes - g.length / 2)
        f = Field(g, np.exp(-0.5 * d))
        got = weighted_sup(f, WeightSpec(0.5, 10.0))
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_cap_location_max(self):
        # |f| = e^{-0.3 d}, theta = 0.5, N = 10: the product e^{0.2 d} grows
        # until the cap, so the sup sits at d = N with value e^2
        g = Grid(500, 40.0)  # node exactly at distance 10 from center
        d = np.abs(g.nodes - g.length / 2)
        f = Field(g, np.exp(-0.3 * d))
        got = weighted_sup(f, WeightSpec(0.5, 10.0))
        assert got == pytest.approx(math.exp(2.0), rel=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(theta=st.floats(min_value=0.01, max_value=0.99), seed=st.integers(0, 1000))
    def test_bounded_by_cap(self, theta, seed):
        g = Grid(128, 20.0)
        rng = np.random.default_rng(seed)
        f = Field(g, rng.normal(size=128))
        w = WeightSpec(theta, 4.0)
        assert weighted_sup(f, w) <= math.exp(theta * 4.0) * np.max(np.abs(f.values)) * (1 + 1e-12)

    def test_theta_strictly_inside_unit_interval(self):
        with pytest.raises(ValueError):
            WeightSpec(1.0, 5.0)
        with pytest.raises(ValueError):
            WeightSpec(0.0, 5.0)


class TestCrestTrack:
    def test_exact_line_peakons_all_presets(self):
        for name, gamma in (("ch", 1.0), ("dp", 1.0), ("novikov", math.sqrt(2.0)), ("forq", 1.0)):
            p = preset(name)
            grid = Grid(1024, 40 * np.pi)
            x0 = grid.length / 2
            times = np.linspace(0.0, 5.0, 101)
            fields = [Field(grid, peakon_line_eval(gamma, p, grid.nodes - x0, t)) for t in times]
            speed = track(fields, times)
            assert speed == pytest.approx(peakon_speed(gamma, p), rel=1e-3)

    def test_flat_field_rejected(self):
        # a flat field has no crest: its position is NaN, as a fit with too
        # few samples has a NaN theta_hat
        g = Grid(64, 2 * np.pi)
        assert math.isnan(crest_position(Field(g, np.ones(64))))
        assert math.isnan(crest_position(Field(g, 1e300 + 1e285 * np.sin(g.nodes))))
        with pytest.raises(ValueError, match="two states"):
            crest_track([0.0], [1.0], g.length)

    def test_single_field_crest(self):
        # the quadratic through the three nodes around the maximum places an
        # off-node crest to a small fraction of dx
        g = Grid(256, 2 * np.pi)
        x0 = np.pi + 0.3 * g.dx
        crest = crest_position(Field(g, np.exp(-4.0 * (g.nodes - x0) ** 2)))
        assert crest == pytest.approx(x0, abs=1e-3 * g.dx)

    @pytest.mark.parametrize("nodes, crest", [
        ([10, 11], 10.5),
        ([0, 255], -0.5),  # the seam pair: the crest lies between nodes 255 and 256 = 0
        ([10, 50], math.nan),
        ([10, 11, 12], math.nan),
        ([0, 1, 255], math.nan),
    ])
    def test_tie_for_the_maximum(self, nodes, crest):
        # a tie between two neighbours is one crest, midway between them; a
        # maximum held by two nodes apart or by three is ambiguous: NaN
        g = Grid(256, 2 * np.pi)
        v = 0.5 * np.cos(g.nodes - g.nodes[nodes[0]])
        v[nodes] = 1.0
        got = crest_position(Field(g, v))
        if math.isnan(crest):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(crest * g.dx, abs=1e-12)

    def test_seam_crossing_unwraps(self):
        p = preset("ch")
        grid = Grid(512, 40 * np.pi)
        x0 = grid.length - 2.0  # crest starts near the seam and wraps
        times = np.linspace(0.0, 5.0, 81)
        fields = [
            Field(grid, peakon_line_eval(1.0, p, np.mod(grid.nodes - x0 - peakon_speed(1.0, p) * t + grid.length / 2, grid.length) - grid.length / 2, 0.0))
            for t in times
        ]
        assert track(fields, times) == pytest.approx(1.0, rel=2e-3)


class TestSnapshotDecayFits:
    # simulate's diagnostics.csv fits u and u_x of each stored state
    def fits(self, f):
        window = default_tail_window(f.grid)
        return decay_fit(f, window), decay_fit(Field(f.grid, get_ops(f.grid).deriv(f.hat, 1)), window)

    def test_zero_trajectory_all_floor(self):
        g = Grid(512, 40 * np.pi)
        fu, fx = self.fits(Field(g, np.zeros(512)))
        assert fu.floor_hit and fx.floor_hit
        assert math.isnan(fu.theta_hat) and math.isnan(fx.theta_hat)

    def test_static_exponential(self):
        g = Grid(512, 40 * np.pi)
        d = np.abs(g.nodes - g.length / 2)
        fu, fx = self.fits(Field(g, np.exp(-0.5 * d)))
        assert fu.theta_hat == pytest.approx(0.5, abs=0.01)
        assert not (fu.floor_hit or fx.floor_hit)

    def test_default_window(self):
        g = Grid(512, 40 * np.pi)
        lo, hi = default_tail_window(g)
        assert lo == pytest.approx(g.length / 8)
        assert hi == pytest.approx(g.length / 4)
