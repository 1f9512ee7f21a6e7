import math

import numpy as np
import pytest
from scipy.special import ndtr

from kabc.diagnostics import decay_fit
from kabc.exact import (
    bump_values,
    circle_peakon_speed,
    green_line,
    green_periodic,
    mollified_profile,
    peakon_circle_eval,
    peakon_line_eval,
    peakon_speed,
)
from kabc.params import Params, preset
from kabc.spectral import Field, Grid, helmholtz_inverse
from kabc import diagnostics


class TestPeakonLine:
    def test_ch_at_origin(self):
        assert peakon_line_eval(1.0, preset("ch"), 0.0, 0.0) == 1.0

    def test_novikov_speed(self):
        p = preset("novikov")
        assert peakon_speed(math.sqrt(2.0), p) == pytest.approx(2.0, rel=1e-14)
        # crest value gamma at x = speed * t
        assert peakon_line_eval(math.sqrt(2.0), p, 2.0 * 0.7, 0.7) == pytest.approx(math.sqrt(2.0))

    def test_forq_speed(self):
        assert peakon_speed(1.0, preset("forq")) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_traveling_wave_property(self):
        gamma, p = -0.7, preset("dp")
        xs = np.linspace(-5, 5, 41)
        for t, t0 in ((1.3, 0.0), (2.0, 0.5)):
            lhs = peakon_line_eval(gamma, p, xs, t)
            rhs = peakon_line_eval(gamma, p, xs - peakon_speed(gamma, p) * (t - t0), t0)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_negative_gamma_allowed(self):
        assert peakon_speed(-2.0, preset("novikov")) == pytest.approx(4.0)  # gamma^2


class TestPeakonCircle:
    def test_values_at_t0(self):
        p = preset("ch")
        assert peakon_circle_eval(0.8, p, math.pi, 0.0) == pytest.approx(0.8)
        assert peakon_circle_eval(0.8, p, 0.0, 0.0) == pytest.approx(0.8 * math.cosh(math.pi))

    def test_periodicity(self):
        p = preset("novikov")
        xs = np.linspace(0, 2 * np.pi, 17)
        a = peakon_circle_eval(1.3, p, xs, 0.4)
        b = peakon_circle_eval(1.3, p, xs + 2 * np.pi, 0.4)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_inadmissible_params_rejected(self):
        p = Params(2, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="6a"):
            circle_peakon_speed(1.0, p)
        with pytest.raises(ValueError, match="6a"):
            peakon_circle_eval(1.0, p, 0.0, 0.0)
        assert peakon_speed(1.0, p) == 1.0  # the line peakon needs no condition

    def test_ch_circle_speed_is_cosh_pi(self):
        # [1 + sinh^2 pi] cosh^{-1}(pi) = cosh(pi) for k = 1
        assert circle_peakon_speed(1.0, preset("ch")) == pytest.approx(math.cosh(math.pi), rel=1e-12)

    def test_circle_crest_tracks_speed(self):
        # sample the exact formula and recover the speed by crest tracking
        p = preset("ch")
        grid = Grid(256, 2 * np.pi)
        times = np.linspace(0.0, 0.5, 101)
        crests = [diagnostics.crest_position(Field(grid, peakon_circle_eval(1.0, p, grid.nodes, t))) for t in times]
        speed = diagnostics.crest_track(times, crests, grid.length)
        assert speed == pytest.approx(circle_peakon_speed(1.0, p), rel=1e-3)


class TestGreenKernels:
    def test_green_line_values(self):
        assert green_line(0.0) == 0.5
        assert green_line(math.log(2.0)) == pytest.approx(0.25, rel=1e-15)

    def test_green_periodic_value(self):
        got = green_periodic(0.0, 2 * np.pi)
        assert got == pytest.approx(math.cosh(math.pi) / (2 * math.sinh(math.pi)), rel=1e-14)
        assert got == pytest.approx(0.50187, abs=1e-5)

    def test_green_periodic_matches_image_sum(self):
        xs = np.linspace(-3.0, 9.0, 25)
        for circ in (2 * np.pi, 11.0):
            want = sum(green_line(xs + j * circ) for j in range(-60, 61))
            got = green_periodic(xs, circ)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_green_periodic_converges_to_line(self):
        for circ in (10.0, 20.0, 40.0):
            xs = np.linspace(0, circ / 4, 50)
            diff = np.abs(green_periodic(xs, circ) - green_line(xs))
            assert np.max(diff) <= math.exp(-circ / 2)

    def test_helmholtz_of_impulse_matches_green(self):
        # a band-limited unit-mass impulse (narrow Gaussian) through the
        # discrete smoother lands on the analytic kernel convolution; the
        # closed form uses the normal CDF
        grid = Grid(1024, 40 * np.pi)
        xc = grid.length / 2
        sig = 0.5
        imp = np.exp(-((grid.nodes - xc) ** 2) / (2 * sig**2)) / (sig * math.sqrt(2 * np.pi))
        got = helmholtz_inverse(Field(grid, imp)).values
        z = grid.nodes - xc
        want = 0.5 * math.exp(sig**2 / 2) * (
            np.exp(-z) * ndtr((z - sig**2) / sig) + np.exp(z) * (1.0 - ndtr((z + sig**2) / sig))
        )
        assert np.max(np.abs(got - want)) < 1e-8

    def test_helmholtz_of_grid_delta_qualitative(self):
        # a raw one-node impulse carries energy at every mode, so the match
        # to the sampled kernel is only O(dx) near the kink: check shape and
        # mass rather than a tight pointwise tolerance
        grid = Grid(1024, 40 * np.pi)
        imp = np.zeros(grid.n)
        imp[grid.n // 2] = 1.0
        got = helmholtz_inverse(Field(grid, imp)).values / grid.dx
        want = green_periodic(grid.nodes - grid.nodes[grid.n // 2], grid.length)
        assert np.argmax(got) == grid.n // 2
        assert abs(np.sum(got) * grid.dx - 1.0) < 1e-10  # total mass exact
        away = np.abs(np.arange(grid.n) - grid.n // 2) > 5
        assert np.max(np.abs(got[away] - want[away])) < 1e-4


class TestProfiles:
    def test_bump_compact_support(self):
        grid = Grid(512, 40 * np.pi)
        f = mollified_profile("bump", 1.0, 0.1, grid)
        d = np.abs(grid.nodes - grid.length / 2)
        assert np.all(f.values[d >= 1.0] == 0.0)
        assert np.max(f.values) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_peakon_mollifier_limit(self):
        grid = Grid(2048, 40 * np.pi)
        d = np.abs(grid.nodes - grid.length / 2)
        target = np.exp(-d)
        errs = []
        for moll in (4 * grid.dx, 2 * grid.dx, grid.dx):
            f = mollified_profile("peakon", 1.0, moll, grid)
            errs.append(np.max(np.abs(f.values - target)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05

    @pytest.mark.parametrize("gamma", [1.0, -0.5, 0.0])
    def test_peakon_starts_at_the_exact_h1_energy(self, gamma):
        # the exact peakon gamma*exp(-|x|) has squared H^1 norm 2*gamma^2
        grid = Grid(512, 40 * np.pi)
        f = mollified_profile("peakon", gamma, 3 * grid.dx, grid)
        assert diagnostics.h1_squared(f) == pytest.approx(2.0 * gamma**2, rel=1e-12, abs=0.0)

    def test_exp_tail_fitted_exponent(self):
        grid = Grid(512, 40 * np.pi)
        f = mollified_profile("exp_tail", 0.5, 3 * grid.dx, grid)
        fit = decay_fit(f, (5.0, 15.0))
        assert fit.theta_hat == pytest.approx(0.5, abs=0.01)
        assert not fit.floor_hit

    def test_bump_values_shape(self):
        xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        v = bump_values(xs, 1.0)
        assert v[0] == v[4] == 0.0
        assert v[2] == pytest.approx(math.exp(-1.0))
        assert v[1] == v[3] > 0.0
