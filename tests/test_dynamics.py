import gc
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kabc import dynamics
from kabc.dynamics import (
    CFL_SAFETY,
    MAX_STEPS,
    SOBOLEV_S,
    STACK_MAX_M,
    RhsOperator,
    SimConfig,
    StepLimitError,
    StepRecord,
    Trajectory,
    cfl_dt,
    mms_forcing,
    rk4_step,
    simulate,
)
from kabc.exact import mollified_profile
from kabc.params import Params, h1_conserved, preset
from kabc.spectral import Field, Grid, SpectralOps, get_ops
from kabc import diagnostics
from oracles import local_form_residual, mms_forcing_reference, rhs


def band_limited(grid, max_mode, seed, amp=0.25):
    rng = np.random.default_rng(seed)
    coef = np.zeros(grid.n // 2 + 1, dtype=complex)
    coef[1 : max_mode + 1] = rng.normal(size=max_mode) + 1j * rng.normal(size=max_mode)
    v = np.fft.irfft(coef, grid.n)
    return Field(grid, v * (amp / np.max(np.abs(v))))


def stored_states(cfg, u0):
    """simulate's trajectory and the (record, state) pairs it stored."""
    states = []
    traj = simulate(cfg, u0, lambda rec, u: states.append((rec, u)))
    return traj, states


def traced_peak(cfg, u0, steps):
    """How far simulate's traced memory peaks above where it starts, on a
    run of about this many steps."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = simulate(cfg, u0)
        grown = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert abs(traj.steps - steps) <= 1
    return grown


def fold(hs, h1_sq=None, dts=None):
    """A k = 1 Trajectory that folded in a record per H^s norm in hs, at
    times 0, 0.1, ..., with these squared H^1 norms (1 by default) and step
    sizes (0.1 by default); the first is u0's, which has no step."""
    g = Grid(16, 2 * np.pi)
    h1_sq = h1_sq or [1.0] * len(hs)
    dts = [0.0, *(dts or [0.1] * (len(hs) - 1))]
    recs = [StepRecord(i / 10, dt, h, e) for i, (h, e, dt) in enumerate(zip(hs, h1_sq, dts, strict=True))]
    traj = Trajectory(1, Field(g, np.zeros(16)), recs[0])
    for rec in recs[1:]:
        traj.add(rec)
    return traj


# parameter sets, unforced and forced, whose RHS workspaces differ: k = 1 to
# 4, with and without the a and u_xx terms
WORKSPACE_SETS = [
    (preset("ch"), False),
    (preset("dp"), False),
    (preset("novikov"), False),
    (preset("forq"), False),
    (Params(3, 0.5, 1.0, 0.5), False),
    (Params(4, -0.4, 2.0, 1.0), False),
    (preset("forq"), True),
]


def sine_wave(x, t):
    """The manufactured solution 0.1 sin(x - t)."""
    return 0.1 * np.sin(x - t)


def sine_forcing(p, g):
    """mms_forcing of sine_wave, a wave of speed 1."""
    return mms_forcing(Field(g, sine_wave(g.nodes, 0.0)), 1.0, p)


class TestRhs:
    def test_zero_field(self):
        g = Grid(64, 2 * np.pi)
        assert np.max(np.abs(rhs(Field(g, np.zeros(64)), preset("novikov")).values)) == 0.0

    def test_constant_field(self):
        # constants are equilibria: derivative terms vanish and the
        # smoothed gradient of a constant bracket is zero
        g = Grid(64, 2 * np.pi)
        for name in ("ch", "novikov", "forq"):
            out = rhs(Field(g, np.full(64, 2.0)), preset(name))
            assert np.max(np.abs(out.values)) < 1e-12

    def test_sine_novikov_closed_form(self):
        # local -sin^2 cos; brackets f1 = sin^3 + 1.5 sin cos^2 and
        # f2 = (k(k+2) - b - c(k+1)) cos^3 = 0.5 cos^3 at (k=2, b=3, c=3/2)
        g = Grid(128, 2 * np.pi)
        s, c = np.sin(g.nodes), np.cos(g.nodes)
        ops = get_ops(g)
        want = (
            -s**2 * c
            - ops.apply(s**3 + 1.5 * s * c**2, ops.green_dx)
            - ops.apply(0.5 * c**3, ops.helmholtz)
        )
        out = rhs(Field(g, s), preset("novikov"))
        assert np.max(np.abs(out.values - want)) < 1e-10

    def test_sine_forq_closed_form(self):
        # local -sin^2 cos + (1/3) cos^3; f1 = (2/3) sin^3 + sin cos^2 (the
        # u^{k-3} term is pruned at k = 2); f2 = (8 - 8/3 - 2 - 3) cos^3
        g = Grid(128, 2 * np.pi)
        s, c = np.sin(g.nodes), np.cos(g.nodes)
        ops = get_ops(g)
        want = (
            -s**2 * c
            + c**3 / 3.0
            - ops.apply((2.0 / 3.0) * s**3 + s * c**2, ops.green_dx)
            - ops.apply(c**3 / 3.0, ops.helmholtz)
        )
        out = rhs(Field(g, s), preset("forq"))
        assert np.max(np.abs(out.values - want)) < 1e-10

    def test_mollified_peakon_travels(self):
        # away from the crest the peakon satisfies u_t = -speed * u_x
        grid = Grid(1024, 40 * np.pi)
        p = preset("ch")
        u = mollified_profile("peakon", 1.0, grid.dx, grid)
        resid = rhs(u, p).values + 1.0 * get_ops(grid).deriv(u.hat, 1)
        d = np.abs(grid.nodes - grid.length / 2)
        assert np.max(np.abs(resid[d > 3.0])) < 5e-3

    def test_k1_off_family_rejected(self):
        # k = 1 with b + 2c != 3 gives the u^{k-2} u_x^3 bracket a nonzero
        # coefficient and would need 1/u
        g = Grid(64, 2 * np.pi)
        with pytest.raises(ValueError):
            rhs(Field(g, np.ones(64)), Params(1, 0.0, 2.0, 0.0))

    def test_forcing_added(self):
        g = Grid(64, 2 * np.pi)
        cos_hat = np.fft.rfft(np.cos(g.nodes))
        forcing = lambda t: cos_hat * (1.0 + t)
        out = rhs(Field(g, np.zeros(64)), preset("ch"), t=2.0, forcing=forcing)
        assert np.max(np.abs(out.values - 3.0 * np.cos(g.nodes))) < 1e-13

    def test_samples_rejected(self):
        # the operator maps half-spectra; n samples must not be misread as one
        u = band_limited(Grid(64, 2 * np.pi), 8, seed=0)
        with pytest.raises(ValueError, match=r"shape \(33,\)"):
            RhsOperator(u.grid, preset("ch"))(u.values, 0.0)

    @pytest.mark.parametrize(
        "p, ffts",
        [
            (preset("ch"), 4),
            (preset("dp"), 4),
            (preset("novikov"), 5),
            (preset("forq"), 5),
            (Params(3, 0.5, 1.0, 0.5), 6),
        ],
    )
    def test_fft_budget(self, p, ffts, monkeypatch):
        # one padded inverse row per upsampled factor, one padded forward row
        # per bracket, nothing at the base size: in one call each way up to
        # STACK_MAX_M, one call per row above it
        g = Grid(64, 2 * np.pi)
        uh = band_limited(g, 8, seed=0).hat
        calls = []  # rows transformed by each call

        def counted(fft):
            def call(a, *args, **kwargs):
                calls.append(math.prod(np.shape(a)[:-1]))
                return fft(a, *args, **kwargs)
            return call

        stacked = RhsOperator(g, p)
        monkeypatch.setattr(dynamics, "STACK_MAX_M", stacked.m - 1)
        per_row = RhsOperator(g, p)
        monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", counted(np.fft.irfft))
        stacked(uh, 0.0)
        assert stacked.m <= STACK_MAX_M and len(calls) == 2 and sum(calls) == ffts
        calls.clear()
        per_row(uh, 0.0)
        assert calls == [1] * ffts

    @pytest.mark.parametrize("p, forced", WORKSPACE_SETS)
    def test_workspace_hygiene(self, p, forced):
        # the workspace is rewritten by every call: a second call must match
        # a fresh operator's, and must not write into the first result
        g = Grid(128, 2 * np.pi)
        forcing = sine_forcing(p, g) if forced else None
        op = RhsOperator(g, p, forcing)
        a, b = band_limited(g, 10, seed=1).hat, band_limited(g, 10, seed=2).hat
        out_a = op(a, 0.3)
        kept_a = out_a.copy()
        out_b = op(b, 0.3)
        assert np.array_equal(out_b, RhsOperator(g, p, forcing)(b, 0.3))
        assert np.array_equal(out_a, kept_a)
        assert not np.shares_memory(out_a, out_b)

    @pytest.mark.parametrize("p, forced", WORKSPACE_SETS)
    def test_stacked_rows_match_one_row_at_a_time(self, p, forced, monkeypatch):
        # the same grid with its padded size at STACK_MAX_M (stacked) and
        # just above it (a row at a time): the arithmetic is the same, bit
        # for bit, on every call
        g = Grid(128, 2 * np.pi)
        forcing = sine_forcing(p, g) if forced else None
        m = RhsOperator(g, p).m
        ops = {}
        for bound in (m, m - 1):
            monkeypatch.setattr(dynamics, "STACK_MAX_M", bound)
            ops[bound] = RhsOperator(g, p, forcing)
        for seed in (1, 2):
            uh = band_limited(g, 10, seed=seed).hat
            assert np.array_equal(ops[m](uh, 0.3), ops[m - 1](uh, 0.3))

    @pytest.mark.parametrize("p, n", [(preset("ch"), 2050), (preset("novikov"), 2062), (preset("forq"), 130)])
    def test_smooth_padding_agrees_with_the_alias_bound_size(self, p, n, monkeypatch):
        # pad_size steps over (p + 1) n / 2 = 3076, 4124 and 260 (prime
        # factors 769, 1031 and 13); both sizes keep the products alias-free
        g = Grid(n, 2 * np.pi)
        uh = band_limited(g, n // 8, seed=3).hat
        smooth = RhsOperator(g, p)
        low = math.ceil((p.k + 2) * n / 2)
        monkeypatch.setattr(SpectralOps, "pad_size", lambda ops, f: low + low % 2)
        bound = RhsOperator(g, p)
        assert smooth.m > bound.m == low + low % 2
        want = bound(uh, 0.0)
        assert np.max(np.abs(smooth(uh, 0.0) - want)) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "p", [preset("ch"), preset("novikov"), preset("forq"), Params(3, 0.5, 1.0, 0.5)]
    )
    def test_allocation_budget(self, p):
        # once warm, a call allocates its fresh result and a few small
        # temporaries, nothing of the padded size
        g = Grid(8192, 40 * np.pi)
        op = RhsOperator(g, p)
        uh = band_limited(g, 64, seed=0).hat
        op(uh, 0.0)
        tracemalloc.start()
        try:
            op(uh, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * (g.n // 2 + 1) * 16


class TestLocalFormResidual:
    def test_zero(self):
        g = Grid(64, 2 * np.pi)
        z = Field(g, np.zeros(64))
        assert np.max(np.abs(local_form_residual(z, z, preset("novikov")).values)) == 0.0

    @pytest.mark.parametrize("name", ["ch", "dp", "novikov", "forq"])
    def test_nonlocal_rhs_satisfies_local_form(self, name):
        p = preset(name)
        g = Grid(256, 2 * np.pi)
        for seed in range(3):
            u = band_limited(g, g.n // 6, seed=seed)
            ut = rhs(u, p)
            res = local_form_residual(u, ut, p)
            assert np.max(np.abs(res.values)) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=5),
        a=st.floats(min_value=-2.0, max_value=2.0),
        b=st.floats(min_value=-4.0, max_value=4.0),
        c=st.floats(min_value=-2.0, max_value=2.0),
        n=st.sampled_from([128, 256]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_whole_admissible_family(self, k, a, b, c, n, seed):
        # k = 1 is admissible only with a = 0 and b + 2c = 3.  The band limit
        # stays below n / (2(k+1)): at that limit the top mode of the
        # degree-(k+1) products lands on Nyquist and the residual reflects
        # the input, not the solver.
        p = Params(1, 0.0, b, (3.0 - b) / 2.0) if k == 1 else Params(k, a, b, c)
        g = Grid(n, 2 * np.pi)
        u = band_limited(g, n // (2 * (k + 2)), seed=seed)
        res = local_form_residual(u, rhs(u, p), p)
        assert np.max(np.abs(res.values)) <= 1e-8

    def test_wrong_ut_gives_large_residual(self):
        p = preset("novikov")
        g = Grid(256, 2 * np.pi)
        u = band_limited(g, 20, seed=1)
        bad = Field(g, rhs(u, p).values + 0.01 * np.sin(g.nodes))
        res = local_form_residual(u, bad, p)
        assert np.max(np.abs(res.values)) > 1e-3


class TestH1ConservationRule:
    # Fixed before measuring.  On this data the rates measure at most 6e-16
    # on the manifolds and at least 1.4e-2 off them (c shifted by 0.1).
    TOL = 1e-10
    SHIFT = 0.1

    @staticmethod
    def h1_rate(p):
        """dE/dt = 2<(1 - d_xx)u, u_t> from one rhs() call, E the squared H^1
        norm, on smooth data that is not symmetric: for even data the
        off-manifold rate, a multiple of int u^{k-1} u_x^3, vanishes."""
        g = Grid(256, 2 * np.pi)
        u = Field(g, 0.5 + 0.3 * np.sin(g.nodes) + 0.2 * np.cos(2 * g.nodes + 1.0))
        m = u.values - get_ops(g).deriv(u.hat, 2)
        return 2.0 * g.dx * np.dot(m, rhs(u, p).values)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=5),
        a=st.floats(min_value=-2.0, max_value=2.0),
        b=st.floats(min_value=-4.0, max_value=4.0),
        shift=st.sampled_from([0.0, -SHIFT, SHIFT]),
    )
    def test_rule_holds_exactly_where_the_rate_vanishes(self, k, a, b, shift):
        if k == 1:  # the admissible line b + 2c = 3 meets the manifold at CH only
            b = 2.0 + shift
            p = Params(1, 0.0, b, (3.0 - b) / 2.0)
        elif k == 2:  # 9a + b + 4c = 9
            p = Params(2, a, b, (9.0 - 9.0 * a - b) / 4.0 + shift)
        else:  # a = 0 and 2c + (2/k)(b + 2c - 3k) + 1 = 2k
            p = Params(k, 0.0, b, (2.0 * k + 5.0 - 2.0 * b / k) / (2.0 + 4.0 / k) + shift)
        assert h1_conserved(p) == (shift == 0.0)
        assert h1_conserved(p) == (abs(self.h1_rate(p)) <= self.TOL)


class TestMassConservationRule:
    # Fixed before measuring, as for the H^1 rule.  Over 2000 random points
    # of this strategy the rates measure at most 7.4e-16 on the rule and at
    # least 2.3e-3 off it.
    TOL = 1e-10
    SHIFT = 0.1

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=5),
        # a nonzero a is at least 0.1 in size, so that its rate at k >= 4
        # stands clear of the tolerance
        a=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=2.0), st.floats(min_value=-2.0, max_value=-0.1)),
        b=st.floats(min_value=-4.0, max_value=4.0),
        shift=st.sampled_from([0.0, -SHIFT, SHIFT]),
    )
    def test_rule_holds_exactly_where_the_mass_rate_vanishes(self, k, a, b, shift):
        """d/dt int u = dx sum(u_t) from one rhs() call vanishes exactly when
        9a + b + (k + 1)c = k(k + 2) and a(k - 2)(k - 3) = 0; on the H^1
        test's data, since for even data the off-rule rate vanishes too."""
        if k == 1:  # every admissible k = 1 point (a = 0, b + 2c = 3) is on the rule
            a, shift = 0.0, 0.0
        c = (k * (k + 2) - 9.0 * a - b) / (k + 1)
        p = Params(k, a, b + shift, c)
        g = Grid(256, 2 * np.pi)
        u = Field(g, 0.5 + 0.3 * np.sin(g.nodes) + 0.2 * np.cos(2 * g.nodes + 1.0))
        rate = g.dx * np.sum(rhs(u, p).values)
        assert (abs(rate) <= self.TOL) == (shift == 0.0 and a * (k - 2) * (k - 3) == 0.0)


class TestCflDt:
    def test_zero_field_gives_dt_max(self):
        g = Grid(64, 2 * np.pi)
        f = Field(g, np.zeros(64))
        assert cfl_dt(f, preset("ch"), 0.3) == 0.3

    def test_arithmetic(self):
        # max speed u^k = 2, dx = 0.1, CFL_SAFETY 0.4, dt_max 1 -> 0.02
        g = Grid(64, 6.4)
        f = Field(g, np.full(64, 2.0))
        assert cfl_dt(f, preset("ch"), 1.0) == pytest.approx(0.02, rel=1e-12)

    def test_top_mode_stays_inside_rk4_stability(self):
        # at speed v the top mode xi = pi/dx of u_t = -v u_x has lambda =
        # -i v xi, so a CFL step makes |lambda dt| = pi CFL_SAFETY.  RK4 keeps
        # that mode from growing only while CFL_SAFETY <= 0.900 (2 sqrt 2 / pi):
        # its amplification is 0.978 at 0.4 and 2.03 at a safety of 1
        g, v = Grid(64, 6.4), 2.0
        dt = cfl_dt(Field(g, np.full(64, v)), preset("ch"), 1.0)
        lam = -1j * v * g.wavenumbers[-1]

        def gain(dt):
            return abs(rk4_step(lambda y, t: lam * y, np.ones(1, dtype=complex), 0.0, dt)[0])

        assert gain(dt) <= 1.0 and gain(dt) == pytest.approx(0.978, abs=5e-4)
        assert gain(dt / CFL_SAFETY) == pytest.approx(2.03, abs=5e-3)

    def test_peakon_speed_scale(self):
        g = Grid(1024, 40 * np.pi)
        u = mollified_profile("peakon", 1.0, 3 * g.dx, g)
        dt = cfl_dt(u, preset("ch"), 10.0)
        assert dt == pytest.approx(0.4 * g.dx / np.max(np.abs(u.values)), rel=1e-6)

    @pytest.mark.parametrize("name, values", [
        ("novikov", lambda x: np.full_like(x, 1e200)),  # u^2 overflows: an inf speed
        ("forq", lambda x: 1e160 * np.sin(x)),  # u^2 - a u_x^2 is inf - inf: a NaN speed
    ])
    def test_non_finite_speed_gives_a_zero_step(self, name, values):
        g = Grid(64, 2 * np.pi)
        assert cfl_dt(Field(g, values(g.nodes)), preset(name), 1e-2) == 0.0

    def test_gradient_term_enters_for_a_nonzero(self):
        # steep field: u_x^2 dominates u^2, so the -a u^{k-2} u_x^2 part of
        # the characteristic speed must shrink dt when a != 0
        g = Grid(128, 2 * np.pi)
        u = Field(g, 0.5 * np.sin(4 * g.nodes))
        dt_forq = cfl_dt(u, preset("forq"), 10.0)
        dt_nov = cfl_dt(u, preset("novikov"), 10.0)
        assert dt_forq < dt_nov


def physical_space_reference(cfg, u0, states):
    """Replays the step sizes of a run's states, stored at output_stride 1,
    with RK4 on samples: every stage through rhs()."""

    def f(v, t):
        return rhs(Field(cfg.grid, v), cfg.params, t, cfg.forcing).values

    v, t = u0.values, 0.0
    for rec, _ in states[1:]:
        v = rk4_step(f, v, t, rec.dt)
        t += rec.dt
    return v


class TestRk4:
    def test_an_overflowing_stage_comes_back_non_finite(self):
        # the right-hand side does not test finiteness: simulate's check of
        # the step's new samples is the one blow-up detector
        g = Grid(64, 2 * np.pi)
        with np.errstate(over="ignore", invalid="ignore"):
            out = rk4_step(RhsOperator(g, preset("novikov")), np.fft.rfft(np.full(64, 1e200)), 0.0, 0.1)
        assert not np.all(np.isfinite(out))

    def test_zero_stays_zero(self):
        g = Grid(64, 2 * np.pi)
        out = rk4_step(RhsOperator(g, preset("novikov")), np.fft.rfft(np.zeros(64)), 0.0, 0.1)
        assert np.all(np.fft.irfft(out, 64) == 0.0)

    def test_linear_decay_exact_taylor(self):
        # on u' = -u one RK4 step reproduces the 4-term Taylor polynomial
        # of exp(-dt) exactly
        dt = 0.3
        out = rk4_step(lambda y, t: -y, np.array([1.0]), 0.0, dt)
        want = sum((-dt) ** j / math.factorial(j) for j in range(5))
        assert abs(out[0] - want) < 1e-15

    def test_local_error_fifth_order(self):
        p = preset("novikov")
        g = Grid(128, 2 * np.pi)
        u = np.fft.rfft(0.3 * np.sin(g.nodes) + 0.1 * np.cos(2 * g.nodes))
        op = RhsOperator(g, p)

        def reference(u0, dt, nsub=64):
            v, t, h = u0.copy(), 0.0, dt / nsub
            for _ in range(nsub):
                v = rk4_step(op, v, t, h)
                t += h
            return v

        dt = 0.1
        e1 = np.max(np.abs(np.fft.irfft(rk4_step(op, u, 0.0, dt) - reference(u, dt), g.n)))
        e2 = np.max(np.abs(np.fft.irfft(rk4_step(op, u, 0.0, dt / 2) - reference(u, dt / 2), g.n)))
        assert 26.0 < e1 / e2 < 40.0


class TestTrajectory:
    def test_zero_energy_drift_is_nan(self):
        assert math.isnan(fold((0.0, 0.0), h1_sq=(0.0, 0.0)).h1_drift)

    def test_constant_energy(self):
        assert fold((1.0, 1.0, 1.0), h1_sq=(2.0, 2.0, 2.0)).h1_drift == 0.0

    def test_drift_is_the_largest_departure_from_the_first_energy(self):
        traj = fold((1.0,) * 4, h1_sq=(2.0, 2.5, 1.0, 2.25))
        assert traj.max_h1_dev == 1.0 and traj.h1_drift == 0.5

    @pytest.mark.parametrize("dts, min_dt", [((0.1, 0.05, 0.1, 0.01), 0.05), ((0.2, 0.01), 0.2), ((0.01,), math.inf)])
    def test_min_dt_leaves_out_the_last_step(self, dts, min_dt):
        # only a run's last step may be cut short to land on t_end; u0's
        # record has no step
        traj = fold((1.0,) * (len(dts) + 1), dts=dts)
        assert traj.min_dt == min_dt and traj.last.dt == dts[-1] and traj.steps == len(dts)


class TestSimulate:
    def test_zero_initial_data(self):
        g = Grid(64, 2 * np.pi)
        cfg = SimConfig(params=preset("ch"), grid=g, t_end=0.5)
        traj, states = stored_states(cfg, Field(g, np.zeros(64)))
        assert traj.stop_reason is None
        assert traj.last_time == pytest.approx(0.5, abs=1e-12)
        assert states[-1][1] is traj.final
        for _, snap in states:
            assert np.all(snap.values == 0.0)

    def test_deterministic(self):
        g = Grid(128, 2 * np.pi)
        u0 = band_limited(g, 10, seed=5)
        cfg = SimConfig(params=preset("forq"), grid=g, t_end=0.3)
        a, a_states = stored_states(cfg, u0)
        b, b_states = stored_states(cfg, u0)
        assert np.array_equal(a.final.values, b.final.values)
        assert [rec for rec, _ in a_states] == [rec for rec, _ in b_states]

    def test_forq_step_transforms_forward_once_beyond_its_rhs_calls(self, monkeypatch):
        # cfl_dt takes u_x (a != 0) from the spectrum simulate steps on, so a
        # step's forward transforms are its 4 RHS calls' plus its new samples'
        g = Grid(64, 2 * np.pi)
        p = preset("forq")
        u0 = band_limited(g, 8, seed=0)
        rfft, calls = np.fft.rfft, []

        def counted(*args, **kwargs):
            calls.append(1)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        RhsOperator(g, p)(rfft(u0.values), 0.0)
        per_rhs = len(calls)
        calls.clear()
        steps = simulate(SimConfig(params=p, grid=g, t_end=0.05, dt_max=0.01), u0).steps
        assert steps == 5
        assert len(calls) == 1 + steps * (4 * per_rhs + 1)  # u0's transform first

    def test_blowup_contained(self):
        # a finite start whose CFL speed u^2 overflows has a zero first step,
        # which the first-step cap refuses before any state is stored
        g = Grid(64, 2 * np.pi)
        u0 = Field(g, np.full(64, 1e200))
        cfg = SimConfig(params=preset("novikov"), grid=g, t_end=1.0)
        states = []
        with pytest.raises(StepLimitError, match=r"first CFL step 0 needs more than 1\.8e\+308 steps"):
            simulate(cfg, u0, lambda rec, u: states.append(u))
        assert len(states) == 1 and np.all(states[0].values == 1e200)

    @pytest.mark.parametrize("output_stride", [1, 3, 10**6])
    def test_blowup_stores_the_last_good_state_once(self, output_stride):
        # a forcing that turns non-finite after t = 0.1 ends a zero start
        # in its eleventh step; the last good state is stored whether or
        # not the stride stored it already
        g = Grid(16, 2 * np.pi)

        def forcing(t):
            return np.full(g.n // 2 + 1, np.inf if t > 0.1 else 0.0, dtype=complex)

        cfg = SimConfig(params=preset("ch"), grid=g, t_end=1.0, dt_max=0.01, output_stride=output_stride,
                        forcing=forcing)
        u0 = Field(g, np.zeros(16))
        traj, states = stored_states(cfg, u0)
        assert traj.stop_reason == f"non-finite field after t = {traj.last_time:.6g}"
        times = [rec.t for rec, _ in states]
        assert times == sorted(set(times)) and times[-1] == traj.last_time == pytest.approx(0.1)
        assert states[-1] == (traj.last, traj.final)
        assert traj.steps == 10
        assert len(states) == {1: 11, 3: 5, 10**6: 2}[output_stride]

    @pytest.mark.parametrize("stop_at", [0, 2, 4, None])
    def test_a_consumer_ends_the_run(self, stop_at):
        # a reason on_state returns ends the run at that stored state, which
        # is not stored again; the run stores the states of steps 0, 3, 6, 9
        # and its last step, 10
        g = Grid(16, 2 * np.pi)
        cfg = SimConfig(params=preset("ch"), grid=g, t_end=0.1, dt_max=0.01, output_stride=3)
        stored = []

        def take(rec, u):
            stored.append(rec)
            return "stopped for the test" if len(stored) - 1 == stop_at else None

        traj = simulate(cfg, Field(g, np.zeros(16)), take)
        assert traj.stop_reason == (None if stop_at is None else "stopped for the test")
        assert stored[-1] is traj.last
        assert len(stored) == (5 if stop_at is None else stop_at + 1)
        assert traj.steps == [0, 3, 6, 9, 10][len(stored) - 1]

    def test_step_that_no_longer_advances_t_ends_the_run(self):
        # this k = 3 peakon steepens until, from its 160th step, dt (about
        # 2.4e-18) is below the spacing of doubles at t = 0.0325; stepping
        # on would repeat that t for over 2,000 steps before going non-finite.
        # At output_stride 1 every step's state is stored; at 1000 only u0's
        # and, at the stop, the last good one
        g = Grid(128, 40 * np.pi)
        u0 = mollified_profile("peakon", 8.0, 3 * g.dx, g)
        cfg = SimConfig(params=Params(3, 0.0, 0.0, 0.0), grid=g, t_end=1.0, output_stride=1)
        traj, states = stored_states(cfg, u0)
        assert traj.steps <= 160 and len(states) == traj.steps + 1
        times = [rec.t for rec, _ in states]
        assert all(later > earlier for earlier, later in zip(times, times[1:]))
        dt = float(re.fullmatch(r"time step (\S+) no longer advances t = (\S+)", traj.stop_reason).group(1))
        assert traj.last_time + dt == traj.last_time
        sparse, sparse_states = stored_states(replace(cfg, output_stride=1000), u0)
        assert sparse.stop_reason == traj.stop_reason and len(sparse_states) == 2
        assert sparse_states[-1] == (sparse.last, sparse.final) and sparse.last == traj.last
        assert np.all(np.isfinite(sparse.final.values))

    @pytest.mark.parametrize("name", ["ch", "forq"])
    def test_records_are_the_stored_snapshots_norms(self, name):
        # simulate measures the spectrum it steps on; that must be the
        # transform of the samples it stores, bit for bit
        g = Grid(128, 2 * np.pi)
        u0 = band_limited(g, 10, seed=4)
        cfg = SimConfig(params=preset(name), grid=g, t_end=0.3)
        traj, states = stored_states(cfg, u0)
        assert len(states) == traj.steps + 1 > 10
        assert states[0][0] is traj.first and states[-1][0] is traj.last
        for rec, snap in states:
            assert rec.hs_norm == diagnostics.sobolev_norm(snap, SOBOLEV_S)
            assert rec.h1_sq == diagnostics.h1_squared(snap)

    def test_run_memory_is_independent_of_its_stored_states(self):
        # with no on_state a run keeps no stored state but its last: 1,000
        # stored states peak within a margin of 100, where keeping them
        # would cost 900 states of n doubles (29.5 MB) more.  The margin,
        # fixed before running, is four states.
        g = Grid(4096, 40 * np.pi)
        u0 = mollified_profile("peakon", 1.0, 3 * g.dx, g)

        def peak(states):
            return traced_peak(SimConfig(params=preset("ch"), grid=g, t_end=(states - 1) * 1e-4, dt_max=1e-4), u0,
                               states - 1)

        simulate(SimConfig(params=preset("ch"), grid=g, t_end=1e-4, dt_max=1e-4), u0)  # fills the per-grid caches
        assert peak(1000) <= peak(100) + 4 * g.n * 8

    def test_run_memory_is_independent_of_its_steps(self):
        # tenfold the steps at the same two stored states (u0 and the last)
        # peak within a margin of 100, fixed before running: 24 bytes per
        # extra step, less than keeping a float per step (24 bytes and a
        # list slot) and far below a step record (184 bytes and a slot)
        g = Grid(16, 2 * np.pi)
        u0 = band_limited(g, 3, seed=1, amp=0.1)

        def peak(steps):
            cfg = SimConfig(params=preset("ch"), grid=g, t_end=steps * 1e-3, dt_max=1e-3, output_stride=10**6)
            return traced_peak(cfg, u0, steps)

        peak(1)  # fills the per-grid caches
        assert peak(1000) <= peak(100) + 900 * 24

    def test_softbound_recorded_for_small_data(self):
        g = Grid(128, 2 * np.pi)
        u0 = band_limited(g, 6, seed=9, amp=0.05)
        cfg = SimConfig(params=preset("novikov"), grid=g, t_end=0.5)
        traj = simulate(cfg, u0)
        sb = traj.softbound()
        assert sb["hs0"] == traj.first.hs_norm and sb["bound_factor"] == 2.0**1.5
        assert sb["bound"] == sb["bound_factor"] * sb["hs0"]
        assert traj.sup_hs <= sb["bound"]
        assert sb["exceeded_t"] is None

    @pytest.mark.parametrize("hs, exceeded_t", [((1.0, 3.0, 4.0, 4.5, 5.0), 0.3), ((1.0, 4.0, 4.0), None),
                                                 ((0.0, 1.0, 2.0), None)])
    def test_softbound_exceeded_at_the_first_step_past_the_bound(self, hs, exceeded_t):
        # at k = 1 the bound is 4 hs0, exceeded strictly; zero data has none
        traj = fold(hs)
        sb = traj.softbound()
        assert sb["bound"] == 4.0 * hs[0] and sb["exceeded_t"] == exceeded_t
        assert sb["sup_hs"] == max(hs) and traj.steps == len(hs) - 1

    def test_step_cap_raises_before_the_first_step(self):
        # t_end / dt_max = 1e8 steps, ten times the cap
        g = Grid(16, 2 * np.pi)
        u0 = band_limited(g, 3, seed=1, amp=0.1)
        cfg = SimConfig(params=preset("ch"), grid=g, t_end=1e6)
        assert cfg.t_end / cfg.dt_max > MAX_STEPS
        with pytest.raises(StepLimitError, match=r"needs about 1e\+08 steps, above the cap of 1e\+07"):
            simulate(cfg, u0)

    def test_output_stride(self):
        g = Grid(64, 2 * np.pi)
        u0 = band_limited(g, 6, seed=2, amp=0.1)
        cfg = SimConfig(params=preset("ch"), grid=g, t_end=0.2, dt_max=1e-2, output_stride=5)
        traj, states = stored_states(cfg, u0)
        assert traj.steps == 20
        _, every = stored_states(replace(cfg, output_stride=1), u0)
        assert [rec for rec, _ in states] == [every[i][0] for i in (0, 5, 10, 15, 20)]  # initial + every 5th

    def test_grid_mismatch(self):
        cfg = SimConfig(params=preset("ch"), grid=Grid(64, 2 * np.pi), t_end=0.1)
        with pytest.raises(ValueError):
            simulate(cfg, Field(Grid(128, 2 * np.pi), np.zeros(128)))

    def test_h1_conserved_smooth_run(self):
        g = Grid(256, 2 * np.pi)
        u0 = Field(g, 0.3 * np.sin(g.nodes) + 0.1 * np.cos(2 * g.nodes))
        cfg = SimConfig(params=preset("novikov"), grid=g, t_end=0.25, dt_max=5e-3)
        traj = simulate(cfg, u0)
        assert traj.h1_drift < 1e-7

    @pytest.mark.parametrize(
        "p, max_mode",
        [
            (preset("ch"), 127),
            (preset("dp"), 127),
            (preset("novikov"), 127),
            # a != 0 makes full-band data ill-conditioned at this n: a
            # 1e-16 relative perturbation of u0 moves FORQ's final state by
            # O(1).  At k >= 3 (the c_f2_2, u_xx path) it blows up instead.
            (preset("forq"), 40),
            (Params(3, 0.5, 1.0, 0.5), 10),
            (Params(4, -0.4, 2.0, 1.0), 10),
        ],
    )
    def test_matches_physical_space_reference(self, p, max_mode):
        g = Grid(256, 2 * np.pi)
        cfg = SimConfig(params=p, grid=g, t_end=0.05, dt_max=2.5e-3)
        u0 = band_limited(g, max_mode, seed=1)
        traj, states = stored_states(cfg, u0)
        assert traj.stop_reason is None
        want = physical_space_reference(cfg, u0, states)
        got = traj.final.values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_matches_physical_space_reference_under_forcing(self):
        p = preset("forq")
        g = Grid(256, 2 * np.pi)
        cfg = SimConfig(params=p, grid=g, t_end=0.25, dt_max=1.0 / 64, forcing=sine_forcing(p, g))
        u0 = Field(g, sine_wave(g.nodes, 0.0))
        traj, states = stored_states(cfg, u0)
        want = physical_space_reference(cfg, u0, states)
        got = traj.final.values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("p", [preset("novikov"), preset("forq")])
    def test_forced_trajectory_matches_uncached_forcing(self, p):
        # the reference builds a fresh operator per stage and repeats
        # simulate's state round trip, so a forced run keeps no state
        # between calls that would change its trajectory
        g = Grid(128, 2 * np.pi)
        forcing = sine_forcing(p, g)
        cfg = SimConfig(params=p, grid=g, t_end=0.25, dt_max=1.0 / 64, forcing=forcing)
        u0 = Field(g, sine_wave(g.nodes, 0.0))
        traj, states = stored_states(cfg, u0)

        def fresh(uh, t):
            return RhsOperator(g, p, forcing)(uh, t)

        u, t = u0, 0.0
        for rec, snap in states[1:]:
            u = Field(g, np.fft.irfft(rk4_step(fresh, u.hat, t, rec.dt), g.n))
            t += rec.dt
            assert u.values.tobytes() == snap.values.tobytes()
        assert len(states) == traj.steps + 1 == 17


class TestScalingSymmetry:
    def test_lambda_two_rescaled_trajectories_agree(self):
        # u(x,t) -> lam * u(x, lam^k t) maps solutions to solutions; with
        # matched step schedules the discrete flows coincide too
        p = preset("novikov")
        lam, k, T = 2.0, 2, 0.5
        g = Grid(128, 2 * np.pi)
        u0 = Field(g, 0.25 * np.sin(g.nodes) + 0.1 * np.cos(2 * g.nodes))
        cfg_a = SimConfig(params=p, grid=g, t_end=T, dt_max=2e-3, output_stride=10**9)
        cfg_b = SimConfig(params=p, grid=g, t_end=T / lam**k, dt_max=2e-3 / lam**k, output_stride=10**9)
        ta = simulate(cfg_a, u0)
        tb = simulate(cfg_b, Field(g, lam * u0.values))
        va = lam * ta.final.values
        vb = tb.final.values
        assert np.max(np.abs(va - vb)) <= 1e-6 * np.max(np.abs(vb))

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=5),
        a=st.floats(min_value=-2.0, max_value=2.0),
        b=st.floats(min_value=-4.0, max_value=4.0),
        c=st.floats(min_value=-2.0, max_value=2.0),
        n=st.sampled_from([128, 256]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_rhs_scaling_is_exact(self, k, a, b, c, n, seed):
        # every term of the right-hand side has degree k+1 in u, so
        # u -> lam u scales it by lam^(k+1); for a power of two lam every
        # product, sum and FFT butterfly scales exactly, so equality is bitwise
        p = Params(1, 0.0, b, (3.0 - b) / 2.0) if k == 1 else Params(k, a, b, c)
        g = Grid(n, 2 * np.pi)
        op = RhsOperator(g, p)
        uh = band_limited(g, n // (2 * (k + 2)), seed=seed).hat
        base = op(uh, 0.0)
        for lam in (0.25, 0.5, 2.0, 4.0):
            assert np.array_equal(op(lam * uh, 0.0), lam ** (k + 1) * base)


class TestMms:
    def test_zero_solution_zero_forcing(self):
        g = Grid(64, 2 * np.pi)
        forcing = mms_forcing(Field(g, np.zeros(64)), 1.0, preset("novikov"))
        assert np.all(forcing(0.7) == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=5),
        a=st.floats(min_value=-2.0, max_value=2.0),
        b=st.floats(min_value=-4.0, max_value=4.0),
        c=st.floats(min_value=-2.0, max_value=2.0),
        periods=st.integers(min_value=1, max_value=2),
        amp=st.floats(min_value=0.01, max_value=1.0),
        speed=st.floats(min_value=-2.0, max_value=2.0),
        t=st.floats(min_value=0.0, max_value=8.0),
    )
    def test_shifted_forcing_matches_the_forcing_built_at_each_time(self, k, a, b, c, periods, amp, speed, t):
        # one right-hand side at t = 0, phase-shifted, against the
        # right-hand side of the wave's samples at t: on a box of whole
        # periods whose degree-(k+1) harmonics (mode <= 12) stay below n/2
        p = Params(1, 0.0, b, (3.0 - b) / 2.0) if k == 1 else Params(k, a, b, c)
        g = Grid(64, 2 * np.pi * periods)

        def value(x, t):
            return amp * np.sin(x - speed * t)

        def dt_value(x, t):
            return -speed * amp * np.cos(x - speed * t)

        got = mms_forcing(Field(g, value(g.nodes, 0.0)), speed, p)(t)
        want = np.fft.rfft(mms_forcing_reference(value, dt_value, p, g)(g.nodes, t))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert got[-1].imag == 0.0

    def test_traveling_sine_reproduced(self):
        p = preset("novikov")
        g = Grid(128, 2 * np.pi)
        forcing = sine_forcing(p, g)
        cfg = SimConfig(params=p, grid=g, t_end=1.0, dt_max=1.0 / 256, forcing=forcing)
        traj = simulate(cfg, Field(g, sine_wave(g.nodes, 0.0)))
        err = np.max(np.abs(traj.final.values - sine_wave(g.nodes, traj.last_time)))
        assert err < 1e-8

    def test_fourth_order_in_time(self):
        p = preset("forq")
        g = Grid(64, 2 * np.pi)
        forcing = sine_forcing(p, g)
        errs = []
        for dt in (1.0 / 32, 1.0 / 64):
            cfg = SimConfig(params=p, grid=g, t_end=1.0, dt_max=dt, forcing=forcing)
            traj = simulate(cfg, Field(g, sine_wave(g.nodes, 0.0)))
            errs.append(np.max(np.abs(traj.final.values - sine_wave(g.nodes, traj.last_time))))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)
