import numpy as np
import pytest

from kabc.dynamics import SimConfig, StepRecord, Trajectory, simulate
from kabc.exact import green_periodic
from kabc.lagrangian import (
    WaveBreakingError,
    advect,
    conservation_check,
    cubic_interp_periodic,
    invariant_residuals,
    momentum,
    momentum_along,
)
from kabc.params import Params, preset
from kabc.spectral import Field, Grid


def steady_traj(grid, values, times, params):
    """Trajectory whose field is frozen in time (for advection tests)."""
    cfg = SimConfig(params=params, grid=grid, t_end=max(times[-1], 1e-9))
    traj = Trajectory(config=cfg)
    f = Field(grid, values)
    for t in times:
        traj.times.append(float(t))
        traj.snapshots.append(f)
        traj.records.append(StepRecord(float(t), 0.0, 0.0, 0.0))
    return traj


class TestMomentum:
    def test_sine(self):
        g = Grid(64, 2 * np.pi)
        out = momentum(Field(g, np.sin(g.nodes)))
        assert np.max(np.abs(out.values - 2.0 * np.sin(g.nodes))) < 1e-12

    def test_constant(self):
        g = Grid(64, 2 * np.pi)
        out = momentum(Field(g, np.full(64, 1.7)))
        assert np.max(np.abs(out.values - 1.7)) < 1e-12

    def test_smooth_kernel_roundtrip(self):
        # momentum(helmholtz of a band-limited f) returns f exactly
        from kabc.spectral import helmholtz_inverse

        g = Grid(128, 2 * np.pi)
        f = Field(g, np.cos(3 * g.nodes) + 0.2 * np.sin(7 * g.nodes))
        back = momentum(helmholtz_inverse(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_sampled_green_gives_grid_delta(self):
        # the sampled periodic kernel has a kink, so (1 - d_xx) of it is a
        # spike carrying unit mass; the pointwise match to the discrete
        # delta is only qualitative at finite n
        g = Grid(256, 2 * np.pi)
        j0 = g.n // 2
        vals = green_periodic(g.nodes - g.nodes[j0], g.length)
        m = momentum(Field(g, vals)).values
        assert int(np.argmax(m)) == j0
        # discrete mass of the sampled kernel carries the trapezoid kink
        # correction dx^2/12 (unit slope jump at the spike)
        assert np.sum(m) * g.dx == pytest.approx(1.0 + g.dx**2 / 12.0, abs=1e-8)
        assert m[j0] * g.dx == pytest.approx(1.0, abs=0.5)


class TestCubicInterp:
    def test_reproduces_cubic_polynomial_locally(self):
        g = Grid(64, 8.0)
        vals = np.sin(2 * np.pi * g.nodes / g.length)
        q = np.array([1.234, 3.9, 7.77])
        got = cubic_interp_periodic(vals, g, q)
        want = np.sin(2 * np.pi * q / g.length)
        assert np.max(np.abs(got - want)) < 2e-4  # O(dx^4)

    def test_exact_at_nodes(self):
        g = Grid(32, 2 * np.pi)
        rng = np.random.default_rng(3)
        vals = rng.normal(size=32)
        got = cubic_interp_periodic(vals, g, g.nodes)
        assert np.max(np.abs(got - vals)) < 1e-13

    def test_stacked_fields_equal_one_call_each(self):
        g = Grid(64, 2 * np.pi)
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(4, 64))
        q = np.concatenate([rng.uniform(-g.length, 2 * g.length, size=37), g.nodes[:5]])
        got = cubic_interp_periodic(stack, g, q)
        assert got.shape == (4, q.size)
        for row, values in zip(got, stack):
            assert np.array_equal(row, cubic_interp_periodic(values, g, q))

    def test_periodic_wrap(self):
        g = Grid(32, 2 * np.pi)
        vals = np.cos(g.nodes)
        got = cubic_interp_periodic(vals, g, np.array([-0.3, g.length + 0.3]))
        want = np.cos(np.array([-0.3, 0.3]))
        assert np.max(np.abs(got - want)) < 1e-3


class TestAdvect:
    def test_zero_field_identity(self):
        g = Grid(64, 2 * np.pi)
        traj = steady_traj(g, np.zeros(64), np.linspace(0, 1, 11), preset("ch"))
        seeds = np.array([0.5, 2.0, 4.4])
        ps = advect(traj, seeds)
        assert np.max(np.abs(ps.paths - seeds)) == 0.0
        assert np.max(np.abs(ps.stretch - 1.0)) == 0.0

    def test_constant_transport(self):
        # u = kappa frozen: eta = x0 + kappa^k t, eta_x = 1
        kappa, k = 0.7, 2
        g = Grid(64, 2 * np.pi)
        traj = steady_traj(g, np.full(64, kappa), np.linspace(0, 1, 21), preset("novikov"))
        seeds = np.array([1.0, 3.0])
        ps = advect(traj, seeds)
        want = seeds[None, :] + kappa**k * np.asarray(traj.times)[:, None]
        assert np.max(np.abs(ps.paths - want)) < 1e-12
        assert np.max(np.abs(ps.stretch - 1.0)) < 1e-12

    def test_steady_sine_matches_ode_oracle(self):
        # frozen u = A sin(x), k = 1: d(eta)/dt = A sin(eta) separates to
        # tan(eta/2) = tan(eta0/2) e^{A t}
        A = 0.5
        g = Grid(256, 2 * np.pi)
        traj = steady_traj(g, A * np.sin(g.nodes), np.linspace(0, 1, 101), preset("ch"))
        seeds = np.array([1.0, 2.0])
        ps = advect(traj, seeds)
        want = 2.0 * np.arctan(np.tan(seeds / 2.0) * np.exp(A * np.asarray(traj.times)[:, None]))
        assert np.max(np.abs(ps.paths - want)) < 1e-6

    def test_crest_seed_rides_with_wave(self):
        from kabc.exact import mollified_profile

        grid = Grid(2048, 40 * np.pi)
        p = preset("ch")
        u0 = mollified_profile("peakon", 1.0, grid.dx, grid)
        cfg = SimConfig(params=p, grid=grid, t_end=2.0, output_stride=2)
        traj = simulate(cfg, u0)
        ps = advect(traj, np.array([grid.length / 2]))
        slope = np.polyfit(traj.times, ps.paths[:, 0], 1)[0]
        assert slope == pytest.approx(1.0, rel=0.03)

    def test_group_property(self):
        g = Grid(256, 2 * np.pi)
        p = preset("novikov")
        u0 = Field(g, 0.3 * np.sin(g.nodes) + 0.1 * np.cos(2 * g.nodes))
        cfg = SimConfig(params=p, grid=g, t_end=0.5, dt_max=2.5e-3, output_stride=1)
        traj = simulate(cfg, u0)
        seeds = np.linspace(0.5, 5.5, 7)
        mid = len(traj.times) // 2

        def leg(part):
            return Trajectory(config=cfg, times=traj.times[part], snapshots=traj.snapshots[part])

        direct = advect(traj, seeds)
        leg1 = advect(leg(slice(None, mid + 1)), seeds)
        leg2 = advect(leg(slice(mid, None)), leg1.paths[-1])
        assert np.max(np.abs(leg2.paths[-1] - direct.paths[-1])) < 1e-6

    def test_stretch_matches_seed_differences(self):
        g = Grid(256, 2 * np.pi)
        p = preset("novikov")
        u0 = Field(g, 0.3 * np.sin(g.nodes))
        cfg = SimConfig(params=p, grid=g, t_end=0.5, dt_max=2.5e-3, output_stride=1)
        traj = simulate(cfg, u0)
        h = 1e-3
        x0 = 2.0
        ps = advect(traj, np.array([x0 - h, x0, x0 + h]))
        fd = (ps.paths[-1, 2] - ps.paths[-1, 0]) / (2 * h)
        assert abs(fd - ps.stretch[-1, 1]) < 1e-4

    def test_wave_breaking_aborts(self):
        # frozen compressive field: eta_x ~ exp(-A t) collapses through the
        # positivity floor and the advection must refuse to continue
        A = 30.0
        g = Grid(256, 2 * np.pi)
        traj = steady_traj(g, -A * np.sin(g.nodes - np.pi), np.linspace(0, 2.0, 201), preset("ch"))
        with pytest.raises(WaveBreakingError):
            advect(traj, np.array([np.pi]))


def advect_per_field(traj, seeds):
    """advect's RK4 with one interpolation call per field and stage: the
    reference the stacked stencil must reproduce bitwise."""
    from kabc.spectral import derivative

    grid, k = traj.config.grid, traj.config.params.k
    times = np.asarray(traj.times, dtype=float)
    u = [s.values for s in traj.snapshots]
    ux = [derivative(s, 1).values for s in traj.snapshots]
    eta, etax = np.array(seeds, dtype=float), np.ones(len(seeds))
    paths, stretch = [eta.copy()], [etax.copy()]
    for i in range(len(times) - 1):
        h = times[i + 1] - times[i]

        def rate(e, ex, frac):
            uv = (1.0 - frac) * cubic_interp_periodic(u[i], grid, e) + frac * cubic_interp_periodic(u[i + 1], grid, e)
            uxv = (1.0 - frac) * cubic_interp_periodic(ux[i], grid, e) + frac * cubic_interp_periodic(ux[i + 1], grid, e)
            return uv**k, k * uv ** (k - 1) * uxv * ex

        d1, s1 = rate(eta, etax, 0.0)
        d2, s2 = rate(eta + 0.5 * h * d1, etax + 0.5 * h * s1, 0.5)
        d3, s3 = rate(eta + 0.5 * h * d2, etax + 0.5 * h * s2, 0.5)
        d4, s4 = rate(eta + h * d3, etax + h * s3, 1.0)
        eta = eta + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        etax = etax + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
        paths.append(eta.copy())
        stretch.append(etax.copy())
    return np.asarray(paths), np.asarray(stretch)


class TestAdvectStencil:
    @pytest.fixture(scope="class", params=["ch", "novikov"])
    def smooth_traj(self, request):
        g = Grid(128, 2 * np.pi)
        u0 = Field(g, 0.3 * np.sin(g.nodes) + 0.1 * np.cos(2 * g.nodes) + 0.05)
        cfg = SimConfig(params=preset(request.param), grid=g, t_end=0.1, dt_max=5e-3, output_stride=1)
        return simulate(cfg, u0)

    def test_bitwise_equal_to_per_field_loop(self, smooth_traj):
        seeds = np.linspace(0.2, 6.0, 11)
        ps = advect(smooth_traj, seeds)
        paths, stretch = advect_per_field(smooth_traj, seeds)
        assert np.array_equal(ps.paths, paths)
        assert np.array_equal(ps.stretch, stretch)

    def test_one_interpolation_call_per_stage(self, smooth_traj, monkeypatch):
        from kabc import lagrangian

        calls = []
        interp = lagrangian.cubic_interp_periodic

        def counted(*args):
            calls.append(1)
            return interp(*args)

        monkeypatch.setattr(lagrangian, "cubic_interp_periodic", counted)
        ps = advect(smooth_traj, np.array([1.0, 2.0, 3.0]))
        assert len(ps.paths) == len(smooth_traj.times) > 2
        assert len(calls) == 4 * (len(ps.paths) - 1)


class TestConservationCheck:
    def novikov_run(self, n, dtm):
        g = Grid(n, 2 * np.pi)
        u0 = Field(g, 0.3 * np.sin(g.nodes) + 0.1 * np.cos(2 * g.nodes) + 0.05)
        cfg = SimConfig(params=preset("novikov"), grid=g, t_end=0.5, dt_max=dtm, output_stride=1)
        return simulate(cfg, u0)

    def test_zero_solution(self):
        g = Grid(64, 2 * np.pi)
        traj = steady_traj(g, np.zeros(64), np.linspace(0, 0.5, 6), preset("novikov"))
        ps = advect(traj, np.array([1.0, 2.0]))
        assert conservation_check(traj, ps, preset("novikov")) == 0.0

    def test_novikov_smooth_run(self):
        traj = self.novikov_run(256, 5e-3)
        seeds = np.linspace(0, 2 * np.pi, 16, endpoint=False) + 0.1
        ps = advect(traj, seeds)
        assert conservation_check(traj, ps, preset("novikov")) < 1e-4

    def test_residual_arrays(self):
        # one row per stored time, one column per seed; the check is their max
        traj = self.novikov_run(128, 1e-2)
        seeds = np.linspace(1.0, 5.0, 5)
        ps = advect(traj, seeds)
        m_along = momentum_along(traj, ps)
        res = invariant_residuals(ps, m_along, preset("novikov"))
        assert m_along.shape == res.shape == (len(traj.times), len(seeds))
        # the vectorised arrays equal the row-by-row computation exactly
        g = traj.config.grid
        for j, snap in enumerate(traj.snapshots):
            row = cubic_interp_periodic(momentum(snap).values, g, ps.paths[j])
            assert np.array_equal(m_along[j], row)
            want = np.abs(row * ps.stretch[j] ** 1.5 - m_along[0]) / (np.abs(m_along[0]) + 1e-12)
            assert np.array_equal(res[j], want)
        assert conservation_check(traj, ps, preset("novikov")) == np.max(res)

    def test_paths_of_another_trajectory_rejected(self):
        # momentum_along pairs path rows with snapshots one to one, so paths
        # advected through a trajectory of another length cannot be read
        g = Grid(64, 2 * np.pi)
        traj = steady_traj(g, np.full(64, 0.5), np.linspace(0, 0.5, 6), preset("novikov"))
        for times in (np.linspace(0, 0.5, 5), np.linspace(0, 0.5, 7)):
            ps = advect(steady_traj(g, np.full(64, 0.5), times, preset("novikov")), np.array([1.0, 2.0]))
            with pytest.raises(ValueError):
                momentum_along(traj, ps)

    def test_pure_transport_exponent_zero(self):
        # b = 0, k = 1: the law reduces to m(eta, t) = m0 with no stretch
        p = preset("gkbch", k=1, b=0.0)
        g = Grid(256, 2 * np.pi)
        u0 = Field(g, 0.2 * np.sin(g.nodes))
        cfg = SimConfig(params=p, grid=g, t_end=0.25, dt_max=2.5e-3, output_stride=1)
        traj = simulate(cfg, u0)
        seeds = np.linspace(1.0, 5.0, 8)
        ps = advect(traj, seeds)
        assert p.b / p.k == 0.0
        assert conservation_check(traj, ps, p) < 1e-4

    def test_rejects_off_family_params(self):
        g = Grid(64, 2 * np.pi)
        traj = steady_traj(g, np.zeros(64), [0.0, 0.1], preset("forq"))
        ps = advect(traj, np.array([1.0]))
        with pytest.raises(ValueError):
            conservation_check(traj, ps, preset("forq"))  # a != 0
        with pytest.raises(ValueError):
            conservation_check(traj, ps, Params(2, 0.0, 3.0, 0.0))  # c off family

    def test_residual_shrinks_under_refinement(self):
        def residual(n, dtm):
            traj = self.novikov_run(n, dtm)
            seeds = np.linspace(0, 2 * np.pi, 16, endpoint=False) + 0.1
            ps = advect(traj, seeds)
            return conservation_check(traj, ps, preset("novikov"))

        coarse = residual(256, 5e-3)
        fine = residual(512, 2.5e-3)
        assert fine <= coarse / 2.0
