import numpy as np
import pytest

from kabc.dynamics import SimConfig, simulate
from kabc.exact import green_periodic
from kabc.lagrangian import (
    WaveBreakingError,
    advect,
    conservation_check,
    cubic_interp_periodic,
    invariant_residuals,
    momentum,
    momentum_along,
    release,
)
from kabc.params import Params, preset
from kabc.spectral import Field, Grid


def steady_states(grid, values, times):
    """(t, u) of the stored states of a field frozen in time (for advection
    tests)."""
    f = Field(grid, values)
    return [(float(t), f) for t in times]


def run_states(cfg, u0):
    """(t, u) of each state simulate stores."""
    states = []
    simulate(cfg, u0, lambda rec, u: states.append((rec.t, u)))
    return states


def advect_all(states, seeds, k):
    """Paths and stretches, (n_states, n_seeds) each, of the seeds released
    in the first state and advected through the others in turn."""
    ps = release(seeds, *states[0])
    paths, stretch = [ps.eta], [ps.etax]
    for t, u in states[1:]:
        ps = advect(ps, t, u, k)
        paths.append(ps.eta)
        stretch.append(ps.etax)
    return np.asarray(paths), np.asarray(stretch)


def momentum_rows(states, paths):
    """momentum_along each state at its row of paths."""
    return np.asarray([momentum_along(u, eta) for (_, u), eta in zip(states, paths, strict=True)])


def times_of(states):
    return np.asarray([t for t, _ in states])


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
        states = steady_states(g, np.zeros(64), np.linspace(0, 1, 11))
        seeds = np.array([0.5, 2.0, 4.4])
        paths, stretch = advect_all(states, seeds, 1)
        assert np.max(np.abs(paths - seeds)) == 0.0
        assert np.max(np.abs(stretch - 1.0)) == 0.0

    def test_constant_transport(self):
        # u = kappa frozen: eta = x0 + kappa^k t, eta_x = 1
        kappa, k = 0.7, 2
        g = Grid(64, 2 * np.pi)
        states = steady_states(g, np.full(64, kappa), np.linspace(0, 1, 21))
        seeds = np.array([1.0, 3.0])
        paths, stretch = advect_all(states, seeds, k)
        want = seeds[None, :] + kappa**k * times_of(states)[:, None]
        assert np.max(np.abs(paths - want)) < 1e-12
        assert np.max(np.abs(stretch - 1.0)) < 1e-12

    def test_steady_sine_matches_ode_oracle(self):
        # frozen u = A sin(x), k = 1: d(eta)/dt = A sin(eta) separates to
        # tan(eta/2) = tan(eta0/2) e^{A t}
        A = 0.5
        g = Grid(256, 2 * np.pi)
        states = steady_states(g, A * np.sin(g.nodes), np.linspace(0, 1, 101))
        seeds = np.array([1.0, 2.0])
        paths, _ = advect_all(states, seeds, 1)
        want = 2.0 * np.arctan(np.tan(seeds / 2.0) * np.exp(A * times_of(states)[:, None]))
        assert np.max(np.abs(paths - want)) < 1e-6

    def test_crest_seed_rides_with_wave(self):
        from kabc.exact import mollified_profile

        grid = Grid(2048, 40 * np.pi)
        p = preset("ch")
        u0 = mollified_profile("peakon", 1.0, grid.dx, grid)
        cfg = SimConfig(params=p, grid=grid, t_end=2.0, output_stride=2)
        states = run_states(cfg, u0)
        paths, _ = advect_all(states, np.array([grid.length / 2]), p.k)
        slope = np.polyfit(times_of(states), paths[:, 0], 1)[0]
        assert slope == pytest.approx(1.0, rel=0.03)

    def test_group_property(self):
        g = Grid(256, 2 * np.pi)
        p = preset("novikov")
        u0 = Field(g, 0.3 * np.sin(g.nodes) + 0.1 * np.cos(2 * g.nodes))
        cfg = SimConfig(params=p, grid=g, t_end=0.5, dt_max=2.5e-3, output_stride=1)
        states = run_states(cfg, u0)
        seeds = np.linspace(0.5, 5.5, 7)
        mid = len(states) // 2
        direct, _ = advect_all(states, seeds, p.k)
        leg1, _ = advect_all(states[: mid + 1], seeds, p.k)
        leg2, _ = advect_all(states[mid:], leg1[-1], p.k)
        assert np.max(np.abs(leg2[-1] - direct[-1])) < 1e-6

    def test_stretch_matches_seed_differences(self):
        g = Grid(256, 2 * np.pi)
        p = preset("novikov")
        u0 = Field(g, 0.3 * np.sin(g.nodes))
        cfg = SimConfig(params=p, grid=g, t_end=0.5, dt_max=2.5e-3, output_stride=1)
        h = 1e-3
        x0 = 2.0
        paths, stretch = advect_all(run_states(cfg, u0), np.array([x0 - h, x0, x0 + h]), p.k)
        fd = (paths[-1, 2] - paths[-1, 0]) / (2 * h)
        assert abs(fd - stretch[-1, 1]) < 1e-4

    def test_wave_breaking_aborts(self):
        # frozen compressive field: eta_x ~ exp(-A t) collapses through the
        # positivity floor and the advection must refuse to continue
        A = 30.0
        g = Grid(256, 2 * np.pi)
        states = steady_states(g, -A * np.sin(g.nodes - np.pi), np.linspace(0, 2.0, 201))
        with pytest.raises(WaveBreakingError):
            advect_all(states, np.array([np.pi]), 1)

    @pytest.mark.parametrize("value", [1e120, 1e100])
    def test_non_finite_step_is_not_taken(self, value):
        # at k = 3, u = 1e120 overflows u^k, and u = 1e100 moves a particle
        # 5e298 in one step, too far to have a grid index: either step is
        # refused, with no warning, and no position is cast to an index
        g = Grid(64, 2 * np.pi)
        ps = release(np.array([1.0, 2.0]), 0.0, Field(g, np.zeros(64)))
        assert advect(ps, 0.1, Field(g, np.full(64, value)), 3) is None


def advect_per_field(states, seeds, k):
    """advect's RK4 with one interpolation call per field and stage: the
    reference the stacked stencil must reproduce bitwise."""
    from kabc.spectral import derivative

    grid = states[0][1].grid
    times = times_of(states)
    u = [s.values for _, s in states]
    ux = [derivative(s, 1).values for _, s in states]
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
        """The stored states of a smooth run, and its k."""
        g = Grid(128, 2 * np.pi)
        u0 = Field(g, 0.3 * np.sin(g.nodes) + 0.1 * np.cos(2 * g.nodes) + 0.05)
        p = preset(request.param)
        cfg = SimConfig(params=p, grid=g, t_end=0.1, dt_max=5e-3, output_stride=1)
        return run_states(cfg, u0), p.k

    def test_bitwise_equal_to_per_field_loop(self, smooth_traj):
        states, k = smooth_traj
        seeds = np.linspace(0.2, 6.0, 11)
        paths, stretch = advect_all(states, seeds, k)
        want_paths, want_stretch = advect_per_field(states, seeds, k)
        assert np.array_equal(paths, want_paths)
        assert np.array_equal(stretch, want_stretch)

    def test_one_interpolation_call_per_stage(self, smooth_traj, monkeypatch):
        from kabc import lagrangian

        calls = []
        interp = lagrangian.cubic_interp_periodic

        def counted(*args):
            calls.append(1)
            return interp(*args)

        monkeypatch.setattr(lagrangian, "cubic_interp_periodic", counted)
        states, k = smooth_traj
        paths, _ = advect_all(states, np.array([1.0, 2.0, 3.0]), k)
        assert len(paths) == len(states) > 2
        assert len(calls) == 4 * (len(paths) - 1)


class TestConservationCheck:
    def novikov_run(self, n, dtm):
        g = Grid(n, 2 * np.pi)
        u0 = Field(g, 0.3 * np.sin(g.nodes) + 0.1 * np.cos(2 * g.nodes) + 0.05)
        cfg = SimConfig(params=preset("novikov"), grid=g, t_end=0.5, dt_max=dtm, output_stride=1)
        return run_states(cfg, u0)

    def check(self, states, seeds, p):
        """conservation_check of the seeds advected through the states."""
        paths, stretch = advect_all(states, seeds, p.k)
        return conservation_check(stretch, momentum_rows(states, paths), p)

    def test_zero_solution(self):
        g = Grid(64, 2 * np.pi)
        states = steady_states(g, np.zeros(64), np.linspace(0, 0.5, 6))
        assert self.check(states, np.array([1.0, 2.0]), preset("novikov")) == 0.0

    def test_novikov_smooth_run(self):
        seeds = np.linspace(0, 2 * np.pi, 16, endpoint=False) + 0.1
        assert self.check(self.novikov_run(256, 5e-3), seeds, preset("novikov")) < 1e-4

    def test_residual_arrays(self):
        # one row per stored time, one column per seed; the check is their max
        states = self.novikov_run(128, 1e-2)
        seeds = np.linspace(1.0, 5.0, 5)
        paths, stretch = advect_all(states, seeds, 2)
        m_along = momentum_rows(states, paths)
        res = invariant_residuals(stretch, m_along, preset("novikov"))
        assert m_along.shape == res.shape == (len(states), len(seeds))
        # the vectorised arrays equal the row-by-row computation exactly
        for j, (_, snap) in enumerate(states):
            row = cubic_interp_periodic(momentum(snap).values, snap.grid, paths[j])
            assert np.array_equal(m_along[j], row)
            want = np.abs(row * stretch[j] ** 1.5 - m_along[0]) / (np.abs(m_along[0]) + 1e-12)
            assert np.array_equal(res[j], want)
        assert conservation_check(stretch, m_along, preset("novikov")) == np.max(res)

    def test_paths_of_another_trajectory_rejected(self):
        # invariant_residuals pairs stretch rows with momentum rows one to
        # one, so stretches from a run of another length cannot be read
        g = Grid(64, 2 * np.pi)
        states = steady_states(g, np.full(64, 0.5), np.linspace(0, 0.5, 6))
        paths, _ = advect_all(states, np.array([1.0, 2.0]), 2)
        m_along = momentum_rows(states, paths)
        for times in (np.linspace(0, 0.5, 5), np.linspace(0, 0.5, 7)):
            _, stretch = advect_all(steady_states(g, np.full(64, 0.5), times), np.array([1.0, 2.0]), 2)
            with pytest.raises(ValueError):
                invariant_residuals(stretch, m_along, preset("novikov"))

    def test_pure_transport_exponent_zero(self):
        # b = 0, k = 1: the law reduces to m(eta, t) = m0 with no stretch
        p = preset("gkbch", k=1, b=0.0)
        g = Grid(256, 2 * np.pi)
        u0 = Field(g, 0.2 * np.sin(g.nodes))
        cfg = SimConfig(params=p, grid=g, t_end=0.25, dt_max=2.5e-3, output_stride=1)
        seeds = np.linspace(1.0, 5.0, 8)
        assert p.b / p.k == 0.0
        assert self.check(run_states(cfg, u0), seeds, p) < 1e-4

    def test_rejects_off_family_params(self):
        g = Grid(64, 2 * np.pi)
        states = steady_states(g, np.zeros(64), [0.0, 0.1])
        with pytest.raises(ValueError):
            self.check(states, np.array([1.0]), preset("forq"))  # a != 0
        with pytest.raises(ValueError):
            self.check(states, np.array([1.0]), Params(2, 0.0, 3.0, 0.0))  # c off family

    def test_residual_shrinks_under_refinement(self):
        def residual(n, dtm):
            seeds = np.linspace(0, 2 * np.pi, 16, endpoint=False) + 0.1
            return self.check(self.novikov_run(n, dtm), seeds, preset("novikov"))

        coarse = residual(256, 5e-3)
        fine = residual(512, 2.5e-3)
        assert fine <= coarse / 2.0
