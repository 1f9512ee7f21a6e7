import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kabc.spectral import Field, Grid, get_ops


def band_limited(grid, max_mode, seed):
    """Random real field with modes 1..max_mode."""
    rng = np.random.default_rng(seed)
    coef = np.zeros(grid.n // 2 + 1, dtype=complex)
    coef[1 : max_mode + 1] = rng.normal(size=max_mode) + 1j * rng.normal(size=max_mode)
    return Field(grid, np.fft.irfft(coef, grid.n))


def dft_direct(values, sign):
    """O(n^2) summation DFT, the oracle for the fft round-trip."""
    n = len(values)
    j = np.arange(n)
    w = np.exp(sign * 2j * np.pi * np.outer(j, j) / n)
    return w @ values


class TestGrid:
    def test_basic(self):
        g = Grid(64, 2 * np.pi)
        assert g.dx * g.n == pytest.approx(g.length, rel=1e-15)
        assert g.nodes[0] == 0.0
        assert len(g.wavenumbers) == 33
        assert g.wavenumbers[1] == pytest.approx(1.0)

    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            Grid(63, 1.0)
        with pytest.raises(ValueError):
            Grid(4, 1.0)
        with pytest.raises(ValueError):
            Grid(64, -1.0)

    @pytest.mark.parametrize("length", [5e-324, 1e-310, math.nextafter(sys.float_info.min, 0.0)])
    def test_rejects_a_length_below_the_smallest_normal_double(self, length):
        # below it length / n can round to 0 (rfftfreq divides by it) or the
        # wavenumbers read 0 * inf = NaN at bin 0
        with pytest.raises(ValueError, match=re.escape(repr(sys.float_info.min))):
            Grid(8, length)

    def test_the_smallest_normal_double_is_a_length(self):
        # its wavenumbers overflow past bin 0 and read inf, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xi = Grid(8, sys.float_info.min).wavenumbers
        assert xi[0] == 0.0 and np.all(np.isinf(xi[1:]))


class TestField:
    def test_values_read_only(self):
        f = Field(Grid(16, 1.0), np.zeros(16))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_rejects_nonfinite(self):
        v = np.zeros(16)
        v[3] = np.inf
        with pytest.raises(ValueError):
            Field(Grid(16, 1.0), v)

    def test_hat_matches_transform(self):
        g = Grid(32, 2 * np.pi)
        f = Field(g, np.sin(g.nodes))
        assert np.allclose(f.hat, np.fft.rfft(f.values))

    def test_hat_is_transformed_once_and_kept_read_only(self, monkeypatch):
        rfft, calls = np.fft.rfft, []

        def counted(*args, **kwargs):
            calls.append(1)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        g = Grid(32, 2 * np.pi)
        f = Field(g, np.sin(g.nodes))
        assert f.hat is f.hat
        get_ops(g).deriv(f.hat, 1)
        get_ops(g).deriv(f.hat, 2)
        assert len(calls) == 1
        with pytest.raises(ValueError):
            f.hat[1] = 0.0
        with pytest.raises(ValueError):
            f.hat *= 2.0


class TestRoundtrip:
    def test_sine(self):
        g = Grid(64, 2 * np.pi)
        f = Field(g, np.sin(g.nodes))
        out = np.fft.irfft(f.hat, g.n)
        assert np.max(np.abs(out - f.values)) < 1e-12

    def test_constant(self):
        g = Grid(64, 2 * np.pi)
        f = Field(g, np.full(64, 3.0))
        assert np.max(np.abs(np.fft.irfft(f.hat, g.n) - 3.0)) < 1e-12

    def test_against_direct_dft(self):
        # independent O(n^2) oracle at n = 16
        g = Grid(16, 2 * np.pi)
        f = band_limited(g, 4, seed=7)
        fw = dft_direct(f.values.astype(complex), -1)
        back = dft_direct(fw, +1) / g.n
        assert np.max(np.abs(back.real - f.values)) < 1e-12
        out = np.fft.irfft(f.hat, g.n)
        assert np.max(np.abs(out - back.real)) < 1e-12

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000))
    def test_roundtrip_random(self, seed):
        g = Grid(64, 2 * np.pi)
        f = band_limited(g, 16, seed)
        scale = max(1.0, np.max(np.abs(f.values)))
        assert np.max(np.abs(np.fft.irfft(f.hat, g.n) - f.values)) < 1e-12 * scale


class TestDerivative:
    def test_sin_first(self):
        g = Grid(64, 2 * np.pi)
        f = Field(g, np.sin(g.nodes))
        assert np.max(np.abs(get_ops(g).deriv(f.hat, 1) - np.cos(g.nodes))) < 1e-12

    def test_sin_second(self):
        g = Grid(64, 2 * np.pi)
        f = Field(g, np.sin(g.nodes))
        assert np.max(np.abs(get_ops(g).deriv(f.hat, 2) + np.sin(g.nodes))) < 1e-12

    def test_exp_cos_analytic(self):
        g = Grid(128, 2 * np.pi)
        x = g.nodes
        f = Field(g, np.exp(np.cos(x)))
        want = -np.sin(x) * np.exp(np.cos(x))
        assert np.max(np.abs(get_ops(g).deriv(f.hat, 1) - want)) < 1e-10

    def test_invalid_order(self):
        g = Grid(16, 1.0)
        with pytest.raises(ValueError):
            get_ops(g).deriv(Field(g, np.zeros(16)).hat, 3)

    def test_nyquist_zeroed_at_order_one(self):
        # the +-n/2 mode has no odd derivative on the grid; order 2 keeps it
        g = Grid(16, 2 * np.pi)
        f = Field(g, np.cos(np.pi * np.arange(16)))
        ops = get_ops(g)
        assert np.array_equal(ops.deriv(f.hat, 1), np.zeros(16))
        assert np.max(np.abs(ops.deriv(f.hat, 2) + 64.0 * f.values)) < 1e-12

    @pytest.mark.parametrize("order", [1, 2])
    def test_cached_transform_bit_identical(self, order):
        # reusing f.hat must give exactly the transform-multiply-invert result
        g = Grid(128, 2 * np.pi)
        f = band_limited(g, 40, seed=3)
        ops = get_ops(g)
        mult = ops.ik if order == 1 else ops.d2
        want = np.fft.irfft(np.fft.rfft(f.values) * mult, g.n)
        assert np.array_equal(ops.deriv(f.hat, order), want)


class TestHelmholtzInverse:
    def test_constant_fixed_point(self):
        g = Grid(64, 2 * np.pi)
        ops = get_ops(g)
        assert np.max(np.abs(ops.apply(np.ones(64), ops.helmholtz) - 1.0)) < 1e-13

    def test_sine_halved(self):
        g = Grid(64, 2 * np.pi)
        ops = get_ops(g)
        assert np.max(np.abs(ops.apply(np.sin(g.nodes), ops.helmholtz) - 0.5 * np.sin(g.nodes))) < 1e-13

    def test_matches_kernel_quadrature(self):
        # corrected trapezoid oracle for (1/2) int exp(-|x-y|) f(y) dy with a
        # narrow Gaussian f on a box wide enough to emulate the line
        g = Grid(512, 40 * np.pi)
        xc = g.length / 2
        sig = 1.0
        fvals = np.exp(-((g.nodes - xc) ** 2) / (2 * sig**2)) / (sig * np.sqrt(2 * np.pi))
        ops = get_ops(g)
        got = ops.apply(fvals, ops.helmholtz)

        refine = 16
        h = g.dx / refine
        y = np.arange(g.n * refine) * h
        fy = np.exp(-((y - xc) ** 2) / (2 * sig**2)) / (sig * np.sqrt(2 * np.pi))
        for idx in range(0, g.n, 37):
            x0 = g.nodes[idx]
            integrand = 0.5 * np.exp(-np.abs(x0 - y)) * fy
            val = np.sum(integrand) * h  # periodic trapezoid = plain sum
            # Euler-Maclaurin kink correction at y = x0: the integrand's
            # one-sided slopes jump by -2 g(x0) there
            val -= h * h / 12.0 * 2.0 * 0.5 * fy[idx * refine]
            assert abs(got[idx] - val) < 1e-8

    def test_inverse_of_helmholtz_operator(self):
        # (1 - d_xx) o (1 - d_xx)^{-1} = identity on band-limited fields
        g = Grid(96, 2 * np.pi)
        f = band_limited(g, g.n // 3, seed=3)
        ops = get_ops(g)
        w = Field(g, ops.apply(f.values, ops.helmholtz))
        back = w.values - ops.deriv(w.hat, 2)
        assert np.max(np.abs(back - f.values)) < 1e-10 * max(1.0, np.max(np.abs(f.values)))

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_self_adjoint(self, seed):
        g = Grid(64, 2 * np.pi)
        f = band_limited(g, 20, seed)
        h = band_limited(g, 20, seed + 1)
        ops = get_ops(g)
        lhs = np.sum(ops.apply(f.values, ops.helmholtz) * h.values) * g.dx
        rhs = np.sum(f.values * ops.apply(h.values, ops.helmholtz)) * g.dx
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) < 1e-12 * scale


class TestGreenDxConvolve:
    def test_constant_to_zero(self):
        g = Grid(64, 2 * np.pi)
        ops = get_ops(g)
        assert np.max(np.abs(ops.apply(np.full(64, 5.0), ops.green_dx))) < 1e-13

    def test_sine(self):
        g = Grid(64, 2 * np.pi)
        ops = get_ops(g)
        assert np.max(np.abs(ops.apply(np.sin(g.nodes), ops.green_dx) - 0.5 * np.cos(g.nodes))) < 1e-13

    def test_second_derivative_identity(self):
        # d_x(d_x G * f) = G * f - f
        g = Grid(128, 2 * np.pi)
        f = band_limited(g, 30, seed=11)
        ops = get_ops(g)
        lhs = ops.deriv(Field(g, ops.apply(f.values, ops.green_dx)).hat, 1)
        rhs = ops.apply(f.values, ops.helmholtz) - f.values
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(f.values)))


def spectrum_full(values):
    return np.fft.fft(values)


def convolve_modes(spectra, n):
    """Brute-force spectral convolution oracle: polynomial multiplication of
    full spectra laid out on integer modes, truncated to the grid's band."""
    half = n // 2
    acc = None
    for sp in spectra:
        arr = np.zeros(2 * half + 1, dtype=complex)
        for m in range(-half + 1, half):
            arr[m + half] = sp[m % n]
        arr /= n
        acc = arr if acc is None else np.convolve(acc, arr)
    center = (len(acc) - 1) // 2
    out = np.zeros(n, dtype=complex)
    for m in range(-half + 1, half):
        out[m % n] = acc[center + m]
    return out * n


class TestPaddedTransforms:
    def test_upsample_writes_and_returns_out(self):
        # at m = 2n every other fine node is a coarse node, so the
        # interpolant of hat * mult reads back the samples of its multiplier
        g = Grid(32, 2 * np.pi)
        f = band_limited(g, 15, seed=4)
        ops = get_ops(g)
        m = ops.pad_size(3)
        assert m == 2 * g.n
        out, work = np.empty(m), np.zeros(m // 2 + 1, dtype=complex)
        for mult, want in ((1.0, f.values), (ops.ik, ops.deriv(f.hat, 1)), (ops.d2, ops.deriv(f.hat, 2))):
            np.multiply(f.hat, mult, out=work[: g.n // 2 + 1])
            fine = ops.upsample(work, m, out)
            assert fine is out
            assert np.max(np.abs(fine[::2] - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))
            assert not np.any(work[g.n // 2 + 1 :])  # only the low bins are written

    def test_reduce_hat_is_a_view_of_work(self):
        g = Grid(32, 2 * np.pi)
        f = band_limited(g, 15, seed=5)
        ops = get_ops(g)
        m = ops.pad_size(2)
        pad = np.zeros(m // 2 + 1, dtype=complex)
        pad[: g.n // 2 + 1] = f.hat
        fine = ops.upsample(pad, m, np.empty(m))
        work = np.empty(m // 2 + 1, dtype=complex)
        back = ops.reduce_hat(fine, m, work)
        assert np.shares_memory(back, work) and back.shape == f.hat.shape
        assert np.max(np.abs(back - f.hat)) < 1e-12

    # n = 8192 pads past dynamics.STACK_MAX_M, where RhsOperator stops stacking
    @pytest.mark.parametrize("n", [32, 128, 8192])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_stacked_rows_transform_as_single_rows(self, n, rows):
        # one call on a stack of rows gives each row's one-row result bit
        # for bit, both ways
        g = Grid(n, 2 * np.pi)
        ops = get_ops(g)
        m, h = ops.pad_size(3), n // 2 + 1
        hats = [band_limited(g, n // 4, seed=10 + r).hat * mult for r, mult in enumerate((1.0, ops.ik, ops.d2))]
        stack = np.zeros((rows, m // 2 + 1), dtype=complex)
        for row, hat in zip(stack, hats):
            row[:h] = hat
        fine = ops.upsample(stack, m, np.empty((rows, m)))
        back = ops.reduce_hat(fine, m, np.empty((rows, m // 2 + 1), dtype=complex))
        assert fine.shape == (rows, m) and back.shape == (rows, h)
        for r in range(rows):
            one = np.zeros(m // 2 + 1, dtype=complex)
            one[:h] = hats[r]
            one_fine = ops.upsample(one, m, np.empty(m))
            assert np.array_equal(fine[r], one_fine)
            assert np.array_equal(back[r], ops.reduce_hat(one_fine, m, np.empty(m // 2 + 1, dtype=complex)))


class TestPadSize:
    @staticmethod
    def smooth(m):
        return all(q <= 11 for q in range(2, m + 1) if m % q == 0 and all(q % r for r in range(2, q)))

    @pytest.mark.parametrize("p", [2, 3, 4, 6, 12])
    def test_smallest_even_11_smooth_size_past_the_alias_bound(self, p):
        for n in range(8, 400, 2):
            m, low = get_ops(Grid(n, 1.0)).pad_size(p), math.ceil((p + 1) * n / 2)
            assert m >= low and m % 2 == 0 and self.smooth(m)
            assert not any(self.smooth(j) for j in range(low + low % 2, m, 2))

    def test_power_of_two_sizes_keep_their_padding(self):
        # m = (k + 2) n / 2 has no prime factor above 11 for k <= 10
        for k in range(1, 11):
            for n in (8, 64, 1024, 8192):
                assert get_ops(Grid(n, 1.0)).pad_size(k + 1) == (k + 2) * n // 2

    def test_a_large_prime_factor_is_stepped_over(self):
        # (p + 1) n / 2 = 8196 = 4 * 3 * 683 for Novikov's cubic at n = 4098
        assert get_ops(Grid(4098, 1.0)).pad_size(3) == 8232  # 2^3 * 3 * 7^3


class TestDealiasedProduct:
    def test_sin_squared(self):
        g = Grid(64, 2 * np.pi)
        f = Field(g, np.sin(g.nodes))
        got = get_ops(g).product([f.values, f.values])
        want = (1.0 - np.cos(2 * g.nodes)) / 2.0
        assert np.max(np.abs(got - want)) < 1e-12

    def test_single_factor_identity(self):
        g = Grid(32, 2 * np.pi)
        f = band_limited(g, 15, seed=2)
        assert np.max(np.abs(get_ops(g).product([f.values]) - f.values)) < 1e-14

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 10_000), p=st.integers(2, 3))
    def test_matches_convolution_oracle(self, seed, p):
        g = Grid(32, 2 * np.pi)
        factors = [band_limited(g, 5, seed + i) for i in range(p)]
        got = np.fft.fft(get_ops(g).product([f.values for f in factors]))
        want = convolve_modes([spectrum_full(f.values) for f in factors], g.n)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) < 1e-12 * scale

    def test_three_factor_high_mode(self):
        # mode-3 content cubed reaches mode 9; exact on the padded grid
        g = Grid(32, 2 * np.pi)
        f = Field(g, np.cos(3 * g.nodes))
        got = get_ops(g).product([f.values] * 3)
        want = np.cos(3 * g.nodes) ** 3
        assert np.max(np.abs(got - want)) < 1e-13


class TestParseval:
    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_l2_preserved(self, seed):
        g = Grid(64, 5.0)
        f = band_limited(g, 20, seed)
        phys = np.sum(f.values**2) * g.dx
        count = np.full(g.n // 2 + 1, 2.0)
        count[0] = count[-1] = 1.0
        spec = np.sum(count * np.abs(f.hat) ** 2) * g.length / g.n**2
        assert abs(phys - spec) < 1e-12 * max(1.0, phys)
