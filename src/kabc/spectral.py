"""Periodic grid, Fourier transforms and spectral calculus.

All operators are diagonal in Fourier space (derivatives, the smoothing
inverse (1 - d_xx)^{-1} and its x-derivative) except the products, which are
computed alias-free on a zero-padded grid and truncated back.  SpectralOps
works on raw arrays: a Field's derivative is get_ops(f.grid).deriv(f.hat, k).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n samples (even, >= 8) on [0, length), the
    length finite and at least the smallest normal double: below it the
    spacing length / n can round to 0 and the wavenumbers cannot be formed."""

    n: int
    length: float

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise TypeError(f"n must be an integer, got {self.n!r}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")
        length = float(self.length)
        if not (math.isfinite(length) and length >= sys.float_info.min):
            raise ValueError(f"length must be finite and >= {sys.float_info.min!r}, got {length!r}")
        object.__setattr__(self, "length", length)

    @property
    def dx(self) -> float:
        return self.length / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.arange(self.n) * self.dx
        x.flags.writeable = False
        return x

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Nonnegative wavenumbers 2*pi*m/length, m = 0..n/2 (rfft layout);
        inf where they overflow, on a box of length near the smallest double."""
        with np.errstate(over="ignore"):
            xi = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        xi.flags.writeable = False
        return xi


@dataclass(frozen=True, eq=False)
class Field:
    """Real samples on a Grid, and their spectrum.

    Value-semantic: the samples are copied and made read-only on
    construction (adopt makes fresh samples read-only in place instead),
    and hat, the state's one spectrum, is transformed on first access and
    then kept read-only too, so every reader of a state (the stepper, its
    norms, a derivative) shares one rfft.  Operations return new Fields and
    never mutate their inputs.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_samples(self.grid, np.array(self.values, dtype=float)))

    @classmethod
    def adopt(cls, grid: Grid, values: np.ndarray) -> Field:
        """A Field over values, a fresh float array that no one else holds
        (an inverse transform's output, say): checked as the constructor
        checks its samples, then made read-only in place, not copied."""
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "values", _frozen_samples(grid, values))
        return field

    @cached_property
    def hat(self) -> np.ndarray:
        """rfft of the samples, computed on first access and kept read-only."""
        h = np.fft.rfft(self.values)
        h.flags.writeable = False
        return h


def _frozen_samples(grid: Grid, v: np.ndarray) -> np.ndarray:
    """v, a float array, made read-only once it holds grid.n finite samples;
    else ValueError."""
    if v.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("field samples must be finite")
    v.flags.writeable = False
    return v


class SpectralOps:
    """Precomputed multipliers and padding sizes for one grid.

    Works on raw arrays: deriv takes an rfft half-spectrum, upsample padded
    ones, apply and product take samples.  Instances are cached per grid and
    shared, so they hold no scratch memory: upsample and reduce_hat work in
    buffers the caller owns, one row or a stack of rows per transform call,
    which is how RhsOperator assembles a right-hand side without allocating.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        xi = grid.wavenumbers.copy()
        ik = 1j * xi
        ik[-1] = 0.0  # Nyquist zeroed for odd-order derivatives
        self.ik = ik
        self.d2 = -(xi**2)
        self.helmholtz = 1.0 / (1.0 + xi**2)
        self.green_dx = ik * self.helmholtz

    def deriv(self, hat: np.ndarray, order: int = 1) -> np.ndarray:
        """Samples of the order-1 or order-2 derivative, from the half-spectrum."""
        if order not in (1, 2):
            raise ValueError(f"derivative order must be 1 or 2, got {order}")
        mult = self.ik if order == 1 else self.d2
        return np.fft.irfft(hat * mult, self.grid.n)

    def apply(self, values: np.ndarray, mult: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(values) * mult, self.grid.n)

    def pad_size(self, n_factors: int) -> int:
        """Smallest even grid size keeping a product of n_factors fields
        alias-free, m >= (p + 1) * n / 2, with no prime factor above 11: the
        FFT is many times slower at a size with a large prime factor."""
        m = math.ceil((n_factors + 1) * self.grid.n / 2)
        m += m % 2
        # m has no prime factor above 11 exactly when it divides 2310^e, 2310 =
        # 2 * 3 * 5 * 7 * 11 and e any exponent at least log2(m)
        while pow(2310, m.bit_length(), m):
            m += 2
        return m

    def upsample(self, work: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
        """Trigonometric interpolation onto a padded size m > n of the
        half-spectra in work's first n//2 + 1 bins.

        work is one padded half-spectrum, of length m//2 + 1, or a stack of
        them (rows x bins); the caller writes the low bins and must keep the
        upper ones zero.  out, of length m or rows x m, receives the samples
        of every row from one inverse transform and is returned.
        """
        n = self.grid.n
        # split the combined +-Nyquist bin of each row (.T puts the bins
        # first in both forms, and costs a 1-D row less than [..., n // 2])
        work.T[n // 2] *= 0.5
        fine = np.fft.irfft(work, m, out=out)
        fine *= m / n
        return fine

    def reduce_hat(self, fine_values: np.ndarray, m: int, work: np.ndarray) -> np.ndarray:
        """Truncate samples on a padded size m > n back to the base rfft.

        fine_values is one row of m samples or a stack of them (rows x m),
        all forward-transformed in one call into work (m//2 + 1 bins per
        row), and the result is a view of each row's first n//2 + 1 bins.
        """
        n = self.grid.n
        out = np.fft.rfft(fine_values, out=work)[..., : n // 2 + 1]
        out *= n / m  # only the kept bins are scaled
        out.T[n // 2] = 2.0 * out.T[n // 2].real  # recombine the +-n/2 modes
        return out

    def product(self, factor_values: Sequence[np.ndarray]) -> np.ndarray:
        """Alias-free pointwise product of the given sample arrays."""
        p = len(factor_values)
        if p == 1:
            return np.asarray(factor_values[0], dtype=float).copy()
        m = self.pad_size(p)
        h = self.grid.n // 2 + 1
        pad, (acc, fine) = np.zeros(m // 2 + 1, dtype=complex), np.empty((2, m))
        np.fft.rfft(factor_values[0], out=pad[:h])
        self.upsample(pad, m, acc)
        for v in factor_values[1:]:
            np.fft.rfft(v, out=pad[:h])
            acc *= self.upsample(pad, m, fine)
        return np.fft.irfft(self.reduce_hat(acc, m, pad), self.grid.n)


@lru_cache(maxsize=64)
def get_ops(grid: Grid) -> SpectralOps:
    return SpectralOps(grid)

