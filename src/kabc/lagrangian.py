"""Particle paths of the transport field, momentum density, and the
characteristic conservation law of the a = 0 subfamily.

Particles follow d(eta)/dt = u^k(eta, t) with eta(0) = x0; the stretch
eta_x obeys its own linear equation d(eta_x)/dt = k u^{k-1} u_x(eta, t) eta_x
and is integrated jointly rather than differenced between neighbors, one
stored state at a time: release places the particles in a run's first state
and advect steps them to each next one as the run makes it.  For
a = 0 and c = (3k - b)/2 the momentum m = u - u_xx satisfies
m(eta(t), t) * eta_x(t)^{b/k} = m(x0, 0) along every path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import Params
from .spectral import Field, derivative

# eta_x at or below this aborts advection: the flow map is no longer a
# diffeomorphism to working precision (wave-breaking indicator).
STRETCH_FLOOR = 1e-10


class WaveBreakingError(RuntimeError):
    """eta_x lost positivity along some path."""


@dataclass(frozen=True)
class Particles:
    """Paths eta(x0, t) and stretches eta_x(x0, t) of the seeds x0 at the
    time t of a stored state, with its u and u_x, which the next step reads."""

    t: float
    eta: np.ndarray   # (n_seeds,)
    etax: np.ndarray  # (n_seeds,)
    samples: np.ndarray  # (2, n): u and u_x at t


def _samples(u: Field) -> np.ndarray:
    return np.stack((u.values, derivative(u, 1).values))


def release(seeds, t: float, u: Field) -> Particles:
    """Particles at the seeds (eta_x = 1) in the stored state u at time t."""
    eta = np.asarray(seeds, dtype=float).copy()
    if eta.ndim != 1 or eta.size == 0:
        raise ValueError("seeds must be a non-empty 1-d sequence")
    return Particles(t, eta, np.ones_like(eta), _samples(u))


def momentum(u: Field) -> Field:
    """Momentum density m = u - u_xx."""
    return Field(u.grid, u.values - derivative(u, 2).values)


def cubic_interp_periodic(values: np.ndarray, grid, q: np.ndarray) -> np.ndarray:
    """4-point Lagrange interpolation of grid samples at positions q,
    periodic in the box.

    values may stack several fields along its leading axes (grid along the
    last one); each is interpolated with the same stencil, so the result has
    shape values.shape[:-1] + q.shape.
    """
    n, dx = grid.n, grid.dx
    s = np.asarray(q, dtype=float) / dx
    j = np.floor(s).astype(int)
    f = s - j
    jm, j0, j1, j2 = (j - 1) % n, j % n, (j + 1) % n, (j + 2) % n
    wm = -f * (f - 1.0) * (f - 2.0) / 6.0
    w0 = (f * f - 1.0) * (f - 2.0) / 2.0
    w1 = -f * (f + 1.0) * (f - 2.0) / 2.0
    w2 = f * (f * f - 1.0) / 6.0
    return wm * values[..., jm] + w0 * values[..., j0] + w1 * values[..., j1] + w2 * values[..., j2]


def advect(ps: Particles, t: float, u: Field, k: int) -> Particles | None:
    """Step the particles ps to the next stored state u, at time t.

    u between grid nodes is cubic-interpolated; between the two states it is
    linear in t, so one RK4 step per interval keeps the stage fields smooth.
    The interval's end samples of u and u_x are stacked once, so each RK
    stage computes one stencil (indices and weights) for all four.  Requires
    the states to be stored densely (output_stride such that their spacing
    is ~2x the solver step).  None when the step overflows or comes out
    non-finite (near a blow-up): no such position is cast to a grid index.
    """
    new = _samples(u)
    ends = np.concatenate((ps.samples, new))
    h = t - ps.t

    def rate(eta_c, etax_c, frac):
        u0, ux0, u1, ux1 = cubic_interp_periodic(ends, u.grid, eta_c)
        uv = (1.0 - frac) * u0 + frac * u1
        uxv = (1.0 - frac) * ux0 + frac * ux1
        return uv**k, k * uv ** (k - 1) * uxv * etax_c

    eta, etax = ps.eta, ps.etax
    try:
        # finite inputs give a non-finite value only through an overflow or
        # an invalid operation, so each raises before it reaches a cast
        with np.errstate(over="raise", invalid="raise"):
            d1, s1 = rate(eta, etax, 0.0)
            d2, s2 = rate(eta + 0.5 * h * d1, etax + 0.5 * h * s1, 0.5)
            d3, s3 = rate(eta + 0.5 * h * d2, etax + 0.5 * h * s2, 0.5)
            d4, s4 = rate(eta + h * d3, etax + h * s3, 1.0)
            eta = eta + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            etax = etax + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
    except FloatingPointError:
        return None
    if np.any(etax <= STRETCH_FLOOR):
        raise WaveBreakingError(f"eta_x lost positivity at t = {t:.6g} (min {float(np.min(etax)):.3e})")
    return Particles(t, eta, etax, new)


def momentum_along(u: Field, eta: np.ndarray) -> np.ndarray:
    """m = u - u_xx of the state u at the path positions eta."""
    return cubic_interp_periodic(momentum(u).values, u.grid, eta)


def invariant_residuals(stretch: np.ndarray, m_along: np.ndarray, p: Params) -> np.ndarray:
    """Relative defect of m(eta(t), t) * eta_x^{b/k} against its value at
    the first stored time, from the stretches eta_x and the momentum_along
    of each stored state, stacked with shape (n_times, n_seeds).

    Only meaningful for the a = 0, c = (3k - b)/2 subfamily; other
    parameters are rejected (the balance law fails there).
    """
    if p.a != 0.0 or abs(p.c - (3.0 * p.k - p.b) / 2.0) > 1e-12:
        raise ValueError("conservation law requires a = 0 and c = (3k - b)/2")
    inv = m_along * stretch ** (p.b / p.k)
    m0 = m_along[0]
    return np.abs(inv - m0) / (np.abs(m0) + 1e-12)


def conservation_check(stretch: np.ndarray, m_along: np.ndarray, p: Params) -> float:
    """Max of invariant_residuals over all seeds and times."""
    return float(np.max(invariant_residuals(stretch, m_along, p)))
