"""Particle paths of the transport field, momentum density, and the
characteristic conservation law of the a = 0 subfamily.

Particles follow d(eta)/dt = u^k(eta, t) with eta(0) = x0; the stretch
eta_x obeys its own linear equation d(eta_x)/dt = k u^{k-1} u_x(eta, t) eta_x
and is integrated jointly rather than differenced between neighbors, one
stored state at a time: release places the particles in a run's first state
and advect steps them to each next one as the run makes it, until a step
breaks the wave or goes non-finite (Particles.stop_reason).  For
a = 0 and c = (3k - b)/2 the momentum m = u - u_xx satisfies
m(eta(t), t) * eta_x(t)^{b/k} = m(x0, 0) along every path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .params import Params
from .spectral import Field, get_ops

# eta_x at or below this ends advection: the flow map is no longer a
# diffeomorphism to working precision (wave-breaking indicator).
STRETCH_FLOOR = 1e-10


@dataclass(frozen=True)
class Particles:
    """Paths eta(x0, t) and stretches eta_x(x0, t) of the seeds x0 at the
    time t of a stored state, with its u and u_x, which the next step reads;
    stop_reason, when set, says why the step after t was not taken."""

    t: float
    eta: np.ndarray   # (n_seeds,)
    etax: np.ndarray  # (n_seeds,)
    samples: np.ndarray  # (2, n): u and u_x at t
    stop_reason: Optional[str] = None


def _samples(u: Field) -> np.ndarray:
    return np.stack((u.values, get_ops(u.grid).deriv(u.hat, 1)))


def release(seeds, t: float, u: Field) -> Particles:
    """Particles at the seeds (eta_x = 1) in the stored state u at time t."""
    eta = np.asarray(seeds, dtype=float).copy()
    if eta.ndim != 1 or eta.size == 0:
        raise ValueError("seeds must be a non-empty 1-d sequence")
    return Particles(t, eta, np.ones_like(eta), _samples(u))


def momentum(u: Field) -> Field:
    """Momentum density m = u - u_xx."""
    return Field(u.grid, u.values - get_ops(u.grid).deriv(u.hat, 2))


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


def advect(ps: Particles, t: float, u: Field, k: int) -> Particles:
    """Step the particles ps to the next stored state u, at time t.

    u between grid nodes is cubic-interpolated; between the two states it is
    linear in t, so one RK4 step per interval keeps the stage fields smooth.
    The interval's end samples of u and u_x are stacked once, so each RK
    stage computes one stencil (indices and weights) for all four.  Requires
    the states to be stored densely (output_stride such that their spacing
    is ~2x the solver step).  A step that overflows or comes out non-finite
    (near a blow-up), or that takes some eta_x to STRETCH_FLOOR (wave
    breaking), is not taken: ps comes back with its stop_reason, and no
    non-finite position is cast to a grid index.
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
        return replace(ps, stop_reason=f"non-finite particle step after t = {ps.t:.6g}")
    if np.any(etax <= STRETCH_FLOOR):
        return replace(ps, stop_reason=f"eta_x lost positivity at t = {t:.6g} (min {float(np.min(etax)):.3e})")
    return Particles(t, eta, etax, new)


def momentum_along(u: Field, eta: np.ndarray) -> np.ndarray:
    """m = u - u_xx of the state u at the path positions eta."""
    return cubic_interp_periodic(momentum(u).values, u.grid, eta)


def has_invariant(p: Params) -> bool:
    """Whether m(eta, t) * eta_x^{b/k} is conserved along the paths: the
    a = 0, c = (3k - b)/2 subfamily."""
    return p.a == 0.0 and abs(p.c - (3.0 * p.k - p.b) / 2.0) <= 1e-12


def invariant_defects(stretch: np.ndarray, m_along: np.ndarray, p: Params,
                      m0: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Defect of m(eta(t), t) * eta_x^{b/k} against m0, its value at the
    first stored time (m_along[0] by default), from the stretches eta_x and
    the momentum_along of each stored state, stacked with shape
    (n_times, n_seeds), or of one state, with shape (n_seeds,): the absolute
    defect, and the residual, that defect relative to each seed's
    |m0| + 1e-12.

    Only meaningful where has_invariant(p); other parameters are rejected
    (the balance law fails there).
    """
    if not has_invariant(p):
        raise ValueError("conservation law requires a = 0 and c = (3k - b)/2")
    m0 = m_along[0] if m0 is None else m0
    defect = np.abs(m_along * stretch ** (p.b / p.k) - m0)
    return defect, defect / (np.abs(m0) + 1e-12)


def conservation_check(stretch: np.ndarray, m_along: np.ndarray, p: Params) -> float:
    """Max of the invariant_defects residuals over all seeds and times."""
    return float(np.max(invariant_defects(stretch, m_along, p)[1]))
