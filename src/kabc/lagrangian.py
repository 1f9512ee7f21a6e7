"""Particle paths of the transport field, momentum density, and the
characteristic conservation law of the a = 0 subfamily.

Particles follow d(eta)/dt = u^k(eta, t) with eta(0) = x0; the stretch
eta_x obeys its own linear equation d(eta_x)/dt = k u^{k-1} u_x(eta, t) eta_x
and is integrated jointly rather than differenced between neighbors, one
stored state at a time: release places the particles in a run's first state
and advect steps them to each next one as the run makes it, until a step
breaks the wave or goes non-finite (Particles.stop_reason).  Each carries
u, u_x and m = u - u_xx read at its paths (Particles.here).  For a = 0 and
c = (3k - b)/2, m(eta(t), t) * eta_x(t)^{b/k} = m(x0, 0) along every path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .params import PARAM_TOL, Params
from .spectral import Field, get_ops

# eta_x at or below this ends advection: the flow map is no longer a
# diffeomorphism to working precision (wave-breaking indicator).
STRETCH_FLOOR = 1e-10


@dataclass(frozen=True)
class Particles:
    """Paths eta(x0, t) and stretches eta_x(x0, t) of the seeds x0 at the
    time t of a stored state, with that state's u, u_x and m on the grid
    (samples) and at eta (here), which the next step and a run read;
    stop_reason, when set, says why the step after t was not taken."""

    t: float
    eta: np.ndarray   # (n_seeds,)
    etax: np.ndarray  # (n_seeds,)
    samples: np.ndarray  # (3, n): u, u_x and m at t
    here: np.ndarray  # (3, n_seeds): samples at eta
    stop_reason: Optional[str] = None


def _samples(u: Field) -> np.ndarray:
    return np.stack((u.values, get_ops(u.grid).deriv(u.hat, 1), momentum(u).values))


def release(seeds, t: float, u: Field) -> Particles:
    """Particles at the seeds (eta_x = 1) in the stored state u at time t."""
    eta = np.asarray(seeds, dtype=float).copy()
    if eta.ndim != 1 or eta.size == 0:
        raise ValueError("seeds must be a non-empty 1-d sequence")
    samples = _samples(u)
    return Particles(t, eta, np.ones_like(eta), samples, cubic_interp_periodic(samples, u.grid, eta))


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
    s = np.asarray(q, dtype=float) / grid.dx
    j = np.floor(s).astype(int)
    f = s - j
    neg, fm2, ff1 = -f, f - 2.0, f * f - 1.0  # each formed once for the four weights
    wm = neg * (f - 1.0) * fm2 / 6.0
    w0 = ff1 * fm2 / 2.0
    w1 = neg * (f + 1.0) * fm2 / 2.0
    w2 = f * ff1 / 6.0

    def at(offset):  # the samples at node j + offset, wrapped into the box
        return values.take(j + offset, axis=-1, mode="wrap")
    return wm * at(-1) + w0 * at(0) + w1 * at(1) + w2 * at(2)


def advect(ps: Particles, t: float, u: Field, k: int) -> Particles:
    """Step the particles ps to the next stored state u, at time t.

    One RK4 step spans the interval, with u cubic-interpolated between grid
    nodes and linear in t between the two states, so its error grows with
    their spacing (output_stride; see the README).  The first stage reads
    ps.here, each midpoint stage interpolates u and u_x of both states in
    one stencil, and the last stage the new state's two.  A step that
    overflows or comes out non-finite (near a blow-up), or that takes some
    eta_x to STRETCH_FLOOR (wave breaking), is not taken: ps comes back with
    its stop_reason, and no non-finite position is cast to a grid index.
    A taken step reads the new state's u, u_x and m at its eta after those
    checks, so that read cannot pre-empt a stop.
    """
    new = _samples(u)
    ends = np.concatenate((ps.samples[:2], new[:2]))
    h = t - ps.t

    def rate(uv, uxv, etax_c):
        if k == 1:  # u^0 = 1 and u^1 = u are not formed
            return uv, uxv * etax_c
        return uv**k, k * (uv if k == 2 else uv ** (k - 1)) * uxv * etax_c

    def midpoint(eta_c, etax_c):  # u and u_x halfway between the two states
        u0, ux0, u1, ux1 = 0.5 * cubic_interp_periodic(ends, u.grid, eta_c)
        return rate(u0 + u1, ux0 + ux1, etax_c)

    eta, etax = ps.eta, ps.etax
    try:
        # finite inputs give a non-finite value only through an overflow or
        # an invalid operation, so each raises before it reaches a cast
        with np.errstate(over="raise", invalid="raise"):
            d1, s1 = rate(*ps.here[:2], etax)
            d2, s2 = midpoint(eta + 0.5 * h * d1, etax + 0.5 * h * s1)
            d3, s3 = midpoint(eta + 0.5 * h * d2, etax + 0.5 * h * s2)
            d4, s4 = rate(*cubic_interp_periodic(new[:2], u.grid, eta + h * d3), etax + h * s3)
            eta = eta + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            etax = etax + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
    except FloatingPointError:
        return replace(ps, stop_reason=f"non-finite particle step after t = {ps.t:.6g}")
    if np.any(etax <= STRETCH_FLOOR):
        return replace(ps, stop_reason=f"eta_x lost positivity at t = {t:.6g} (min {float(np.min(etax)):.3e})")
    return Particles(t, eta, etax, new, cubic_interp_periodic(new, u.grid, eta))


def has_invariant(p: Params) -> bool:
    """Whether m(eta, t) * eta_x^{b/k} is conserved along the paths: the
    a = 0, c = (3k - b)/2 subfamily."""
    return p.a == 0.0 and abs(p.c - (3.0 * p.k - p.b) / 2.0) <= PARAM_TOL


def invariant_defects(stretch: np.ndarray, m_along: np.ndarray, p: Params,
                      m0: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Defect of m(eta(t), t) * eta_x^{b/k} against m0, its value at the
    first stored time (m_along[0] by default), from the stretches eta_x and
    m at the paths (Particles.here[2]) of each stored state, stacked with
    shape (n_times, n_seeds), or of one state, with shape (n_seeds,): the
    absolute defect, and the residual, that defect relative to each seed's
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
