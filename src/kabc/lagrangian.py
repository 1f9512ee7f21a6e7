"""Particle paths of the transport field, momentum density, and the
characteristic conservation law of the a = 0 subfamily.

Particles follow d(eta)/dt = u^k(eta, t) with eta(0) = x0; the stretch
eta_x obeys its own linear equation d(eta_x)/dt = k u^{k-1} u_x(eta, t) eta_x
and is integrated jointly rather than differenced between neighbors.  For
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


@dataclass
class ParticleSet:
    """Paths eta(x0, t) and stretches eta_x(x0, t), one row per stored
    snapshot of the trajectory they were advected through."""

    paths: np.ndarray    # (n_times, n_seeds)
    stretch: np.ndarray  # (n_times, n_seeds)


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


def advect(traj, seeds) -> ParticleSet:
    """Integrate particle paths through all stored snapshots.

    u between grid nodes is cubic-interpolated; between snapshots it is
    linear in t, so one RK4 step per snapshot interval keeps the stage
    fields smooth.  The interval's end samples of u and u_x are stacked
    once, so each RK stage computes one stencil (indices and weights) for
    all four.  Requires the trajectory to be stored densely
    (output_stride such that the snapshot spacing is ~2x the solver step).
    """
    grid = traj.config.grid
    k = traj.config.params.k
    times = np.asarray(traj.times, dtype=float)
    u_fields = [snap.values for snap in traj.snapshots]
    ux_fields = [derivative(snap, 1).values for snap in traj.snapshots]

    eta = np.asarray(seeds, dtype=float).copy()
    if eta.ndim != 1 or eta.size == 0:
        raise ValueError("seeds must be a non-empty 1-d sequence")
    etax = np.ones_like(eta)
    paths = [eta.copy()]
    stretch = [etax.copy()]

    for i in range(len(times) - 1):
        t0, t1 = times[i], times[i + 1]
        h = t1 - t0
        ends = np.stack((u_fields[i], u_fields[i + 1], ux_fields[i], ux_fields[i + 1]))

        def rate(eta_c, etax_c, frac):
            u0, u1, ux0, ux1 = cubic_interp_periodic(ends, grid, eta_c)
            uv = (1.0 - frac) * u0 + frac * u1
            uxv = (1.0 - frac) * ux0 + frac * ux1
            return uv**k, k * uv ** (k - 1) * uxv * etax_c

        d1, s1 = rate(eta, etax, 0.0)
        d2, s2 = rate(eta + 0.5 * h * d1, etax + 0.5 * h * s1, 0.5)
        d3, s3 = rate(eta + 0.5 * h * d2, etax + 0.5 * h * s2, 0.5)
        d4, s4 = rate(eta + h * d3, etax + h * s3, 1.0)
        eta = eta + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        etax = etax + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
        if np.any(etax <= STRETCH_FLOOR):
            raise WaveBreakingError(
                f"eta_x lost positivity at t = {t1:.6g} (min {float(np.min(etax)):.3e})"
            )
        paths.append(eta.copy())
        stretch.append(etax.copy())

    return ParticleSet(paths=np.asarray(paths), stretch=np.asarray(stretch))


def momentum_along(traj, ps: ParticleSet) -> np.ndarray:
    """m(eta(t), t) along every path, shape (n_times, n_seeds); ps must hold
    one row per snapshot of traj, as advect(traj, ...) gives."""
    grid = traj.config.grid
    return np.asarray([
        cubic_interp_periodic(momentum(snap).values, grid, eta)
        for snap, eta in zip(traj.snapshots, ps.paths, strict=True)
    ])


def invariant_residuals(ps: ParticleSet, m_along: np.ndarray, p: Params) -> np.ndarray:
    """Relative defect of m(eta(t), t) * eta_x^{b/k} against its value at
    the first stored time, shape (n_times, n_seeds).

    Only meaningful for the a = 0, c = (3k - b)/2 subfamily; other
    parameters are rejected (the balance law fails there).
    """
    if p.a != 0.0 or abs(p.c - (3.0 * p.k - p.b) / 2.0) > 1e-12:
        raise ValueError("conservation law requires a = 0 and c = (3k - b)/2")
    inv = m_along * ps.stretch ** (p.b / p.k)
    m0 = m_along[0]
    return np.abs(inv - m0) / (np.abs(m0) + 1e-12)


def conservation_check(traj, ps: ParticleSet, p: Params) -> float:
    """Max of invariant_residuals over all seeds and times."""
    return float(np.max(invariant_residuals(ps, momentum_along(traj, ps), p)))
