"""Closed forms and cross-checks the tests verify the solver against.

None of this runs in a kabc run.  Peakons gamma*exp(-|x - ct|) are exact
traveling waves on the line; the circle carries a cosh-shaped analogue when
6a + b + 2c = 3k.  The Green kernel of (1 - d_xx) is (1/2)exp(-|x|) on the
line and a cosh closed form on the circle.  rhs evaluates the smoothed
evolution form on samples, and local_form_residual checks it against the
equivalent third-order local formulation.  mms_forcing_reference builds the
mms forcing on samples, afresh at each time.  weighted_sup is the capped
exponentially weighted sup norm of the paper's persistence estimates.
momentum_power_integral is the Eulerian form of the characteristic law,
and momentum_along reads m at the paths on its own, the reference for the
m that the particles carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from kabc.dynamics import RhsOperator
from kabc.exact import peakon_speed
from kabc.lagrangian import cubic_interp_periodic, momentum
from kabc.params import Params, periodic_peakon_admissible
from kabc.spectral import Field, Grid, get_ops


def circle_peakon_speed(gamma: float, p: Params) -> float:
    """Circle wave speed [1 + (1 - a) sinh^2(pi)] cosh^{k-2}(pi) gamma^k.
    Circle peakons require the admissibility condition 6a + b + 2c = 3k."""
    if not periodic_peakon_admissible(p):
        raise ValueError("circle peakons require 6a + b + 2c = 3k")
    return (1.0 + (1.0 - p.a) * math.sinh(math.pi) ** 2) * math.cosh(math.pi) ** (p.k - 2) * gamma**p.k


def peakon_line_eval(gamma: float, p: Params, x, t: float):
    """gamma * exp(-|x - speed*t|)."""
    x = np.asarray(x, dtype=float)
    out = gamma * np.exp(-np.abs(x - peakon_speed(gamma, p) * t))
    return out if out.ndim else float(out)


def peakon_circle_eval(gamma: float, p: Params, x, t: float):
    """gamma * cosh([x - circle_speed*t]_p - pi), 2*pi-periodic in x,
    where [z]_p = z - 2*pi*floor(z / (2*pi))."""
    x = np.asarray(x, dtype=float)
    z = x - circle_peakon_speed(gamma, p) * t
    z = z - 2.0 * np.pi * np.floor(z / (2.0 * np.pi))
    out = gamma * np.cosh(z - np.pi)
    return out if out.ndim else float(out)


def green_line(x):
    """Line Green kernel (1/2) exp(-|x|) of (1 - d_xx)."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * np.exp(-np.abs(x))
    return out if out.ndim else float(out)


def green_periodic(x, circumference: float):
    """Periodic Green kernel cosh(d - C/2) / (2 sinh(C/2)), d = |x| mod C.

    Equals the image sum sum_j (1/2) exp(-|x + j*C|) and satisfies
    (1 - d_xx) G = delta on the circle of circumference C.
    """
    if not circumference > 0:
        raise ValueError("circumference must be positive")
    c = float(circumference)
    d = np.mod(np.abs(np.asarray(x, dtype=float)), c)
    out = np.cosh(d - c / 2.0) / (2.0 * math.sinh(c / 2.0))
    return out if out.ndim else float(out)


def rhs(u: Field, p: Params, t: float = 0.0, forcing: Optional[Callable] = None) -> Field:
    """Time derivative of u in the smoothed evolution form."""
    op = RhsOperator(u.grid, p, forcing)
    return Field(u.grid, np.fft.irfft(op(u.hat, t), u.grid.n))


def mms_forcing_reference(value: Callable, dt_value: Callable, p: Params, grid: Grid) -> Callable:
    """The mms forcing built afresh at each time, on samples: g(x, t) =
    dt_value(x, t) - N(value(x, t)), N the unforced right-hand side.
    dynamics.mms_forcing, one evaluation of N phase-shifted, must match its
    rfft."""
    op = RhsOperator(grid, p)

    def forcing(x, t):
        n_hat = op(np.fft.rfft(value(x, t)), t)
        return dt_value(x, t) - np.fft.irfft(n_hat, grid.n)
    return forcing


def local_form_residual(u: Field, ut: Field, p: Params) -> Field:
    """Left side of the equivalent third-order local formulation

        ut - ut_xx + (b+1) u^k u_x + (2c-3k) u^{k-1} u_x u_xx - u^k u_xxx
        + (3k-9a-b-2c) u^{k-2} u_x^3 + 6a u^{k-2} u_x u_xx^2
        + 3a u^{k-2} u_x^2 u_xxx

    evaluated with ut in place of the time derivative, its products formed
    alias-free by SpectralOps.product.  Vanishes to round-off when
    ut = rhs(u), which cross-validates the two formulations.
    """
    if u.grid != ut.grid:
        raise ValueError("u and ut must share one grid")
    k, a, b, c = p.k, p.a, p.b, p.c
    ops = get_ops(u.grid)
    v, ux, uxx = u.values, ops.deriv(u.hat, 1), ops.deriv(u.hat, 2)
    uxxx = ops.apply(uxx, ops.ik)
    out = ut.values - ops.deriv(ut.hat, 2)
    out = out + (b + 1.0) * ops.product([v] * k + [ux])
    out = out + (2.0 * c - 3.0 * k) * ops.product([v] * (k - 1) + [ux, uxx])
    out = out - ops.product([v] * k + [uxxx])
    c_cub = 3.0 * k - 9.0 * a - b - 2.0 * c
    if c_cub != 0.0:
        out = out + c_cub * ops.product([v] * (k - 2) + [ux] * 3)
    if a != 0.0:
        out = out + 6.0 * a * ops.product([v] * (k - 2) + [ux, uxx, uxx])
        out = out + 3.0 * a * ops.product([v] * (k - 2) + [ux, ux, uxxx])
    return Field(u.grid, out)


@dataclass(frozen=True)
class WeightSpec:
    """Exponential weight e^{theta |x|} capped at radius N.  theta must lie
    strictly inside (0, 1): the continuum estimates behind the cap degenerate
    at theta = 1."""

    theta: float
    cap_radius: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie strictly in (0, 1)")
        if not self.cap_radius > 0.0:
            raise ValueError("cap_radius must be positive")


def weighted_sup(f: Field, w: WeightSpec) -> float:
    """max over nodes of |f(x)| * e^{theta * min(|x|, N)}, |x| measured from
    the box center."""
    d = np.abs(f.grid.nodes - f.grid.length / 2.0)
    phi = np.exp(w.theta * np.minimum(d, w.cap_radius))
    return float(np.max(np.abs(f.values) * phi))


def momentum_power_integral(u: Field, p: Params) -> float:
    """I = integral of m^{k/b} dx, m = u - u_xx, which the a = 0,
    c = (3k - b)/2 subfamily conserves while m > 0: raising the particle
    law m(eta, t) eta_x^{b/k} = m(x0, 0) to the power k/b and integrating
    over x0 gives it.  NaN where m is not positive somewhere."""
    m = u.values - get_ops(u.grid).deriv(u.hat, 2)
    if not np.all(m > 0.0):
        return math.nan
    return float(np.sum(m ** (p.k / p.b)) * u.grid.dx)


def momentum_along(u: Field, eta: np.ndarray) -> np.ndarray:
    """m = u - u_xx of the state u at the path positions eta, in a stencil
    of its own."""
    return cubic_interp_periodic(momentum(u).values, u.grid, eta)
