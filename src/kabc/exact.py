"""Closed-form reference solutions and initial profiles.

Peakons gamma*exp(-|x - ct|) are exact traveling waves of the family with
speed c = (1 - a) * gamma^k on the line (peakon_speed); the circle carries a
cosh-shaped analogue when 6a + b + 2c = 3k (circle_peakon_speed, which
raises off that plane).  A peakon is its amplitude gamma and its Params: the
speeds take (gamma, p) and the evaluators (gamma, p, x, t).  The Green
kernel of (1 - d_xx) is (1/2)exp(-|x|) on the line and a cosh closed form
on the circle.  An initial profile is a shape name and one float: "peakon"
(its amplitude gamma, started at the exact peakon's H^1 energy), "exp_tail"
(its decay exponent theta) or "bump" (its half-width).
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import h1_squared
from .params import Params, periodic_peakon_admissible
from .spectral import Field, Grid, get_ops


def peakon_speed(gamma: float, p: Params) -> float:
    """Line wave speed (1 - a) * gamma^k."""
    return (1.0 - p.a) * gamma**p.k


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


def bump_values(x, width: float):
    """C-infinity compact bump exp(-1/(1 - (x/width)^2)) for |x| < width."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < width
    s = x[inside] / width
    out[inside] = np.exp(-1.0 / (1.0 - s * s))
    return out


def mollified_profile(shape: str, value: float, moll_width: float, grid: Grid) -> Field:
    """Centered initial profile on the grid: value * exp(-|x|) for "peakon",
    exp(-value * |x|) for "exp_tail", bump_values(x, value) for "bump".

    Peakon and exponential-tail profiles are convolved with a unit-mass
    Gaussian of standard deviation moll_width (spectral multiplier
    exp(-xi^2 sigma^2 / 2)), which puts them in the solver's resolvable
    class; the bump is already smooth with compact support and is sampled
    as is.  The caller checks value and moll_width (cli does at parse).

    Mollification lowers the peakon's crest by O(moll_width), and the
    emergent wave would travel off the target speed, so the mollified peakon
    is rescaled to the exact peakon's squared H^1 norm 2*value^2 (held by the
    conserving members while the profile re-peakonizes; left as is at zero
    energy): the emergent amplitude is then value to first order.
    """
    x = grid.nodes
    center = grid.length / 2.0
    d = np.abs(x - center)
    if shape == "bump":
        return Field(grid, bump_values(x - center, value))
    if shape == "peakon":
        raw = value * np.exp(-d)
    elif shape == "exp_tail":
        raw = np.exp(-value * d)
    else:
        raise ValueError(f"unknown profile shape {shape!r}")
    ops = get_ops(grid)
    u = Field(grid, ops.apply(raw, np.exp(-0.5 * (moll_width * grid.wavenumbers) ** 2)))
    if shape == "exp_tail":
        return u
    energy = h1_squared(u)
    if energy == 0.0:
        return u
    return Field(grid, u.values * math.sqrt(2.0 * value * value / energy))
