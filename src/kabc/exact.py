"""Peakon speed and initial profiles.

Peakons gamma*exp(-|x - ct|) are exact traveling waves of the family with
speed c = (1 - a) * gamma^k on the line (peakon_speed, which takes
(gamma, p)); peakon-verify measures each run's speed against it.  An
initial profile is a shape name and one float: "peakon" (its amplitude
gamma, started at the exact peakon's H^1 energy), "exp_tail" (its decay
exponent theta) or "bump" (its half-width).
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import h1_squared
from .params import Params
from .spectral import Field, Grid, get_ops


def peakon_speed(gamma: float, p: Params) -> float:
    """Line wave speed (1 - a) * gamma^k."""
    return (1.0 - p.a) * gamma**p.k


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
