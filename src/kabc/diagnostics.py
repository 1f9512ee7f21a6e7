"""Measurement instruments: Sobolev norms, exponential decay-rate fits and
crest tracking.

All functions here are read-only analyses of one field or of scalars
collected from the states of a run.  The tail decay of a run is measured
one way: decay_fit of u and of u_x on each stored state, from which
simulate's diagnostics.csv and the tail columns of its summary.csv are made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .spectral import Field, Grid

# Log fits discard samples at or below this magnitude: below the transform
# round-off, log|f| is noise.
FIT_FLOOR = 1e-13


@lru_cache(maxsize=64)
def sobolev_weight(grid: Grid, s: float) -> np.ndarray:
    """count * (1 + xi^2)^s per rfft bin, read-only: the count is 2 for the
    bins that stand for +-m pairs, 1 for the mean and Nyquist bins.  A bin
    whose weight overflows reads inf."""
    xi = grid.wavenumbers
    count = np.full(grid.n // 2 + 1, 2.0)
    count[0] = 1.0
    count[-1] = 1.0
    with np.errstate(over="ignore"):
        w = count * (1.0 + xi * xi) ** s
    w.flags.writeable = False
    return w


def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm, normalized so the square at s = 1 is the integral of
    u^2 + u_x^2 over the box; read from f's kept spectrum."""
    if s < 0:
        raise ValueError("s must be >= 0")
    grid = f.grid
    with np.errstate(over="ignore"):  # huge fields report an inf norm
        return math.sqrt(np.sum(sobolev_weight(grid, s) * np.abs(f.hat) ** 2) * grid.length / grid.n**2)


def h1_squared(f: Field) -> float:
    """Integral of u^2 + u_x^2 (the tracked conservation quantity)."""
    return sobolev_norm(f, 1.0) ** 2


def norm_pair(grid: Grid, s: float) -> Callable[[np.ndarray], tuple[float, float]]:
    """hat -> (sobolev_norm at s, h1_squared) of the state on grid whose
    spectrum is hat, bit for bit those two functions' values: one |hat|^2
    serves both sums, and the weight tables are looked up here, once.  It
    silences no overflow itself, so a caller that may meet a huge state
    holds np.errstate(over="ignore") around it, as simulate's step does."""
    hs_weight, h1_weight = sobolev_weight(grid, s), sobolev_weight(grid, 1.0)
    length, n2 = grid.length, grid.n**2

    def norms(hat: np.ndarray) -> tuple[float, float]:
        power = np.abs(hat) ** 2
        return (math.sqrt(np.sum(hs_weight * power) * length / n2),
                math.sqrt(np.sum(h1_weight * power) * length / n2) ** 2)
    return norms


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log|f| against distance from the box center.

    theta_hat is minus the slope (NaN when fewer than two samples survive
    the floor), r2 the goodness of fit, floor_hit whether any window sample
    was discarded as below FIT_FLOOR.
    """

    theta_hat: float
    r2: float
    floor_hit: bool


def check_fit_window(window, grid: Grid) -> tuple[float, float]:
    """(x_lo, x_hi) of a fit window, distances from the box center.  It must
    have 0 <= x_lo < x_hi, span at least 16 grid spacings and end at least
    length/8 before the wrap-around seam; else ValueError."""
    x_lo, x_hi = float(window[0]), float(window[1])
    if not x_lo < x_hi:
        raise ValueError(f"fit window must have x_lo < x_hi, got {list(window)!r}")
    if x_lo < 0.0:
        raise ValueError(f"fit window must lie right of the box center (0 <= x_lo), got {list(window)!r}")
    if (x_hi - x_lo) / grid.dx < 16:
        raise ValueError("fit window spans fewer than 16 grid spacings")
    if x_hi > grid.length / 2.0 - grid.length / 8.0:
        raise ValueError("fit window too close to the wrap-around seam")
    return x_lo, x_hi


def decay_fit(f: Field, window) -> DecayFit:
    """Fit |f| ~ A exp(-theta_hat * d) on the right of the box center, at
    distances d in [x_lo, x_hi] from it, on a window check_fit_window
    accepts.  Samples at or below FIT_FLOOR are excluded and set floor_hit."""
    grid = f.grid
    x_lo, x_hi = check_fit_window(window, grid)
    offset = grid.nodes - grid.length / 2.0
    sel = (offset >= x_lo) & (offset <= x_hi)
    d = offset[sel]
    v = np.abs(f.values[sel])
    keep = v > FIT_FLOOR
    floor_hit = bool(np.any(~keep))
    if np.count_nonzero(keep) < 2:
        return DecayFit(math.nan, math.nan, True)
    dd, logv = d[keep], np.log(v[keep])
    slope, intercept = np.polyfit(dd, logv, 1)
    resid = logv - (slope * dd + intercept)
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return DecayFit(float(-slope), r2, floor_hit)


def default_tail_window(grid) -> tuple[float, float]:
    """Standard right-tail fit window [L/8, L/4]: far from both the data
    core and the periodic seam."""
    return (grid.length / 8.0, grid.length / 4.0)


def crest_position(f: Field) -> float:
    """Crest location by quadratic interpolation through the three nodes
    around the maximum; a tie between two neighbours (the seam pair n-1, 0
    among them) puts it midway.  NaN when the maximum is ambiguous: a flat
    field (range at most 1e-13 max(1, |max|)), or a maximum held by two
    nodes apart or by three or more."""
    grid = f.grid
    v = f.values
    j = int(np.argmax(v))
    vmax = v[j]
    ties = np.flatnonzero(v == vmax)  # j is the first
    if (vmax - float(np.min(v)) <= 1e-13 * max(1.0, abs(vmax)) or len(ties) > 2
            or len(ties) == 2 and ties[1] - j not in (1, grid.n - 1)):
        return math.nan
    ym, y0, yp = v[(j - 1) % grid.n], v[j], v[(j + 1) % grid.n]
    denom = ym - 2.0 * y0 + yp
    delta = 0.0 if denom == 0.0 else 0.5 * (ym - yp) / denom
    return grid.nodes[j] + delta * grid.dx


def crest_track(times, positions, length: float) -> float:
    """Wave speed: least-squares slope against time of the crest positions
    of a run's states (crest_position of each), unwrapped across the seam of
    a periodic box of this length."""
    if len(times) < 2:
        raise ValueError("need at least two states to estimate a speed")
    pos = np.unwrap(np.asarray(positions), period=length)
    return float(np.polyfit(np.asarray(times, dtype=float), pos, 1)[0])
