"""Right-hand side assembly and time integration.

The equation is advanced in its smoothed evolution form

    u_t = -u^k u_x + a u^{k-2} u_x^3 - d_x G*(f1) - G*(f2) + forcing,

where G* is the Helmholtz-inverse convolution and f1, f2 collect the
degree-(k+1) monomials defined in params.coefficients.  This form is
first-order in space plus smoothing convolutions, hence non-stiff, and is
stepped explicitly with CFL-adaptive classical RK4.

The RK4 state is the rfft half-spectrum of u, not its samples: each
right-hand side evaluation goes from spectrum to spectrum, and a step makes
one inverse transform to store the new samples and one forward transform of
them, the new Field's kept hat, which the step's norms, the next step and
every reader of the stored state share.  simulate hands each stored state
to its caller, which may end the run there, and keeps only the last; a
fault inside a run ends it with a stop reason, not an exception.  One
evaluation transforms one row on the padded grid per upsampled factor
(u, u_x, and u_xx when c_f2_2 != 0) inversely, and one row there per bracket
(local, f1, and f2 when it has a nonzero coefficient) forwardly: 4 rows at
k = 1 (CH, DP), 5 at k = 2 (Novikov, FORQ) and 6 at k >= 3 with a != 0.  Up
to a padded size of STACK_MAX_M the rows of each direction are stacked into
one transform call, so such an evaluation makes 2 calls; above it, one call
per row.  A forcing is a half-spectrum too, added to every evaluation
without a transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import diagnostics
from .params import Params, coefficients
from .spectral import Field, Grid, get_ops


# simulate ends a run once t is within this of t_end, so a t_end at or below
# it would take no step
T_END_TOL = 1e-12

# Order s of the H^s norm simulate measures each step (StepRecord.hs_norm)
SOBOLEV_S = 3.0

# cfl_dt's step, in dx over the speed, for every run.  The top mode then has
# |lambda dt| = pi CFL_SAFETY, and RK4 is stable on the imaginary axis only up
# to 2 sqrt 2, so it must be <= 0.900: at 1 RK4 amplifies it by |R(i pi)| = 2.03.
CFL_SAFETY = 0.4

# simulate refuses a run whose first CFL step puts it above this many steps,
# and ends one that reaches it.
# The longest runs here take a few thousand.  At 10**7 even an n = 8 run steps
# for about an hour (0.34 ms a step on one core of a 2-vCPU x86 host); its
# memory does not grow with its steps.
MAX_STEPS = 10**7

# RhsOperator stacks its upsampled rows into one inverse transform call, and
# its bracket rows into one forward call, at padded sizes m up to this; above
# it, one call per row through one reused buffer.  On a 2-vCPU x86 host
# (numpy 2.4), per RHS call in-process, medians of 25 interleaved repeats in
# three orderings, stacked against one call per row: FORQ n = 128 (m = 256)
# -32% to -34%, Novikov n = 1024 (m = 2048) -19% to -22%, CH n = 4096
# (m = 6144) -19% to -23%, Novikov n = 4096 (m = 8192) -18% to -19%.  At
# m = 12288 and 16384 those repeats read -12% to -24% too, but stepped end
# to end the larger stacks lose: peakon-8192 (bench/run.py, 6 alternating
# pairs) read 312 steps/s unstacked there against 273 with every size
# stacked, slower in 6 of 6, and its peak RSS rose 1.5%.
STACK_MAX_M = 8192


class StepLimitError(RuntimeError):
    """A run would take more than MAX_STEPS steps."""


@dataclass(frozen=True)
class SimConfig:
    """One run: parameters, grid, horizon and stepping controls (each step
    is cfl_dt's, at most dt_max).  forcing, when present, is a callable t ->
    rfft half-spectrum (length n//2 + 1) added to the right-hand side."""

    params: Params
    grid: Grid
    t_end: float
    dt_max: float = 1e-2
    output_stride: int = 1
    forcing: Optional[Callable] = None

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > T_END_TOL):
            raise ValueError(f"t_end must be finite and > {T_END_TOL:g}")
        if not self.dt_max > 0.0:
            raise ValueError("dt_max must be positive")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    t: float
    dt: float
    hs_norm: float
    h1_sq: float


class Trajectory:
    """Running reductions of a run's step records, and its last state.

    first is u0's record, last the last good state's (the one on_state got
    at a stop).  add folds in each step's record by plain float max, min and
    abs, so no step is kept and each reduction is the one over every record:
    steps, sup_hs, max_h1_dev (largest |E(t) - E(0)|, E the squared H^1
    norm), min_dt (smallest step but the last, which alone may be cut short
    to land on t_end) and exceeded_t (first step time with an H^s norm above
    bound = 2^{1+1/k} hs0; None when hs0 is zero).  final is the last
    state's Field, with its kept spectrum.  stop_reason says why a run ended
    before t_end (its field went non-finite, its step, 0 where the CFL speed
    overflowed, no longer advanced t, it reached MAX_STEPS steps, or its
    on_state returned a reason), and is None for a run that reached it;
    final and last are then the last good state's.
    """

    def __init__(self, k: int, final: Field, first: StepRecord):
        self.final, self.stop_reason = final, None
        self.first = self.last = first
        self.steps, self.sup_hs, self.max_h1_dev, self.min_dt = 0, first.hs_norm, 0.0, math.inf
        self.bound_factor = 2.0 ** (1.0 + 1.0 / k)
        self.bound = self.bound_factor * first.hs_norm
        self.exceeded_t: Optional[float] = None

    def add(self, rec: StepRecord) -> None:
        if self.steps:
            self.min_dt = min(self.min_dt, self.last.dt)
        self.steps += 1
        self.last = rec
        self.sup_hs = max(self.sup_hs, rec.hs_norm)
        self.max_h1_dev = max(self.max_h1_dev, abs(rec.h1_sq - self.first.h1_sq))
        if rec.hs_norm > self.bound and self.exceeded_t is None and self.first.hs_norm > 0.0:
            self.exceeded_t = rec.t

    @property
    def last_time(self) -> float:
        return self.last.t

    @property
    def h1_drift(self) -> float:
        """max_t |E(t) - E(0)| / E(0); NaN when E(0) = 0."""
        e0 = self.first.h1_sq
        return self.max_h1_dev / e0 if e0 else math.nan

    def softbound(self) -> dict:
        """The growth bound on the H^s norm (a lifespan warning, not an
        error) and the first step time past it."""
        return {"hs0": self.first.hs_norm, "sup_hs": self.sup_hs, "bound_factor": self.bound_factor,
                "bound": self.bound, "exceeded_t": self.exceeded_t}


class RhsOperator:
    """Semi-discrete right-hand side bound to one (grid, params) pair.

    Maps the rfft half-spectrum of u (length n//2 + 1) to the half-spectrum
    of u_t.  All monomials have total degree k+1 in (u, u_x, u_xx) and are
    formed on a zero-padded grid of size m = pad_size(k+1), upsampled
    straight from the spectrum, then truncated back before the smoothing
    multipliers are applied; see the module docstring for the rows each
    call transforms.  Terms with zero coefficient are pruned up front, so no
    negative power of u is ever evaluated (Params rejects the parameter sets
    that would need one).

    The operator owns a workspace, allocated once and rewritten by every
    call: real rows of length m for u, u_x (and u_xx when c_f2_2 != 0),
    u_x^2, u_x^3, the powers u^2 .. u^(k+1) and one term scratch, and the
    bracket accumulators and padded half-spectra (m//2 + 1 bins) the
    transforms go through.  Up to m = STACK_MAX_M every upsampled row and
    every bracket has its own row there, and each stack is transformed in
    one call; above it one padded spectrum (zero above n/2), one
    accumulator and one forward output serve the rows in turn, a call each.
    So an operator is not reentrant: one call at a time.  Each call still returns a fresh array, never a view of the
    workspace, so results of earlier calls stay valid (rk4_step holds four
    of them at once).  forcing(t), when given, is added to every call's
    half-spectrum.  A call tests no finiteness and silences no overflow: inf
    or NaN bins go on to the caller (simulate stops on them).
    """

    def __init__(self, grid: Grid, params: Params, forcing: Optional[Callable] = None):
        self.grid = grid
        self.params = params
        self.forcing = forcing
        self.ops = ops = get_ops(grid)
        cs = coefficients(params)
        k = params.k
        self.k = k
        self.m = m = ops.pad_size(k + 1)
        # each upsampled row's multiplier of u's spectrum (None: the spectrum
        # itself), and the rows: u, u_x (and u_xx)
        mults = [None, ops.ik] + ([ops.d2] if cs.c_f2_2 != 0.0 else [])
        fine = np.empty((len(mults), m))
        self._u, self._ux, *uxx = fine
        self._ux2, self._ux3, self._term = np.empty((3, m))
        # u^1 is the u row itself; u^0 = 1 is never stored (see operands)
        self._upow = {1: self._u, **{j: np.empty(m) for j in range(2, k + 2)}}

        # brackets as terms (coef, j, factor, ...) = coef * u^j * factor * ...
        def nonzero(*terms):
            return [term for term in terms if term[0] != 0.0]

        def operands(coef, j, *factors):
            """A term's operands, multiplied left to right: u^0 = 1 is not
            stored, and a coefficient of 1.0 before another factor is
            dropped, since x * 1 = x."""
            factors = (self._upow[j], *factors) if j else factors
            return factors if coef == 1.0 and len(factors) > 1 else (coef, *factors)

        ux, ux2, ux3 = self._ux, self._ux2, self._ux3
        f2 = nonzero((cs.c_f2_1, k - 2, ux3), (cs.c_f2_2, k - 3, ux3, *uxx))
        # (terms, smoother) per bracket: rhs = local - G_x f1 - G f2
        brackets = [([(-1.0, k, ux)] + nonzero((cs.c_cub, k - 2, ux3)), None),
                    ([(cs.c_f1_1, k + 1)] + nonzero((cs.c_f1_2, k - 1, ux2), (cs.c_f1_3, k - 3, ux2, ux2)),
                     ops.green_dx)] + ([(f2, ops.helmholtz)] if f2 else [])
        brackets = [([operands(*term) for term in terms], smoother) for terms, smoother in brackets]

        # per transform call, its rows and buffers: all rows stacked, or one
        # row per call through one reused padded spectrum and accumulator
        h, bins = grid.n // 2 + 1, m // 2 + 1
        if m <= STACK_MAX_M:
            pad = np.zeros((len(mults), bins), dtype=complex)  # bins above n/2 stay zero
            acc, fine_hat = np.empty((len(brackets), m)), np.empty((len(brackets), bins), dtype=complex)
            self._upsamples = [(list(zip(mults, pad[:, :h])), pad, fine)]
            self._reduces = [([(*bracket, row) for bracket, row in zip(brackets, acc)], acc, fine_hat)]
        else:
            pad = np.zeros(bins, dtype=complex)  # bins above n/2 stay zero
            acc, fine_hat = np.empty(m), np.empty(bins, dtype=complex)
            self._upsamples = [([(mult, pad[:h])], pad, row) for mult, row in zip(mults, fine)]
            self._reduces = [([(*bracket, acc)], acc, fine_hat) for bracket in brackets]

    def __call__(self, uh: np.ndarray, t: float) -> np.ndarray:
        # n samples would otherwise be silently read as a spectrum
        h = self.grid.n // 2 + 1
        if np.shape(uh) != (h,):
            raise ValueError(f"expected an rfft half-spectrum of shape {(h,)}, got shape {np.shape(uh)}")
        ops, m, up = self.ops, self.m, self._upow
        for rows, pad, fine in self._upsamples:
            for mult, low in rows:
                if mult is None:
                    np.copyto(low, uh)
                else:
                    np.multiply(uh, mult, out=low)
            ops.upsample(pad, m, fine)
        u, ux = self._u, self._ux
        for j in range(2, self.k + 2):
            np.multiply(up[j - 1], u, out=up[j])
        np.multiply(ux, ux, out=self._ux2)
        np.multiply(self._ux2, ux, out=self._ux3)

        rhs_hat = None
        for rows, acc, fine_hat in self._reduces:
            for terms, _, row in rows:
                self._bracket(terms, row)
            hats = ops.reduce_hat(acc, m, fine_hat).reshape(-1, h)  # a row per bracket, stacked or not
            for (_, smoother, _), hat in zip(rows, hats):
                if smoother is None:  # the local bracket, always first
                    rhs_hat = hat.copy()
                else:
                    rhs_hat -= np.multiply(smoother, hat, out=hat)

        if self.forcing is not None:
            rhs_hat += self.forcing(t)
        return rhs_hat

    def _bracket(self, terms, acc: np.ndarray) -> None:
        """Sum of the terms in order, into acc, each the product of its
        operands taken left to right."""
        for i, (first, second, *rest) in enumerate(terms):
            out = self._term if i else acc
            np.multiply(first, second, out=out)
            for f in rest:
                np.multiply(out, f, out=out)
            if i:
                acc += out


def cfl_dt(u: Field, p: Params, dt_max: float) -> float:
    """CFL step CFL_SAFETY dx / |speed|, at most dt_max, from the advective
    speed u^k - a u^{k-2} u_x^2 (the u_x coefficient of the evolution form,
    u_x from u's kept spectrum) floored at 1e-12; 0 when it is inf or NaN."""
    v = u.values
    with np.errstate(over="ignore", invalid="ignore"):
        speed = v**p.k
        if p.a != 0.0:
            ux = get_ops(u.grid).deriv(u.hat, 1)
            weight = p.a if p.k == 2 else p.a * v ** (p.k - 2)  # v^0 = 1 is not formed
            speed = speed - weight * ux * ux
        vmax = float(np.max(np.abs(speed)))
    if not math.isfinite(vmax):  # inf, or NaN from inf - inf; min(dt_max, nan) would be dt_max
        return 0.0
    return min(dt_max, CFL_SAFETY * u.grid.dx / max(vmax, 1e-12))


def rk4_step(f: Callable, y: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical 4-stage Runge-Kutta step of y' = f(y, t)."""
    k1 = f(y, t)
    k2 = f(y + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = f(y + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = f(y + dt * k3, t + dt)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate(cfg: SimConfig, u0: Field, on_state: Optional[Callable] = None) -> Trajectory:
    """Advance u0 to cfg.t_end with CFL-adaptive RK4 steps.

    Steps on each state's kept spectrum (Field.hat), folds each step's
    record (sobolev_norm at SOBOLEV_S, h1_squared, step size) into the
    Trajectory's reductions and keeps the last state.
    on_state(rec, u), when given, gets each stored state as it is made (u0,
    every output_stride-th step and the end) with its record (rec.t is its
    time); a reason it returns (not None) ends the run at that state, with
    that stop_reason.  A run also ends early, with its stop_reason, when a
    step goes non-finite or is too small to advance t, or after MAX_STEPS
    steps; the last good state is then stored if it was not already (what
    on_state returns there is not read).  No fault inside a run raises:
    Field's check of a step's samples is the one blow-up detector (a
    non-finite RK4 stage reaches it), and an overflowing CFL speed gives a
    zero step.  A run that the first CFL step puts above MAX_STEPS steps
    (t_end / dt) raises StepLimitError before it steps.
    """
    if u0.grid != cfg.grid:
        raise ValueError("u0 must live on cfg.grid")
    op = RhsOperator(cfg.grid, cfg.params, cfg.forcing)

    store = on_state or (lambda rec, u: None)
    t = 0.0
    traj = Trajectory(cfg.params.k, u0, StepRecord(0.0, 0.0, diagnostics.sobolev_norm(u0, SOBOLEV_S),
                                                   diagnostics.h1_squared(u0)))
    traj.stop_reason = store(traj.first, u0)

    stored = 0  # the step of the last stored state
    while traj.stop_reason is None and t < cfg.t_end - T_END_TOL:
        if traj.steps >= MAX_STEPS:  # its steps shrank after the first one
            traj.stop_reason = f"reached the cap of {MAX_STEPS:g} steps at t = {t:.6g}"
            break
        dt = cfl_dt(traj.final, cfg.params, cfg.dt_max)
        if not traj.steps and cfg.t_end > MAX_STEPS * dt:
            steps = cfg.t_end / dt if dt else math.inf  # dt is 0 on an overflowing speed or a tiny box
            about = f"about {steps:.3g}" if math.isfinite(steps) else f"more than {np.finfo(float).max:.3g}"
            raise StepLimitError(f"t_end {cfg.t_end:g} at the first CFL step {dt:.3g} needs {about} "
                                 f"steps, above the cap of {MAX_STEPS:g}")
        dt = min(dt, cfg.t_end - t)
        if t + dt == t:  # dt is 0 or below the spacing of doubles at t
            traj.stop_reason = f"time step {dt:.3g} no longer advances t = {t:.6g}"
            break
        with np.errstate(over="ignore", invalid="ignore"):  # inf is the blow-up signal, not a warning
            u_new = np.fft.irfft(rk4_step(op, traj.final.hat, t, dt), cfg.grid.n)
        # step next on the rfft of the stored samples, not on rk4_step's
        # spectrum: the two differ at round-off, and the run reports samples
        try:
            traj.final = u = Field(cfg.grid, u_new)
        except ValueError:  # irfft gave n samples, so the rejection is a non-finite one
            traj.stop_reason = f"non-finite field after t = {t:.6g}"
            break
        t += dt
        traj.add(StepRecord(t, dt, diagnostics.sobolev_norm(u, SOBOLEV_S), diagnostics.h1_squared(u)))
        if traj.steps % cfg.output_stride == 0 or t >= cfg.t_end - T_END_TOL:
            stored = traj.steps
            traj.stop_reason = store(traj.last, traj.final)
    if stored != traj.steps:  # store the last good state
        store(traj.last, traj.final)
    return traj


def mms_forcing(u0: Field, c: float, p: Params) -> Callable:
    """Forcing that makes the wave u0 travelling at speed c, u*(x, t) =
    u0(x - c t), an exact solution of the semi-discrete system: g = d_t u* -
    N(u*), with N the unforced right-hand side of the solver's own discrete
    operators.

    N commutes with translation on the grid (the padded products are exact
    and truncation is bin by bin), so N(u*(t)) is N(u0) shifted by c t.  N
    is evaluated once, at t = 0, and forcing(t) is the half-spectrum
    g0 exp(-i xi c t), with g0 = -c ik u0_hat - N(u0_hat), its Nyquist bin
    made real as rfft makes it.  The shift is exact while the degree-(k+1)
    products of u0 have nothing at or above mode n/2, whose bin, made real,
    does not shift: for A sin x on a box of j periods, while (k+1) j < n/2,
    which config checks for an mms run.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # as in simulate: inf is the blow-up signal
        uh, xi = u0.hat, u0.grid.wavenumbers
        g0 = -c * get_ops(u0.grid).ik * uh - RhsOperator(u0.grid, p)(uh, 0.0)

    def forcing(t: float) -> np.ndarray:
        g = g0 * np.exp(-1j * c * t * xi)
        g[-1] = g[-1].real
        return g
    return forcing
