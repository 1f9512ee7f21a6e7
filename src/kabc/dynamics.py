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
them to step on next.  simulate's loop is the only long-lived owner of a
spectrum; it hands each stored state, samples only, to its caller and keeps
only the last.  One evaluation costs one inverse FFT on the padded grid per
upsampled factor (u, u_x, and u_xx when c_f2_2 != 0) and one forward FFT
there per bracket (local, f1, and f2 when it has a nonzero coefficient): 4 at
k = 1 (CH, DP), 5 at k = 2 (Novikov, FORQ) and 6 at k >= 3 with a != 0.  When
forcing is set, it is evaluated, and its samples forward-transformed, once
per distinct stage time: RK4's two mid stages share t + dt/2, and a step's
last stage time t + dt is the next step's first, so a forced step adds 2
forcing evaluations, not 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import diagnostics
from .params import Params, coefficients
from .spectral import Field, Grid, dealiased_product, derivative, get_ops


# simulate ends a run once t is within this of t_end, so a t_end at or below
# it would take no step
T_END_TOL = 1e-12

# Order s of the H^s norm simulate records each step (StepRecord.hs_norm)
SOBOLEV_S = 3.0

# simulate refuses a run whose first CFL step puts it above this many steps.
# The longest runs here take a few thousand.  At 10**7 even an n = 8 run steps
# for about an hour (0.34 ms a step on one core of a 2-vCPU x86 host), and its
# per-step records alone take about 1.8 GB (184 bytes each).
MAX_STEPS = 10**7


class BlowUpError(RuntimeError):
    """A stage or step produced non-finite samples."""


class StepLimitError(RuntimeError):
    """A run would take more than MAX_STEPS steps."""


@dataclass(frozen=True)
class SimConfig:
    """One run: parameters, grid, horizon and stepping controls.

    cfl_safety scales the CFL step: runs keep the default 0.4, and a
    fixed-dt study (an mms level) steps at 1.  forcing, when present, is a
    callable (x_nodes, t) -> samples added to the right-hand side.  It must
    be a pure function of (x, t): RhsOperator may reuse the value it got at
    a time t for a later call at the same t.
    spectral_filter enables a mild exponential filter on the top sixth of
    modes (off by default; useful for peakon runs).
    """

    params: Params
    grid: Grid
    t_end: float
    cfl_safety: float = 0.4
    dt_max: float = 1e-2
    output_stride: int = 1
    forcing: Optional[Callable] = None
    spectral_filter: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > T_END_TOL):
            raise ValueError(f"t_end must be finite and > {T_END_TOL:g}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
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


@dataclass
class Trajectory:
    """Per-step scalar records plus the last state.

    final is a sample-only Field (n doubles); the spectrum the run stepped on
    is not kept.  blew_up marks a run aborted on non-finite values; final and
    the last record are then the last good state's.
    """

    config: SimConfig
    final: Field
    records: list[StepRecord] = field(default_factory=list)
    blew_up: bool = False

    @property
    def last_time(self) -> float:
        return self.records[-1].t

    @property
    def sup_hs(self) -> float:
        return max(r.hs_norm for r in self.records)


class RhsOperator:
    """Semi-discrete right-hand side bound to one (grid, params) pair.

    Maps the rfft half-spectrum of u (length n//2 + 1) to the half-spectrum
    of u_t.  All monomials have total degree k+1 in (u, u_x, u_xx) and are
    formed on a zero-padded grid of size m = pad_size(k+1), upsampled
    straight from the spectrum, then truncated back before the smoothing
    multipliers are applied; see the module docstring for the FFTs per call.
    Terms with zero coefficient are pruned up front, so no negative power of
    u is ever evaluated (Params rejects the parameter sets that would need
    one).

    The operator owns a workspace, allocated once and rewritten by every
    call: the padded half-spectrum (m//2 + 1 bins, zero above n/2), the
    padded forward-transform output, and real rows of length m for u, u_x
    (and u_xx when c_f2_2 != 0), u_x^2, u_x^3, the powers u^2 .. u^(k+1),
    one bracket accumulator and one term scratch.  So an operator is not
    reentrant: one call at a time.  Each call still returns a fresh array,
    never a view of the workspace, so results of earlier calls stay valid
    (rk4_step holds four of them at once).

    With forcing, the operator also keeps the forcing's half-spectrum for the
    last two distinct times it was called at, read-only, oldest first.  A
    call at a held t (exact float equality) reuses it; a call at any other t
    evaluates the forcing and evicts the oldest.
    """

    def __init__(self, grid: Grid, params: Params, forcing: Optional[Callable] = None):
        self.grid = grid
        self.params = params
        self.forcing = forcing
        self.ops = get_ops(grid)
        cs = coefficients(params)
        k = params.k
        self.k = k
        self.m = m = self.ops.pad_size(k + 1)
        self._pad_hat = np.zeros(m // 2 + 1, dtype=complex)  # bins above n/2 stay zero
        self._fine_hat = np.empty(m // 2 + 1, dtype=complex)
        self._u, self._ux, self._ux2, self._ux3, self._acc, self._term = np.empty((6, m))
        self._uxx = np.empty(m) if cs.c_f2_2 != 0.0 else None
        self._forcing_hats: list[tuple[float, np.ndarray]] = []
        # u^1 is the u row itself; u^0 = 1 is never stored (see _bracket)
        self._upow = {1: self._u, **{j: np.empty(m) for j in range(2, k + 2)}}

        # brackets as terms (coef, j, factor, ...) = coef * u^j * factor * ...
        def nonzero(*terms):
            return [term for term in terms if term[0] != 0.0]

        ux, ux2, ux3 = self._ux, self._ux2, self._ux3
        self._local = [(-1.0, k, ux)] + nonzero((cs.c_cub, k - 2, ux3))
        self._f1 = [(cs.c_f1_1, k + 1)] + nonzero((cs.c_f1_2, k - 1, ux2), (cs.c_f1_3, k - 3, ux2, ux2))
        self._f2 = nonzero((cs.c_f2_1, k - 2, ux3), (cs.c_f2_2, k - 3, ux3, self._uxx))

    def __call__(self, uh: np.ndarray, t: float) -> np.ndarray:
        # n samples would otherwise be silently read as a spectrum
        shape = (self.grid.n // 2 + 1,)
        if np.shape(uh) != shape:
            raise ValueError(f"expected an rfft half-spectrum of shape {shape}, got shape {np.shape(uh)}")
        # overflow to inf is the blow-up signal, not a warning condition
        with np.errstate(over="ignore", invalid="ignore"):
            return self._eval(uh, t)

    def _bracket(self, terms) -> np.ndarray:
        """Sum of the terms in order, into the bracket accumulator.  Each term
        is multiplied left to right, and u^0 = 1 is skipped: x * 1 = x."""
        acc = self._acc
        for i, (coef, j, *factors) in enumerate(terms):
            out = self._term if i else acc
            first, rest = (factors[0], factors[1:]) if j == 0 else (self._upow[j], factors)
            np.multiply(coef, first, out=out)
            for f in rest:
                np.multiply(out, f, out=out)
            if i:
                acc += out
        return acc

    def _forcing_hat(self, t: float) -> np.ndarray:
        for held_t, hat in self._forcing_hats:
            if held_t == t:
                return hat
        hat = np.fft.rfft(self.forcing(self.grid.nodes, t))
        hat.flags.writeable = False
        self._forcing_hats = self._forcing_hats[-1:] + [(t, hat)]
        return hat

    def _eval(self, uh: np.ndarray, t: float) -> np.ndarray:
        ops, m, up, pad, fine_hat = self.ops, self.m, self._upow, self._pad_hat, self._fine_hat
        u = ops.upsample(uh, m, out=self._u, work=pad)
        ux = ops.upsample(uh, m, mult=ops.ik, out=self._ux, work=pad)
        if self._uxx is not None:
            ops.upsample(uh, m, mult=ops.d2, out=self._uxx, work=pad)
        for j in range(2, self.k + 2):
            np.multiply(up[j - 1], u, out=up[j])
        np.multiply(ux, ux, out=self._ux2)
        np.multiply(self._ux2, ux, out=self._ux3)

        rhs_hat = ops.reduce_hat(self._bracket(self._local), m, work=fine_hat).copy()
        f1_hat = ops.reduce_hat(self._bracket(self._f1), m, work=fine_hat)
        rhs_hat -= np.multiply(ops.green_dx, f1_hat, out=f1_hat)
        if self._f2:
            f2_hat = ops.reduce_hat(self._bracket(self._f2), m, work=fine_hat)
            rhs_hat -= np.multiply(ops.helmholtz, f2_hat, out=f2_hat)

        if self.forcing is not None:
            rhs_hat += self._forcing_hat(t)
        if not np.all(np.isfinite(rhs_hat)):
            raise BlowUpError(f"non-finite right-hand side at t = {t:.6g}")
        return rhs_hat


def rhs(u: Field, p: Params, t: float = 0.0, forcing: Optional[Callable] = None) -> Field:
    """Time derivative of u in the smoothed evolution form."""
    op = RhsOperator(u.grid, p, forcing)
    return Field(u.grid, np.fft.irfft(op(u.hat, t), u.grid.n))


def local_form_residual(u: Field, ut: Field, p: Params) -> Field:
    """Left side of the equivalent third-order local formulation

        ut - ut_xx + (b+1) u^k u_x + (2c-3k) u^{k-1} u_x u_xx - u^k u_xxx
        + (3k-9a-b-2c) u^{k-2} u_x^3 + 6a u^{k-2} u_x u_xx^2
        + 3a u^{k-2} u_x^2 u_xxx

    evaluated with ut in place of the time derivative.  Vanishes to
    round-off when ut = rhs(u), which cross-validates the two formulations.
    """
    if u.grid != ut.grid:
        raise ValueError("u and ut must share one grid")
    k, a, b, c = p.k, p.a, p.b, p.c
    ux = derivative(u, 1)
    uxx = derivative(u, 2)
    uxxx = derivative(uxx, 1)
    out = ut.values - derivative(ut, 2).values
    out = out + (b + 1.0) * dealiased_product([u] * k + [ux]).values
    out = out + (2.0 * c - 3.0 * k) * dealiased_product([u] * (k - 1) + [ux, uxx]).values
    out = out - dealiased_product([u] * k + [uxxx]).values
    c_cub = 3.0 * k - 9.0 * a - b - 2.0 * c
    if c_cub != 0.0:
        out = out + c_cub * dealiased_product([u] * (k - 2) + [ux] * 3).values
    if a != 0.0:
        out = out + 6.0 * a * dealiased_product([u] * (k - 2) + [ux, uxx, uxx]).values
        out = out + 3.0 * a * dealiased_product([u] * (k - 2) + [ux, ux, uxxx]).values
    return Field(u.grid, out)


def cfl_dt(u: Field, p: Params, safety: float, dt_max: float, uh: np.ndarray) -> float:
    """CFL step from the advective characteristic speed u^k - a u^{k-2} u_x^2
    (the u_x coefficient of the evolution form), floored at 1e-12.  uh must be
    u.hat: the caller holds the spectrum, so no transform is repeated."""
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    v = u.values
    with np.errstate(over="ignore", invalid="ignore"):
        speed = v**p.k
        if p.a != 0.0:
            ux = get_ops(u.grid).deriv(uh, 1)
            speed = speed - p.a * v ** (p.k - 2) * ux * ux
        vmax = float(np.max(np.abs(speed)))
    if not math.isfinite(vmax):
        raise BlowUpError("non-finite CFL speed")
    vmax = max(vmax, 1e-12)
    return min(dt_max, safety * u.grid.dx / vmax)


def rk4_step(f: Callable, y: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical 4-stage Runge-Kutta step of y' = f(y, t)."""
    k1 = f(y, t)
    k2 = f(y + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = f(y + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = f(y + dt * k3, t + dt)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _filter_multiplier(grid: Grid) -> np.ndarray:
    """Mild exponential filter on the top sixth of modes."""
    nmodes = grid.n // 2
    m0 = int((5.0 / 6.0) * nmodes)
    idx = np.arange(nmodes + 1)
    eta = np.clip((idx - m0) / max(nmodes - m0, 1), 0.0, None)
    return np.exp(-36.0 * eta**8)


def simulate(cfg: SimConfig, u0: Field, on_state: Optional[Callable] = None) -> Trajectory:
    """Advance u0 to cfg.t_end with CFL-adaptive RK4 steps.

    Keeps a per-step scalar record (H^SOBOLEV_S norm, squared H^1 norm, step
    size) and the last state.  on_state(rec, u), when given, gets each stored
    state as it is made (u0, every output_stride-th step and the end) with
    its record (rec.t is its time).  On blow-up the run aborts cleanly: the
    returned trajectory is flagged, and the last good state is stored if it
    was not already.  A run that the first CFL step puts above MAX_STEPS
    steps (t_end / dt) raises StepLimitError before it steps.
    """
    if u0.grid != cfg.grid:
        raise ValueError("u0 must live on cfg.grid")
    op = RhsOperator(cfg.grid, cfg.params, cfg.forcing)
    filt = _filter_multiplier(cfg.grid) if cfg.spectral_filter else None

    store = on_state or (lambda rec, u: None)
    t = 0.0
    uh = u0.hat
    hs0, h1_sq = diagnostics.hs_and_h1_squared(uh, cfg.grid, SOBOLEV_S)
    traj = Trajectory(config=cfg, final=u0, records=[StepRecord(0.0, 0.0, hs0, h1_sq)])
    store(traj.records[0], u0)

    step = 0
    while t < cfg.t_end - T_END_TOL:
        try:
            dt = cfl_dt(traj.final, cfg.params, cfg.cfl_safety, cfg.dt_max, uh)
            if not step and cfg.t_end > MAX_STEPS * dt:
                steps = cfg.t_end / dt if dt else math.inf  # dt underflows on a tiny box
                raise StepLimitError(f"t_end {cfg.t_end:g} at the first CFL step {dt:.3g} needs about "
                                     f"{steps:.3g} steps, above the cap of {MAX_STEPS:g}")
            dt = min(dt, cfg.t_end - t)
            with np.errstate(over="ignore", invalid="ignore"):  # as in RhsOperator: inf is the blow-up signal
                uh_new = rk4_step(op, uh, t, dt)
                if filt is not None:
                    uh_new = uh_new * filt
                u_new = np.fft.irfft(uh_new, cfg.grid.n)
            if not np.all(np.isfinite(u_new)):
                raise BlowUpError(f"non-finite field after t = {t:.6g}")
        except BlowUpError:
            traj.blew_up = True
            if step % cfg.output_stride:  # store the last good state
                store(traj.records[-1], traj.final)
            break
        t += dt
        step += 1
        # step on the transform of the stored samples, not on uh_new: the
        # two differ at round-off, and the samples are what the run reports
        traj.final = Field(cfg.grid, u_new)
        uh = traj.final.hat
        hs, h1_sq = diagnostics.hs_and_h1_squared(uh, cfg.grid, SOBOLEV_S)
        traj.records.append(StepRecord(t, dt, hs, h1_sq))
        if step % cfg.output_stride == 0 or t >= cfg.t_end - T_END_TOL:
            store(traj.records[-1], traj.final)
    return traj


def mms_forcing(value: Callable, dt_value: Callable, p: Params, grid: Grid) -> Callable:
    """Forcing that makes the analytic field value(x, t), whose time
    derivative is dt_value(x, t), an exact solution of the semi-discrete
    system: g(x, t) = d_t u* - N(u*), with N the unforced right-hand side
    evaluated by the same discrete operators the solver uses."""
    op = RhsOperator(grid, p)
    def forcing(x: np.ndarray, t: float) -> np.ndarray:
        n_hat = op(np.fft.rfft(value(x, t)), t)
        return dt_value(x, t) - np.fft.irfft(n_hat, grid.n)
    return forcing
