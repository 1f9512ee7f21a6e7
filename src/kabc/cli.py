"""Command-line driver: it only orchestrates.

``parse_config`` reads the config file and the --set overrides, and
``config.resolve`` makes them a ``RunSpec`` before any output exists.  Each
experiment is one ``compute_<subcommand>(spec)`` that returns its exit code,
its small CSV tables as ``{filename: (header, rows)}`` and the manifest
extras, built in one pass over the stored states; the tables that grow with
the run go to an ``artifacts.CsvWriter`` while it runs.  ``_outcome`` turns a
run's one stop reason into its exit code, blew_up and error.  ``run`` clears
an earlier run's artifacts, lands the returned and streamed tables at once or
none, and writes the manifest, all through ``kabc.artifacts``.

Exit codes: 0 success, 2 a run that stopped early (partial outputs kept), 3
configuration error (command-line usage included), 4 I/O failure, 5
internal error (any other exception in a started run: one stderr line, the
traceback in the manifest).
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import math
import os
import sys
import time
import traceback
from dataclasses import asdict, replace

import numpy as np

from . import artifacts, config, diagnostics, dynamics, exact, lagrangian
from .artifacts import read_snapshot, write_snapshot  # the benchmark imports kabc.cli.write_snapshot
from .config import SUBCOMMANDS, ConfigError, RunSpec
from .dynamics import mms_forcing, simulate
from .exact import mollified_profile
from .params import Params
from .spectral import Field, get_ops

EXIT_OK, EXIT_BLOWUP, EXIT_CONFIG, EXIT_IO, EXIT_INTERNAL = 0, 2, 3, 4, 5

OUT_ROOT_ENV = "KABC_OUT"


def parse_config(path=None, overrides=(), subcommand="simulate", out_dir=None) -> RunSpec:
    """Load the JSON config file (if any), apply --set overrides, fill
    defaults, and resolve the run (see RunSpec).  Unknown keys are fatal
    and listed; a bad value is a ConfigError naming its key."""
    cfg: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"malformed config file {path}: {err}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        config.set_dotted(cfg, dotted, value)
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    return config.resolve(subcommand, cfg, out_dir or "")


def build_profile(spec: RunSpec) -> Field:
    """The run's start: a peakon or exp_tail profile is mollified at 3 dx.
    A start whose spectrum, or first or second derivative samples (which the
    runs compute from it), are not finite is an invalid profile too."""
    shape, value = spec.profile
    grid = spec.sim.grid
    try:
        u0 = (read_snapshot(value, grid=grid) if shape == "file"
              else mollified_profile(shape, value, 3.0 * grid.dx, grid))
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
            if not np.all(np.isfinite(u0.hat)):
                raise ValueError("its spectrum is not finite: the samples are too large to transform")
            for order in (1, 2):
                if not np.all(np.isfinite(get_ops(grid).deriv(u0.hat, order))):
                    raise ValueError(f"its order-{order} derivative is not finite: the samples are too large")
    except ValueError as err:
        raise ConfigError(f"invalid profile: {err}") from None
    return u0


DIAG_HEADER = ("t", "hs_norm", "h1_sq", "dt", "crest_x", "theta_hat_u", "theta_hat_ux", "r2", "floor_hit", "r2_ux",
               "floor_hit_ux")
PARTICLE_HEADER = ("seed", "t", "eta", "eta_x", "m_along", "invariant_residual")


def _outcome(reason, tables: dict, extras: dict):
    """(exit code, tables, extras) of a run, from its stop reason (None for
    a run that reached its end); extras gains blew_up and then the error,
    that reason.  The tables hold what the run reached."""
    extras["blew_up"] = reason is not None
    if reason is not None:
        extras["error"] = reason
    return EXIT_BLOWUP if reason is not None else EXIT_OK, tables, extras


def compute_simulate(spec: RunSpec):
    rows = []  # a diagnostics.csv row per stored state

    def take(rec, u):
        ux = Field(u.grid, get_ops(u.grid).deriv(u.hat, 1))
        fit_u, fit_ux = (diagnostics.decay_fit(f, spec.fit_window) for f in (u, ux))
        crest = diagnostics.crest_position(u)
        if spec.write_snapshots:
            writer.send(f"snap_{len(rows):06d}.csv", *artifacts.snapshot_table(u))
        rows.append((rec.t, rec.hs_norm, rec.h1_sq, rec.dt, crest, fit_u.theta_hat, fit_ux.theta_hat, fit_u.r2,
                     fit_u.floor_hit, fit_ux.r2, fit_ux.floor_hit))

    with artifacts.CsvWriter(spec.out_dir) as writer:
        traj = simulate(spec.sim, build_profile(spec), take)
    tables = {"diagnostics.csv": (DIAG_HEADER, rows), "final.csv": artifacts.snapshot_table(traj.final)}
    # the smallest finite fitted exponents, and whether any fit hit the floor
    theta_u, theta_ux = ([row[col] for row in rows if math.isfinite(row[col])] for col in (5, 6))
    summary = (traj.last_time, traj.steps, traj.sup_hs, traj.h1_drift, traj.stop_reason is not None,
               min(theta_u, default=math.nan), min(theta_ux, default=math.nan), any(row[8] or row[10] for row in rows))
    header = ("final_t", "steps", "sup_hs", "h1_drift", "blew_up", "min_theta_u", "min_theta_ux", "any_floor_hit")
    tables["summary.csv"] = (header, [summary])
    return _outcome(traj.stop_reason, tables, {"softbound": traj.softbound(), "final_t": traj.last_time})


def _peakon_case(spec: RunSpec, label: str, p: Params, gamma: float):
    """One speeds.csv row (NaN speed if the case stopped early, a state with
    no single crest included), the case's growth bound record with its
    params, and its stop reason (None if it reached t_end).  Its trajectory
    dies on return, so a run holds one case's trajectory at a time, and of
    its states only the crest positions."""
    u0 = mollified_profile("peakon", gamma, spec.sim.grid.dx, spec.sim.grid)  # at dx, finer than a profile's 3 dx
    times, crests = [], []

    def take(rec, u):
        times.append(rec.t)
        crests.append(diagnostics.crest_position(u))
        return f"no single crest at t = {rec.t:.6g}" if math.isnan(crests[-1]) else None

    traj = simulate(replace(spec.sim, params=p), u0, take)
    expected = exact.peakon_speed(gamma, p)
    measured = math.nan if traj.stop_reason else diagnostics.crest_track(times, crests, spec.sim.grid.length)
    rel = abs(measured - expected) / abs(expected) if expected else math.nan
    return (label, gamma, expected, measured, rel), dict(traj.softbound(), params=asdict(p)), traj.stop_reason


def compute_peakon_verify(spec: RunSpec):
    rows, softbounds, reasons = zip(*(_peakon_case(spec, *case) for case in spec.peakon_cases))
    worst = float(np.max([r[4] for r in rows]))  # NaN when any case measured none
    tables = {
        "speeds.csv": (("preset", "gamma", "expected_speed", "measured_speed", "rel_err"), rows),
        "summary.csv": (("n_cases", "worst_rel_err"), [(len(rows), worst)]),
    }
    reason = "; ".join(f"case {i}: {reason}" for i, reason in enumerate(reasons) if reason) or None
    return _outcome(reason, tables, {"worst_rel_err": worst, "softbound": list(softbounds)})


# An mms level whose error is at or below this times |amplitude| sits at the
# round-off of the arithmetic (1e3 eps), where its order says nothing of RK4.
MMS_ROUNDOFF = 1e3 * sys.float_info.epsilon


def compute_mms(spec: RunSpec):
    amp, dt0, levels = spec.mms
    grid = spec.sim.grid
    floor = MMS_ROUNDOFF * abs(amp)
    def value(x, t):  # the manufactured solution
        return amp * np.sin(x - t)
    u0 = Field(grid, value(grid.nodes, 0.0))
    forcing = mms_forcing(u0, 1.0, spec.sim.params)
    rows, reason = [], None
    for lvl in range(levels):
        dt = dt0 / 2**lvl
        traj = simulate(replace(spec.sim, dt_max=dt, forcing=forcing), u0)
        # a level that stopped early has collapsing last steps, so that is checked first
        if traj.stop_reason:
            reason = f"mms level {lvl} (dt {dt:g}): {traj.stop_reason}"
            break
        # only a level's last step may be cut short, to land on t_end
        if traj.min_dt < dt:
            raise ConfigError(f"mms.dt0 {dt0:g} gives level {lvl} the dt {dt:g}, but the CFL step is {traj.min_dt:.6g}")
        exactf = value(grid.nodes, traj.last_time)
        err = float(np.max(np.abs(traj.final.values - exactf)))
        # no order at the first level, nor where either level's error is 0
        ratio = rows[-1][1] / err if rows and err else 0.0
        rows.append((dt, err, math.log2(ratio) if ratio > 0.0 else math.nan, err <= floor))
    # the study's order is the last one whose two levels are above round-off
    clean = [row[2] for prev, row in zip(rows, rows[1:]) if not (prev[3] or row[3])]
    last_order = clean[-1] if clean else math.nan
    extras = {"finest_error": rows[-1][1] if rows else None, "orders": [r[2] for r in rows[1:]]}
    if len(rows) == 1:
        extras["last_order_reason"] = "the study ran one level, so no order can be observed"
    elif rows and not clean:
        extras["last_order_reason"] = f"no two successive levels have an error above the round-off floor {floor:.3g}"
    tables = {
        "mms.csv": (("dt", "final_max_error", "observed_order", "at_roundoff"), rows),
        "summary.csv": (("finest_dt", "finest_error", "last_order"), [(r[0], r[1], last_order) for r in rows[-1:]]),
    }
    return _outcome(reason, tables, extras)


def compute_lagrangian(spec: RunSpec):
    seeds, p = spec.seeds, spec.sim.params
    n_seeds = len(seeds)
    conserved = lagrangian.has_invariant(p)  # else the defects are NaN
    ps, m0 = None, None  # the particles, m at their first paths
    worst = worst_defect = -math.inf  # the largest residual and absolute defect so far

    def take(rec, u):
        nonlocal ps, m0, worst, worst_defect
        ps = lagrangian.advect(ps, rec.t, u, p.k) if ps else lagrangian.release(seeds, rec.t, u)
        if ps.stop_reason is not None:
            return ps.stop_reason  # the field stops stepping with the particles
        m_along = ps.here[2]
        m0 = m_along if m0 is None else m0
        defect, res = (lagrangian.invariant_defects(ps.etax, m_along, p, m0) if conserved
                       else (np.full(n_seeds, math.nan),) * 2)
        # NaN once any value is, as np.max over them all
        worst, worst_defect = np.maximum(worst, np.max(res)), np.maximum(worst_defect, np.max(defect))
        # one row per seed, seed-fastest within each time
        writer.send_state("particles.csv", PARTICLE_HEADER, seeds, ps.t, ps.eta, ps.etax, m_along, res)

    with artifacts.CsvWriter(spec.out_dir) as writer:
        traj = simulate(spec.sim, build_profile(spec), take)
    summary = (float(worst), n_seeds, ps.t)  # final_t: the last particle rows' time
    tables = {"summary.csv": (("max_invariant_residual", "n_seeds", "final_t"), [summary])}
    # the defect relative to the largest |m0|, which no seed whose m0 is at round-off inflates
    scale = float(np.max(np.abs(m0)))
    defect = float(worst_defect) / scale if scale else math.nan
    extras = {"max_invariant_residual": summary[0] if conserved else None,
              "max_invariant_defect": defect if conserved else None, "softbound": traj.softbound()}
    # the particles visit only states the field reached, so their stop is the earlier one
    return _outcome(ps.stop_reason or traj.stop_reason, tables, extras)


def run_sweep(spec: RunSpec):
    names, points = zip(*spec.points)
    workers = min(spec.workers, len(points))
    if workers > 1:
        import concurrent.futures  # here, so that a single run does not import it

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            codes = list(pool.map(run, points))
    else:
        codes = [run(point) for point in points]
    # aggregate.csv: each sub-run's summary lines verbatim (a string is
    # written as it is), and an empty file when no point wrote a summary
    header, rows = None, []
    for name in names:
        path = os.path.join(spec.out_dir, name, "summary.csv")
        if os.path.exists(path):
            with open(path) as fh:
                first, *lines = fh.read().splitlines()
            header = header or ("run", first)
            rows += [(name, line) for line in lines]
    return max(codes), {"aggregate.csv": (header, rows)}, {"sub_runs": names, "sub_run_exits": codes}


_RUNNERS = {
    "simulate": compute_simulate,
    "peakon-verify": compute_peakon_verify,
    "mms": compute_mms,
    "lagrangian": compute_lagrangian,
    "sweep": run_sweep,
}


def run(spec: RunSpec) -> int:
    """Execute a resolved RunSpec, writing artifacts under spec.out_dir.  A
    run that stops early writes the tables its runner returns; one that
    fails once started (a profile file that is missing or does not fit the
    grid, any other exception) still writes its manifest, with the error.
    An earlier run's artifacts go first, all but the run's profile file."""
    os.makedirs(spec.out_dir, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        keep = os.path.realpath(spec.profile[1]) if spec.profile and spec.profile[0] == "file" else None
        artifacts.clear(spec.out_dir, keep)
        whole = False
        try:
            code, tables, extras = _RUNNERS[spec.subcommand](spec)
            for name, (header, rows) in tables.items():
                artifacts.write_csv(os.path.join(spec.out_dir, name + ".part"), header, rows)
            whole = True
        finally:  # the streamed tables and the returned ones land at once, or go
            artifacts.clear(spec.out_dir, keep, land=whole)
    except (ConfigError, dynamics.StepLimitError) as err:
        code, extras = EXIT_CONFIG, {"error": str(err)}
        print(f"kabc: configuration error: {err}", file=sys.stderr)
    except OSError as err:
        code, extras = EXIT_IO, {"error": str(err)}
        print(f"kabc: I/O error: {err}", file=sys.stderr)
    except Exception as err:  # a fault of kabc: reported in one line, its traceback kept in the manifest
        code, extras = EXIT_INTERNAL, {"error": f"{type(err).__name__}: {err}", "traceback": traceback.format_exc()}
        print(f"kabc: internal error: {extras['error']}", file=sys.stderr)
    artifacts.write_manifest(spec, started, time.perf_counter() - t0, {"exit": code, **extras})
    return code


class _Parser(argparse.ArgumentParser):
    """A usage error exits 3, not argparse's 2 (the blow-up code)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="kabc",
        description="Pseudospectral simulator and verification harness for the "
        "k-abc family of nonlinear wave equations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON configuration file")
        sp.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a (dotted) config key; numbers parsed as decimal doubles",
        )
        sp.add_argument("--out", default=None, help=f"output directory (default ${OUT_ROOT_ENV}/<subcommand>)")
    try:
        args = parser.parse_args(argv)
        out_dir = args.out or os.path.join(os.environ.get(OUT_ROOT_ENV, "runs"), args.subcommand)
        spec = parse_config(args.config, args.set, args.subcommand, out_dir)
    except ConfigError as err:
        print(f"kabc: configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run(spec)
    except OSError as err:  # no writable output directory
        print(f"kabc: I/O error: {err}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    """python -m kabc.cli and the kabc script: main, with the heap the imports made frozen."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
