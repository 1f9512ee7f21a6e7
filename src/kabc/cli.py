"""Command-line driver: experiment orchestration and artifacts.

The module with side effects.  ``parse_config`` reads the config file and the
--set overrides, and ``config.resolve`` makes them a ``RunSpec`` before any
output exists.  Each experiment is one ``compute_<subcommand>(spec)`` that
returns its exit code, its small CSV tables as ``{filename: (header, rows)}``
and the manifest extras, built in one pass: simulate hands it each stored
state as it is made.  The tables that grow with the run (``particles.csv``,
the snapshots) are written while it runs instead: the runner sends their rows
to a writer process (``_CsvWriter``), so formatting them takes the second
core and no run holds them.  A snapshot goes as its (n, 2) array, and
``particles.csv`` in keyed blocks (``_Keyed``), whose seeds and times are
formatted once per block.  A run that stops early returns what it reached,
and ``_outcome`` turns its one stop reason into the exit code, blew_up and
error.  ``run`` clears an earlier run's artifacts from the output directory
and writes the returned tables (a sweep's ``aggregate.csv`` too) and one JSON
manifest.  Every table is written as ``<name>.part`` and renamed when whole,
so a table whose write fails leaves no file.  The numeric tables are 2-D
float arrays or keyed blocks, written in blocks of rows with ``%.17g``: the
bytes of the value-by-value ``_fmt`` path.  Numeric artifacts are
reproducible bit-for-bit, manifests differ in timestamps.

Exit codes: 0 success, 2 a run that stopped early (partial outputs kept), 3
configuration error (command-line usage included), 4 I/O failure, 5
internal error (any other exception in a started run: one stderr line, the
traceback in the manifest).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import re
import sys
import time
import traceback
from dataclasses import asdict, replace
from typing import NamedTuple

import numpy as np

from . import __version__, config, diagnostics, dynamics, exact, lagrangian, params as params_mod
from .config import SUBCOMMANDS, ConfigError, RunSpec
from .dynamics import mms_forcing, simulate
from .exact import mollified_profile
from .params import Params
from .spectral import Field, Grid, get_ops

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

OUT_ROOT_ENV = "KABC_OUT"

# Every file a run writes, and its .part: run removes these, and nothing else
ARTIFACT_NAME = re.compile(
    r"(manifest\.json|(diagnostics|final|summary|speeds|mms|particles|aggregate|snap_\d{6,})\.csv)(\.part)?")


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


# ---------------------------------------------------------------------------
# snapshot serialization


def _snapshot_table(f: Field):
    """(header, rows) of a snapshot CSV: rows is the (n, 2) array of nodes
    and values."""
    return ("x", "u"), np.column_stack((f.grid.nodes, f.values))


def write_snapshot(f: Field, path) -> None:
    """CSV with header x,u at full double precision (17 significant digits);
    round-trips bitwise through read_snapshot."""
    _write_csv(path, *_snapshot_table(f))


def read_snapshot(path, grid: Grid) -> Field:
    """Read a snapshot CSV; it must match grid exactly (row count and node
    positions)."""
    with open(path) as fh:
        lines = [ln.strip().split(",") for ln in fh if ln.strip()]
    if lines[:1] != [["x", "u"]]:
        raise ValueError(f"malformed snapshot file {path}: expected 'x,u' header")
    if any(len(r) != 2 for r in lines[1:]):
        raise ValueError(f"malformed snapshot file {path}: expected 2 columns")
    try:
        xs, values = np.array(lines[1:], dtype=float).reshape(-1, 2).T
    except ValueError:
        raise ValueError(f"malformed snapshot file {path}: non-numeric row") from None
    if len(xs) != grid.n:
        raise ValueError(f"grid mismatch: file has {len(xs)} rows, grid needs {grid.n}")
    if not np.all(np.abs(xs - grid.nodes) <= 1e-12 * grid.length):  # NaN fails too
        raise ValueError("grid mismatch: node positions differ")
    return Field(grid, values)


# ---------------------------------------------------------------------------
# artifacts


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# Rows per formatting call of an array table: large enough that the Python
# overhead per block vanishes, small enough that a block's text stays small
CSV_BLOCK_ROWS = 4096


class _Keyed(NamedTuple):
    """A block of particles.csv rows: for each state i, then each key (a
    seed), the row (key, times[i], *body row), the body's rows in that order
    (key fastest).  Its sender sizes a block, which is formatted in one
    %-call."""

    keys: np.ndarray  # (n_keys,)
    times: list  # a float per state
    body: np.ndarray  # (len(times) * n_keys, n_body)


def _write_rows(fh, header, rows) -> None:
    """Write a header line (none when header is None) and the rows.  A 2-D
    float array is formatted CSV_BLOCK_ROWS rows per %-call with "%.17g",
    which gives the bytes _fmt gives each float.  A _Keyed block formats
    each key and each state's time once, with "%.17g", into the template of
    its %-call, which then formats only the body.  Any other iterable of
    rows goes value by value through _fmt."""
    if header is not None:
        fh.write(",".join(header) + "\n")
    if isinstance(rows, np.ndarray):
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start : start + CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))
    elif isinstance(rows, _Keyed):
        heads = ["%.17g," % v for v in rows.keys.tolist()]  # no "%" in a formatted float
        line = ",".join(["%.17g"] * rows.body.shape[1]) + "\n"
        tails = ["%.17g,%s" % (t, line) for t in rows.times]
        fh.write("".join([tail.join(heads) + tail for tail in tails]) % tuple(rows.body.ravel().tolist()))
    else:
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        _write_rows(fh, header, rows)


def _write_parts(conn, run_end) -> None:
    """The writer process: writes the (path, header, rows) messages of conn
    with _write_rows; a message with a header starts the file path.  It runs
    until a None (done) or EOF (the run went away).  A failure is sent back
    as its text, and the process exits 1."""
    run_end.close()
    fh = None
    try:
        for path, header, rows in iter(conn.recv, None):
            if header is not None:
                if fh is not None:
                    fh.close()
                fh = open(path, "w")
            _write_rows(fh, header, rows)
        if fh is not None:
            fh.close()
    except EOFError:  # the run went away, and removes the parts
        pass
    except Exception as err:  # an I/O error, say a full disk
        conn.send(str(err))
        sys.exit(1)


class _CsvWriter:
    """CSV files that a forked writer process formats and writes while the
    run steps, so the run's own process only makes the rows.

    send(name, header, rows) hands it rows for the file name in out_dir, in
    order: a snapshot's array, or a _Keyed block of particles.csv; the first
    rows sent for a name start that file (one file at a time).  The process
    starts at the first send and writes each file as <name>.part.  Leaving
    the with-block ends it and renames each file to name, or, when the block
    raised, stops it and removes them (_land).  A writer that failed raises
    OSError, with its error.
    """

    def __init__(self, out_dir: str):
        self.out_dir, self.parts, self.proc, self.conn = out_dir, {}, None, None

    def __enter__(self):
        return self

    def send(self, name: str, header, rows) -> None:
        if self.proc is None:
            import multiprocessing  # here, so that runs that write no stream do not import it

            # fork, not spawn: a spawned child would import numpy again
            # (about 0.2 s), and the writer only unpickles and writes files,
            # so it takes no lock that another thread of the run may hold
            ctx = multiprocessing.get_context("fork")
            self.conn, writer_end = ctx.Pipe()
            # a daemon, so a run that dies without joining it does not leave it behind
            self.proc = ctx.Process(target=_write_parts, args=(writer_end, self.conn), daemon=True)
            self.proc.start()
            writer_end.close()
        if name in self.parts:
            header = None  # the file has it
        else:
            self.parts[name] = os.path.join(self.out_dir, name + ".part")
        self._send((self.parts[name], header, rows))

    def _send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError:  # the writer has stopped
            raise OSError(self._failure()) from None

    def _failure(self) -> str:
        """Why the writer stopped: its error text, or its exit code."""
        self.proc.join()
        try:
            return f"CSV writer: {self.conn.recv()}"
        except (EOFError, OSError):
            return f"CSV writer exited with code {self.proc.exitcode}"

    def __exit__(self, exc_type, exc, tb):
        if self.proc is None:
            return
        try:
            if exc_type is None:
                self._send(None)
                self.proc.join()
                if self.proc.exitcode:
                    raise OSError(self._failure())
            else:
                self.proc.terminate()
        finally:
            self.proc.join()
            self.conn.close()
            _land(self.out_dir, self.parts, exc_type is None and self.proc.exitcode == 0)


def _land(out_dir, names, whole: bool) -> None:
    """Rename each name's <name>.part in out_dir to name when all of them
    are whole, else remove each one that exists."""
    for name in names:
        part = os.path.join(out_dir, name + ".part")
        if whole:
            os.replace(part, os.path.join(out_dir, name))
        elif os.path.exists(part):
            os.remove(part)


def _json_safe(value):
    """value with every non-finite float, at any depth of dicts, lists and
    tuples, made None, so the manifest is strict JSON (null, not NaN)."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_manifest(spec: RunSpec, started, wall_s, result: dict) -> None:
    manifest = {
        "schema_version": 1,
        "subcommand": spec.subcommand,
        "config": spec.config,
        "versions": {"kabc": __version__, "numpy": np.__version__, "python": sys.version.split()[0]},
        "started_at": started,
        "wall_time_s": wall_s,
        "result": result,
    }
    # a peakon-verify case steps with its own params (see its softbound
    # record), and a sweep point with the ones its axes set
    if spec.subcommand not in ("peakon-verify", "sweep"):
        p = spec.sim.params
        manifest.update(
            params=asdict(p),
            h1_conserved=params_mod.h1_conserved(p),
            periodic_peakon_admissible=params_mod.periodic_peakon_admissible(p),
        )
    with open(os.path.join(spec.out_dir, "manifest.json"), "w") as fh:
        json.dump(_json_safe(manifest), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


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
            writer.send(f"snap_{len(rows):06d}.csv", *_snapshot_table(u))
        rows.append((rec.t, rec.hs_norm, rec.h1_sq, rec.dt, crest, fit_u.theta_hat, fit_ux.theta_hat, fit_u.r2,
                     fit_u.floor_hit, fit_ux.r2, fit_ux.floor_hit))

    with _CsvWriter(spec.out_dir) as writer:
        traj = simulate(spec.sim, build_profile(spec), take)
    tables = {"diagnostics.csv": (DIAG_HEADER, rows), "final.csv": _snapshot_table(traj.final)}
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
    # the particles.csv rows not sent yet: the time of each state, and its
    # rows' eta, eta_x, m_along and residual, written into body in place
    times, body = [], np.empty((math.ceil(CSV_BLOCK_ROWS / n_seeds) * n_seeds, 4))

    def send():
        writer.send("particles.csv", PARTICLE_HEADER, _Keyed(seeds, times, body[: len(times) * n_seeds]))
        times.clear()

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
        rows = body[len(times) * n_seeds : (len(times) + 1) * n_seeds]
        rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = ps.eta, ps.etax, m_along, res
        times.append(ps.t)
        if len(times) * n_seeds == len(body):
            send()

    with _CsvWriter(spec.out_dir) as writer:
        traj = simulate(spec.sim, build_profile(spec), take)
        if times:
            send()
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
    # aggregate.csv: each sub-run's summary lines verbatim (_fmt keeps a
    # string), and an empty file when no point wrote a summary
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
        with os.scandir(spec.out_dir) as entries:
            for entry in entries:
                if ARTIFACT_NAME.fullmatch(entry.name) and not entry.is_dir() and os.path.realpath(entry) != keep:
                    os.remove(entry)
        code, tables, extras = _RUNNERS[spec.subcommand](spec)
        whole = False
        try:
            for name, (header, rows) in tables.items():
                _write_csv(os.path.join(spec.out_dir, name + ".part"), header, rows)
            whole = True
        finally:
            _land(spec.out_dir, tables, whole)
    except (ConfigError, dynamics.StepLimitError) as err:
        code, extras = EXIT_CONFIG, {"error": str(err)}
        print(f"kabc: configuration error: {err}", file=sys.stderr)
    except OSError as err:
        code, extras = EXIT_IO, {"error": str(err)}
        print(f"kabc: I/O error: {err}", file=sys.stderr)
    except Exception as err:  # a fault of kabc: reported in one line, its traceback kept in the manifest
        code, extras = EXIT_INTERNAL, {"error": f"{type(err).__name__}: {err}", "traceback": traceback.format_exc()}
        print(f"kabc: internal error: {extras['error']}", file=sys.stderr)
    _write_manifest(spec, started, time.perf_counter() - t0, {"exit": code, **extras})
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


if __name__ == "__main__":
    sys.exit(main())
