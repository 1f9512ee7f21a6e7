"""Command-line driver: configuration, experiment orchestration, artifacts.

The only module with side effects.  ``parse_config`` reads every key through
its entry in one table (``_KEYS``: default and typed reader) and resolves a
config once into a ``RunSpec`` (a sweep's points too, each as a single run),
so a bad value exits before any output exists.  Each experiment is one pure
``compute_<subcommand>(spec)`` that reads only those values and returns its
exit code, its CSV tables as ``{filename: (header, rows)}`` and the manifest
extras, built in one pass: simulate hands it each stored state as it is
made.  ``run`` writes the tables plus one JSON manifest into the output
directory (``sweep`` writes its own aggregate).  The numeric tables are 2-D
float arrays, written in blocks of rows with ``%.17g``: the same bytes as
the value-by-value ``_fmt`` path of the small mixed-type tables.  Numeric
artifacts are reproducible bit-for-bit, manifests differ in timestamps.

Exit codes: 0 success, 2 blow-up (partial outputs kept), 3 configuration
error (command-line usage included), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import datetime
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, diagnostics, dynamics, exact, lagrangian, params as params_mod
from .diagnostics import default_tail_window
from .dynamics import SimConfig, Trajectory, mms_forcing, simulate
from .exact import mollified_profile
from .params import Params, preset
from .spectral import Field, Grid, derivative

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_CONFIG = 3
EXIT_IO = 4

OUT_ROOT_ENV = "KABC_OUT"

SUBCOMMANDS = ("simulate", "peakon-verify", "mms", "lagrangian", "sweep")


class ConfigError(ValueError):
    """Invalid or unknown configuration."""


def _real(bound: str = "", ok=lambda x: True):
    """A finite real number (an int or a float, not a bool) for which ok
    holds; bound says in words what ok asks."""
    def read(value, key):
        # abs <= max rejects NaN and, unlike math.isfinite, an int beyond a double
        real = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (real and abs(value) <= sys.float_info.max and ok(value)):
            raise ConfigError(f"{key} must be finite{' and ' + bound if bound else ''}, got {value!r}")
        return float(value)
    return read


def _integer(lo: int = 1):
    """An integer >= lo, read by the rule of params.as_int."""
    def read(value, key):
        try:
            n = params_mod.as_int(value, key)
            if n >= lo:
                return n
        except (TypeError, ValueError):
            pass
        raise ConfigError(f"{key} must be an integer >= {lo}, got {value!r}")
    return read


def _flag(value, key):
    """true or false; any other value (say the string "no") is rejected."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _choice(*options):
    def read(value, key):
        if value not in options:
            raise ConfigError(f"{key} must be one of {', '.join(map(json.dumps, options))}, got {value!r}")
        return value
    return read


def _optional(read):
    """read, or None for a null value."""
    return lambda value, key: None if value is None else read(value, key)


_FINITE = _real()
_POSITIVE = _real("> 0", lambda x: x > 0.0)
# A peakon start is rescaled by its H^1 energy, a sum of squares over the
# grid: from |gamma| = 1e150 it overflows on 2**20 nodes and the start is
# zero, while 1e146 starts right up to 2**22 nodes
GAMMA_MAX = 1e140
_GAMMA = _real(f"at most {GAMMA_MAX:g} in magnitude", lambda x: abs(x) <= GAMMA_MAX)
_CASE_GAMMA = _real(f"> 0 and at most {GAMMA_MAX:g}", lambda x: 0.0 < x <= GAMMA_MAX)
# a shorter run would take no step
_T_END = _real(f"> {dynamics.T_END_TOL:g}", lambda x: x > dynamics.T_END_TOL)

# At 2**24 nodes one k = 2 RHS workspace already holds 2.5 GB
GRID_N_MAX = 2**24


def _grid_n(value, key):
    """An even integer in [8, GRID_N_MAX]."""
    n = _integer(8)(value, key)
    if n % 2 or n > GRID_N_MAX:
        raise ConfigError(f"{key} must be an even integer in [8, {GRID_N_MAX}], got {value!r}")
    return n


def _mms_levels(value, key):
    """An integer in [1, 12]: each level halves dt, and at 4th order 12
    levels span more than 14 decades of error, past double precision."""
    levels = _integer()(value, key)
    if levels > 12:
        raise ConfigError(f"{key} must be an integer in [1, 12], got {value!r}")
    return levels

# Every config key, dotted: (default, reader).  reader(value, key) is the
# typed value or a ConfigError naming key; every scalar key is read on every
# run, used or not.  None marks a structured key, read by its own reader
# below: params on every run, sweep.axes by sweep only, fit.window by
# simulate only, and the others by every run but a sweep.
_KEYS = {
    "params": ({"preset": "ch"}, None),
    "grid.n": (512, _grid_n),
    "grid.length": (40.0 * math.pi, _POSITIVE),
    "profile": ({"shape": "peakon", "gamma": 1.0}, None),
    "t_end": (1.0, _T_END),
    "dt_max": (1e-2, _POSITIVE),
    "output_stride": (1, _integer()),
    "spectral_filter": (False, _flag),
    "write_snapshots": (False, _flag),
    "fit.window": (None, None),
    "peakon_verify.cases": (None, None),
    "peakon_verify.t_end": (5.0, _T_END),
    # a zero amplitude has a zero error, so no observed order
    "mms.amplitude": (0.1, _real("nonzero", lambda x: x != 0.0)),
    "mms.dt0": (0.0625, _POSITIVE),
    "mms.levels": (5, _mms_levels),
    "mms.t_end": (1.0, _T_END),
    "lagrangian.seeds": (None, None),
    "sweep.subcommand": ("simulate", _choice(*(name for name in SUBCOMMANDS if name != "sweep"))),
    "sweep.axes": (None, None),
    "sweep.workers": (None, _optional(_integer())),
}


def _path(value, key):
    if not isinstance(value, str):
        raise ConfigError(f"{key} must name a snapshot file, got {value!r}")
    return value


_PARAMS_KEYS = {"preset", "k", "a", "b", "c"}
# shape name -> (its key, default, reader); only the peakon's amplitude may
# be zero or negative
_PROFILE_SHAPES = {"peakon": ("gamma", 1.0, _GAMMA), "exp_tail": ("theta", 0.5, _POSITIVE),
                   "bump": ("width", 2.0, _POSITIVE), "file": ("path", None, _path)}


def _shape(prof) -> str | None:
    """The profile block's shape name; None for a block that is no object."""
    return str(prof.get("shape", "peakon")).lower() if isinstance(prof, dict) else None


def _set_dotted(cfg: dict, dotted: str, value) -> None:
    """Set a dotted key (a --set override or a sweep axis) in cfg."""
    node = cfg
    keys = dotted.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-mapping key {key!r}")
    node[keys[-1]] = value


DEFAULT_CONFIG: dict = {}
for _key in _KEYS:
    _set_dotted(DEFAULT_CONFIG, _key, _KEYS[_key][0])


def _merged(cfg: dict) -> dict:
    """cfg over the defaults: a block (fit, mms, ...) merges key by key, any
    other value replaces its default whole.  Unknown keys are fatal, listed:
    profile's known keys are the ones its shape reads."""
    out, unknown = copy.deepcopy(DEFAULT_CONFIG), []
    for key, val in copy.deepcopy(cfg).items():
        if key in _KEYS:
            out[key] = val
        elif key not in out:
            unknown.append(key)
        elif not isinstance(val, dict):
            raise ConfigError(f"{key} must be an object, got {val!r}")
        else:
            unknown += [f"{key}.{sub}" for sub in val if sub not in out[key]]
            out[key].update(val)
    blocks = {"params": _PARAMS_KEYS}
    shape = _shape(out["profile"])  # no object or an unknown shape fails in _profile
    if shape in _PROFILE_SHAPES:
        blocks["profile"] = {"shape", _PROFILE_SHAPES[shape][0]}
    for block, known in blocks.items():
        if isinstance(out[block], dict):
            unknown += [f"{block}.{sub}" for sub in out[block] if sub not in known]
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    return out


def resolve_params(block: dict) -> Params:
    if not isinstance(block, dict):
        raise ConfigError(f"params must be an object, got {block!r}")
    block = dict(block)
    name = block.pop("preset", None)
    try:
        if name is not None:
            return preset(str(name), **block)
        return Params(block.pop("k"), block.pop("a"), block.pop("b"), block.pop("c"))
    except KeyError as missing:
        raise ConfigError(f"params block is missing {missing}") from None
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid parameters: {err}") from None


DEFAULT_PEAKON_CASES = (
    {"preset": "ch", "gamma": 1.0},
    {"preset": "dp", "gamma": 1.0},
    {"preset": "novikov", "gamma": math.sqrt(2.0)},
    {"preset": "forq", "gamma": 1.0},
)


@dataclass(frozen=True)
class RunSpec:
    """A run resolved once by parse_config: the typed values its runner
    reads.  Every run but a sweep sets profile, peakon_cases and seeds;
    fit_window (the right-tail window of every decay fit) is set for
    simulate only, points for sweep only.  config is the merged raw
    configuration, kept only for the manifest."""

    subcommand: str
    config: dict
    out_dir: str
    sim: SimConfig  # what the runner steps with: its params and grid are the run's
    profile: tuple | None = None  # (shape, value), see _profile
    fit_window: tuple[float, float] | None = None
    write_snapshots: bool = False
    mms: tuple[float, float, int] | None = None  # (amplitude, dt0, levels)
    peakon_cases: tuple = ()  # (label, params, gamma) per case
    seeds: np.ndarray | None = None
    points: tuple = ()  # sweep: (name, RunSpec) per point, in axis order
    workers: int = 1  # sweep process pool size


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
        _set_dotted(cfg, dotted, value)
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    return _resolve(subcommand, cfg, out_dir or "")


def _profile(vals: dict, grid: Grid) -> tuple:
    """(shape, value) of the profile block, value being its shape's key; a
    bump is at most a quarter of the box wide."""
    prof, shape = vals["profile"], _shape(vals["profile"])
    if shape is None:
        raise ConfigError(f"profile must be an object, got {prof!r}")
    if shape not in _PROFILE_SHAPES:
        raise ConfigError(f"unknown profile shape {shape!r}")
    key, default, read = _PROFILE_SHAPES[shape]
    value = read(prof.get(key, default), f"profile.{key}")
    if shape == "bump" and value > grid.length / 4.0:
        raise ConfigError(f"profile.width exceeds a quarter of the box, got {value!r}")
    return shape, value


def _fit_window(vals: dict, grid: Grid) -> tuple[float, float]:
    """fit.window, or the default tail window, checked by
    diagnostics.check_fit_window."""
    win = vals["fit.window"]
    if win is None:
        win, name = default_tail_window(grid), "fit.window (default [L/8, L/4])"
    elif not isinstance(win, list) or len(win) != 2:
        raise ConfigError(f"fit.window must be [x_lo, x_hi], got {win!r}")
    else:
        win, name = [_FINITE(x, "fit.window") for x in win], "fit.window"
    try:
        return diagnostics.check_fit_window(win, grid)
    except ValueError as err:
        raise ConfigError(f"{name}: {err}") from None


def _peakon_cases(vals: dict) -> tuple:
    """(label, params, gamma) of each peakon_verify case; a ConfigError
    names the offending case."""
    cases = DEFAULT_PEAKON_CASES if vals["peakon_verify.cases"] is None else vals["peakon_verify.cases"]
    if not isinstance(cases, (list, tuple)) or not cases:
        raise ConfigError("peakon_verify.cases must be a non-empty list")
    resolved = []
    for i, case in enumerate(cases):
        try:
            if not isinstance(case, dict):
                raise ConfigError("a case must be an object")
            unknown = sorted(set(case) - _PARAMS_KEYS - {"gamma"})
            if unknown:
                raise ConfigError(f"unknown keys {unknown}")
            gamma = _CASE_GAMMA(case.get("gamma", 1.0), "gamma")
            p = resolve_params({key: val for key, val in case.items() if key != "gamma"})
        except ConfigError as err:
            raise ConfigError(f"peakon_verify.cases[{i}] {json.dumps(case)}: {err}") from None
        resolved.append((str(case.get("preset", "custom")), p, gamma))
    return tuple(resolved)


def _lagrangian_seeds(vals: dict, grid: Grid) -> np.ndarray:
    """lagrangian.seeds, each in [0, grid.length), or 16 points spread over
    the middle quarter of the box."""
    seeds = vals["lagrangian.seeds"]
    if seeds is None:
        return grid.length / 2.0 + grid.length / 8.0 * np.linspace(-1.0, 1.0, 16)
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"lagrangian.seeds must be a non-empty list of numbers in the box, got {seeds!r}")
    in_box = _real(f"in [0, {grid.length!r})", lambda x: 0.0 <= x < grid.length)
    return np.array([in_box(s, "lagrangian.seeds") for s in seeds])


def _sweep_points(cfg: dict, vals: dict, out_dir: str) -> tuple:
    """(name, RunSpec) of every point of the product of the sweep axes, each
    resolved by _resolve as the single run of sweep.subcommand whose config
    is the sweep's with the point's axis keys set."""
    axes = vals["sweep.axes"]
    if not isinstance(axes, list) or not axes:
        raise ConfigError(f"sweep.axes must be a non-empty list, got {axes!r}")
    combos = [[]]
    for ax in axes:
        if not (isinstance(ax, dict) and isinstance(ax.get("key"), str) and isinstance(ax.get("values"), list)
                and ax["values"]):
            raise ConfigError(f"each sweep axis needs a string key and a non-empty values list, got {ax!r}")
        combos = [c + [(ax["key"], value)] for c in combos for value in ax["values"]]
    points = []
    for i, combo in enumerate(combos):
        labels = [f"{key.split('.')[-1]}={format(value, 'g') if isinstance(value, float) else value}"
                  for key, value in combo]
        # one flat directory per point, whatever characters the values hold
        name = re.sub(r"[^A-Za-z0-9._=+-]", "_", f"sub_{i:03d}_" + "_".join(labels))
        point = copy.deepcopy(dict(cfg, sweep={}))  # a point is no sweep
        try:
            for key, value in combo:
                _set_dotted(point, key, value)
            points.append((name, _resolve(vals["sweep.subcommand"], point, os.path.join(out_dir, name))))
        except ConfigError as err:
            raise ConfigError(f"sweep point {name}: {err}") from None
    return tuple(points)


def _resolve(subcommand: str, cfg: dict, out_dir: str) -> RunSpec:
    """Check the keys of cfg, fill the defaults, read every key and then the
    structured keys: the one path from a config to a RunSpec, for a single
    run and for each sweep point alike.  A sweep reads its points, whose
    runs read the structured keys."""
    cfg = _merged(cfg)
    p = resolve_params(cfg["params"])
    vals = {}  # every key's value, typed where _KEYS gives a reader
    for key, (_, read) in _KEYS.items():
        block, dot, leaf = key.partition(".")
        raw = cfg[block][leaf] if dot else cfg[key]
        vals[key] = raw if read is None else read(raw, key)
    grid = Grid(vals["grid.n"], vals["grid.length"])
    # peakon-verify and mms have their own t_end; an mms level steps at a
    # fixed dt (each level sets dt_max, under CFL safety 1), keeping its end only
    stepping = {key: vals[key] for key in ("dt_max", "output_stride", "spectral_filter")}
    t_end = {"peakon-verify": vals["peakon_verify.t_end"], "mms": vals["mms.t_end"]}.get(subcommand, vals["t_end"])
    if subcommand == "mms":
        stepping.update(cfl_safety=1.0, output_stride=10**9)
    spec = RunSpec(
        subcommand=subcommand, config=cfg, out_dir=out_dir,
        sim=SimConfig(params=p, grid=grid, t_end=t_end, **stepping),
        write_snapshots=vals["write_snapshots"],
        mms=(vals["mms.amplitude"], vals["mms.dt0"], vals["mms.levels"]),
        workers=vals["sweep.workers"] or os.cpu_count() or 1,
    )
    if subcommand == "sweep":
        return replace(spec, points=_sweep_points(cfg, vals, out_dir))
    spec = replace(spec, profile=_profile(vals, grid), peakon_cases=_peakon_cases(vals),
                   seeds=_lagrangian_seeds(vals, grid))
    # the default fit window needs n >= 128, finer than an mms run needs
    if subcommand == "simulate":
        spec = replace(spec, fit_window=_fit_window(vals, grid))
    return spec


def build_profile(spec: RunSpec) -> Field:
    """The run's start: a peakon or exp_tail profile is mollified at 3 dx."""
    shape, value = spec.profile
    grid = spec.sim.grid
    try:
        if shape == "file":
            return read_snapshot(value, grid=grid)
        return mollified_profile(shape, value, 3.0 * grid.dx, grid)
    except ValueError as err:
        raise ConfigError(f"invalid profile: {err}") from None


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
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "x,u":
        raise ValueError(f"malformed snapshot file {path}: expected 'x,u' header")
    try:
        rows = [tuple(float(tok) for tok in ln.split(",")) for ln in lines[1:]]
    except ValueError:
        raise ValueError(f"malformed snapshot file {path}: non-numeric row") from None
    if any(len(r) != 2 for r in rows):
        raise ValueError(f"malformed snapshot file {path}: expected 2 columns")
    if len(rows) != grid.n:
        raise ValueError(f"grid mismatch: file has {len(rows)} rows, grid needs {grid.n}")
    xs = np.array([r[0] for r in rows])
    if np.max(np.abs(xs - grid.nodes)) > 1e-12 * grid.length:
        raise ValueError("grid mismatch: node positions differ")
    return Field(grid, np.array([r[1] for r in rows]))


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


def _write_csv(path, header, rows) -> None:
    """Write a header line and the rows.  A 2-D float array is formatted
    CSV_BLOCK_ROWS rows per %-call with "%.17g", which gives the bytes
    _fmt gives each float; any other iterable of rows goes value by value
    through _fmt."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            for start in range(0, len(rows), CSV_BLOCK_ROWS):
                block = rows[start : start + CSV_BLOCK_ROWS]
                fh.write((line * len(block)) % tuple(block.ravel().tolist()))
        else:
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


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
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _softbound_record(traj: Trajectory) -> dict:
    """The heuristic growth bound 2^{1+1/k} hs0 on the H^s norm (a lifespan
    warning, not an error) and the first step time past it; none when hs0 is
    zero."""
    hs0 = traj.records[0].hs_norm
    factor = 2.0 ** (1.0 + 1.0 / traj.config.params.k)
    bound = factor * hs0
    exceeded = next((r.t for r in traj.records[1:] if r.hs_norm > bound), None) if hs0 > 0.0 else None
    return {"hs0": hs0, "sup_hs": traj.sup_hs, "bound_factor": factor, "bound": bound, "exceeded_t": exceeded}


DIAG_HEADER = ("t", "hs_norm", "h1_sq", "dt", "crest_x", "theta_hat_u", "theta_hat_ux", "r2", "floor_hit", "r2_ux",
               "floor_hit_ux")
PARTICLE_HEADER = ("seed", "t", "eta", "eta_x", "m_along", "invariant_residual")


def _outcome(traj: Trajectory, tables: dict, extras: dict):
    """(exit code, tables, extras) of a run that steps one trajectory; extras
    gains blew_up and, after a blow-up, the error naming the last good time."""
    extras["blew_up"] = traj.blew_up
    if traj.blew_up:
        extras["error"] = f"non-finite field after t = {traj.last_time:.6g}"
    return EXIT_BLOWUP if traj.blew_up else EXIT_OK, tables, extras


def compute_simulate(spec: RunSpec):
    rows, snaps = [], {}  # a diagnostics.csv row and, with write_snapshots, a table per stored state

    def take(rec, u):
        fit_u, fit_ux = (diagnostics.decay_fit(f, spec.fit_window) for f in (u, derivative(u, 1)))
        try:
            crest = diagnostics.crest_position(u)
        except ValueError:
            crest = math.nan
        if spec.write_snapshots:
            snaps[f"snap_{len(rows):06d}.csv"] = _snapshot_table(u)
        rows.append((rec.t, rec.hs_norm, rec.h1_sq, rec.dt, crest, fit_u.theta_hat, fit_ux.theta_hat, fit_u.r2,
                     fit_u.floor_hit, fit_ux.r2, fit_ux.floor_hit))

    traj = simulate(spec.sim, build_profile(spec), take)
    tables = {"diagnostics.csv": (DIAG_HEADER, rows), "final.csv": _snapshot_table(traj.final), **snaps}
    try:
        drift = diagnostics.h1_drift(traj)
    except ValueError:
        drift = math.nan
    # the smallest finite fitted exponents, and whether any fit hit the floor
    theta_u, theta_ux = ([row[col] for row in rows if math.isfinite(row[col])] for col in (5, 6))
    summary = (traj.last_time, len(traj.records) - 1, traj.sup_hs, drift, traj.blew_up,
               min(theta_u, default=math.nan), min(theta_ux, default=math.nan), any(row[8] or row[10] for row in rows))
    header = ("final_t", "steps", "sup_hs", "h1_drift", "blew_up", "min_theta_u", "min_theta_ux", "any_floor_hit")
    tables["summary.csv"] = (header, [summary])
    return _outcome(traj, tables, {"softbound": _softbound_record(traj), "final_t": traj.last_time})


def _peakon_case(spec: RunSpec, label: str, p: Params, gamma: float):
    """One speeds.csv row (NaN speed if the case blew up), the case's growth
    bound record with its params, and its last good time if it blew up, else
    None.  Its trajectory dies on return, so a run holds one case's
    trajectory at a time, and of its states only the crest positions."""
    u0 = mollified_profile("peakon", gamma, spec.sim.grid.dx, spec.sim.grid)  # at dx, finer than a profile's 3 dx
    times, crests = [], []

    def take(rec, u):
        times.append(rec.t)
        crests.append(diagnostics.crest_position(u))

    traj = simulate(replace(spec.sim, params=p), u0, take)
    expected = exact.peakon_speed(gamma, p)
    measured = math.nan if traj.blew_up else diagnostics.crest_track(times, crests, spec.sim.grid.length)
    rel = abs(measured - expected) / abs(expected) if expected else math.nan
    softbound = dict(_softbound_record(traj), params=asdict(p))
    return (label, gamma, expected, measured, rel), softbound, traj.last_time if traj.blew_up else None


def compute_peakon_verify(spec: RunSpec):
    rows, softbounds, blown = zip(*(_peakon_case(spec, *case) for case in spec.peakon_cases))
    worst = float(np.max([r[4] for r in rows]))  # NaN when any case measured none
    tables = {
        "speeds.csv": (("preset", "gamma", "expected_speed", "measured_speed", "rel_err"), rows),
        "summary.csv": (("n_cases", "worst_rel_err"), [(len(rows), worst)]),
    }
    extras = {"worst_rel_err": worst, "softbound": list(softbounds)}
    errors = [f"case {i}: non-finite field after t = {t:.6g}" for i, t in enumerate(blown) if t is not None]
    if errors:
        extras["error"] = "; ".join(errors)
    return EXIT_BLOWUP if errors else EXIT_OK, tables, extras


def compute_mms(spec: RunSpec):
    amp, dt0, levels = spec.mms
    grid = spec.sim.grid
    def value(x, t):  # the manufactured solution
        return amp * np.sin(x - t)
    forcing = mms_forcing(value, lambda x, t: -amp * np.cos(x - t), spec.sim.params, grid)
    u0 = Field(grid, value(grid.nodes, 0.0))
    rows = []
    for lvl in range(levels):
        dt = dt0 / 2**lvl
        traj = simulate(replace(spec.sim, dt_max=dt, forcing=forcing), u0)
        # a blown-up level's last steps collapse, so blow-up is checked first
        if traj.blew_up:
            raise dynamics.BlowUpError(f"mms level {lvl} (dt {dt:g}): non-finite field after t = {traj.last_time:.6g}")
        # only a level's last step may be cut short, to land on t_end
        cfl = min((rec.dt for rec in traj.records[1:-1]), default=dt)
        if cfl < dt:
            raise ConfigError(f"mms.dt0 {dt0:g} gives level {lvl} the dt {dt:g}, but the CFL step is {cfl:.6g}")
        exactf = value(grid.nodes, traj.last_time)
        err = float(np.max(np.abs(traj.final.values - exactf)))
        rows.append((dt, err, math.log2(rows[-1][1] / err) if rows else math.nan))
    tables = {
        "mms.csv": (("dt", "final_max_error", "observed_order"), rows),
        "summary.csv": (("finest_dt", "finest_error", "last_order"), [rows[-1]]),
    }
    return EXIT_OK, tables, {"finest_error": rows[-1][1], "orders": [r[2] for r in rows[1:]]}


def compute_lagrangian(spec: RunSpec):
    seeds, p = spec.seeds, spec.sim.params
    rows, ps = [], None  # (t, eta, eta_x, m_along) per stored state the particles reached; the particles there

    def take(rec, u):
        nonlocal ps
        if rows and ps is None:  # a step came out non-finite, which ends the particles' pass
            return
        ps = lagrangian.advect(ps, rec.t, u, p.k) if rows else lagrangian.release(seeds, rec.t, u)
        if ps is not None:
            rows.append((ps.t, ps.eta, ps.etax, lagrangian.momentum_along(u, ps.eta)))

    traj = simulate(spec.sim, build_profile(spec), take)
    times, paths, stretch, m_along = (np.asarray(col) for col in zip(*rows))
    if ps is None and not traj.blew_up:  # the field stayed finite, the particle paths did not
        raise dynamics.BlowUpError(f"non-finite particle step after t = {times[-1]:.6g}")
    try:
        res = lagrangian.invariant_residuals(stretch, m_along, p)
        residual = float(np.max(res))
    except ValueError:  # off the a = 0, c = (3k - b)/2 subfamily
        res = np.full_like(m_along, math.nan)
        residual = None
    # one row per (time, seed), seed-fastest within each time
    n_seeds, n_times = len(seeds), len(times)
    particles = np.column_stack((
        np.tile(seeds, n_times), np.repeat(times, n_seeds),
        paths.ravel(), stretch.ravel(), m_along.ravel(), res.ravel(),
    ))
    summary = (residual if residual is not None else math.nan, n_seeds, traj.last_time)
    tables = {
        "particles.csv": (PARTICLE_HEADER, particles),
        "summary.csv": (("max_invariant_residual", "n_seeds", "final_t"), [summary]),
    }
    return _outcome(traj, tables, {"max_invariant_residual": residual, "softbound": _softbound_record(traj)})


def run_sweep(spec: RunSpec):
    names, points = zip(*spec.points)
    workers = min(spec.workers, len(points))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            codes = list(pool.map(run, points))
    else:
        codes = [run(point) for point in points]
    # aggregate: copy each sub-run's summary row verbatim so aggregate rows
    # stay bitwise identical to the single-run outputs
    agg_lines = []
    for name in names:
        path = os.path.join(spec.out_dir, name, "summary.csv")
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not agg_lines:
            agg_lines.append("run," + lines[0])
        agg_lines += [f"{name},{ln}" for ln in lines[1:]]
    with open(os.path.join(spec.out_dir, "aggregate.csv"), "w") as fh:
        fh.write("\n".join(agg_lines) + ("\n" if agg_lines else ""))
    return max(codes), {}, {"sub_runs": names, "sub_run_exits": codes}


_RUNNERS = {
    "simulate": compute_simulate,
    "peakon-verify": compute_peakon_verify,
    "mms": compute_mms,
    "lagrangian": compute_lagrangian,
    "sweep": run_sweep,
}


def run(spec: RunSpec) -> int:
    """Execute a resolved RunSpec, writing artifacts under spec.out_dir.  A
    run that fails once started (blow-up, a profile file that is missing or
    does not fit the grid) still writes its manifest, with the error."""
    os.makedirs(spec.out_dir, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        code, tables, extras = _RUNNERS[spec.subcommand](spec)
        for name, (header, rows) in tables.items():
            _write_csv(os.path.join(spec.out_dir, name), header, rows)
    except (dynamics.BlowUpError, lagrangian.WaveBreakingError) as err:
        code, extras = EXIT_BLOWUP, {"error": str(err)}
    except (ConfigError, dynamics.StepLimitError) as err:
        code, extras = EXIT_CONFIG, {"error": str(err)}
        print(f"kabc: configuration error: {err}", file=sys.stderr)
    except OSError as err:
        code, extras = EXIT_IO, {"error": str(err)}
        print(f"kabc: I/O error: {err}", file=sys.stderr)
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
