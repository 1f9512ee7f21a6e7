"""Command-line driver: configuration, experiment orchestration, artifacts.

The only module with side effects.  Every run writes plain CSV files plus
one JSON manifest into its output directory; numeric artifacts are
reproducible bit-for-bit, manifests differ at most in timestamps.

Exit codes: 0 success, 2 blow-up (partial outputs kept), 3 configuration
error, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import datetime
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, diagnostics, dynamics, exact, lagrangian, params as params_mod
from .diagnostics import decay_fit, default_tail_window, persistence_report
from .dynamics import ManufacturedSolution, SimConfig, Trajectory, mms_forcing, simulate
from .exact import Bump, ExpTail, Peakon, PeakonSpec, mollified_profile
from .params import Params, preset
from .spectral import Field, Grid, derivative

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_CONFIG = 3
EXIT_IO = 4

OUT_ROOT_ENV = "KABC_OUT"

SUBCOMMANDS = ("simulate", "peakon-verify", "mms", "decay-scan", "lagrangian", "sweep")


class ConfigError(ValueError):
    """Invalid or unknown configuration."""


DEFAULT_CONFIG = {
    "params": {"preset": "ch"},
    "grid": {"n": 512, "length": 40.0 * math.pi},
    "profile": {"shape": "peakon", "gamma": 1.0},
    "t_end": 1.0,
    "cfl_safety": 0.4,
    "dt_max": 1e-2,
    "output_stride": 1,
    "sobolev_s": 3.0,
    "spectral_filter": False,
    "write_snapshots": False,
    "fit": {"window": None, "side": "right", "theta": 0.5},
    "peakon_verify": {"cases": None, "t_end": 5.0, "moll_width": None},
    "mms": {"amplitude": 0.1, "dt0": 0.0625, "levels": 5, "t_end": 1.0},
    "lagrangian": {"n_seeds": 16, "seeds": None},
    "sweep": {"subcommand": "simulate", "axes": None, "workers": None},
}

_PARAMS_KEYS = {"preset", "k", "a", "b", "c"}
_PROFILE_KEYS = {"shape", "gamma", "theta", "width", "moll_width", "path"}


def _check_keys(cfg: dict) -> None:
    unknown = []
    for key, val in cfg.items():
        if key not in DEFAULT_CONFIG:
            unknown.append(key)
            continue
        base = DEFAULT_CONFIG[key]
        if isinstance(base, dict) and isinstance(val, dict) and key not in ("params", "profile"):
            for sub in val:
                if sub not in base:
                    unknown.append(f"{key}.{sub}")
    if "params" in cfg and isinstance(cfg["params"], dict):
        unknown += [f"params.{s}" for s in cfg["params"] if s not in _PARAMS_KEYS]
    if "profile" in cfg and isinstance(cfg["profile"], dict):
        unknown += [f"profile.{s}" for s in cfg["profile"] if s not in _PROFILE_KEYS]
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))


# params/profile are alternative-shaped blocks (preset vs quadruple, one
# shape per profile): a user block replaces the default instead of merging
_ATOMIC_KEYS = ("params", "profile")


def _merge(base: dict, override: dict, atomic=()) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if key not in atomic and isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _apply_override(cfg: dict, dotted: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    keys = dotted.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-mapping key {key!r}")
    node[keys[-1]] = value


def resolve_params(block: dict) -> Params:
    block = dict(block)
    name = block.pop("preset", None)
    try:
        if name is not None:
            return preset(str(name), **block)
        return params_mod.validate(block.pop("k"), block.pop("a"), block.pop("b"), block.pop("c"))
    except KeyError as missing:
        raise ConfigError(f"params block is missing {missing}") from None
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid parameters: {err}") from None


@dataclass
class RunSpec:
    """A fully resolved run: subcommand plus plain-data configuration."""

    subcommand: str
    config: dict
    out_dir: str

    @property
    def params(self) -> Params:
        return resolve_params(self.config["params"])

    @property
    def grid(self) -> Grid:
        g = self.config["grid"]
        return Grid(int(g["n"]), float(g["length"]))


def parse_config(path=None, overrides=(), subcommand="simulate", out_dir=None) -> RunSpec:
    """Load the JSON config file (if any), apply --set overrides, fill
    defaults, and validate.  Unknown keys are fatal and listed."""
    cfg: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"malformed config file {path}: {err}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        _apply_override(cfg, dotted, raw)
    _check_keys(cfg)
    resolved = _merge(DEFAULT_CONFIG, cfg, atomic=_ATOMIC_KEYS)
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    spec = RunSpec(subcommand=subcommand, config=resolved, out_dir=out_dir or "")
    spec.params  # validates the parameter block
    try:
        grid = spec.grid
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid grid: {err}") from None
    fit_window = resolved["fit"]["window"]
    if fit_window is not None:
        if len(fit_window) != 2 or not fit_window[0] < fit_window[1]:
            raise ConfigError("fit.window must be [x_lo, x_hi] with x_lo < x_hi")
    fitted = {subcommand, resolved["sweep"]["subcommand"] if subcommand == "sweep" else subcommand}
    if fitted & {"simulate", "decay-scan"}:
        lo, hi = fit_window if fit_window is not None else default_tail_window(grid)
        if (hi - lo) / grid.dx < 16:
            raise ConfigError("fit window holds fewer than 16 grid nodes")
        if hi > grid.length / 2.0 - grid.length / 8.0:
            raise ConfigError("fit window too close to the wrap-around seam")
    if resolved["sweep"]["axes"] is not None:
        axes = resolved["sweep"]["axes"]
        if not isinstance(axes, list) or not axes:
            raise ConfigError("sweep.axes must be a non-empty list")
        for ax in axes:
            if not isinstance(ax, dict) or "key" not in ax or "values" not in ax or not ax["values"]:
                raise ConfigError("each sweep axis needs a key and a non-empty values list")
    if subcommand == "sweep":
        for name, cfg in _expand_sweep(spec):
            try:
                resolve_params(cfg["params"])
            except ConfigError as err:
                raise ConfigError(f"sweep point {name}: {err}") from None
    return spec


def build_profile(spec: RunSpec) -> Field:
    grid = spec.grid
    prof = spec.config["profile"]
    shape = str(prof.get("shape", "peakon")).lower()
    moll = prof.get("moll_width")
    if moll is None:
        moll = 3.0 * grid.dx
    try:
        if shape == "peakon":
            return mollified_profile(Peakon(float(prof.get("gamma", 1.0))), float(moll), grid)
        if shape == "exp_tail":
            return mollified_profile(ExpTail(float(prof.get("theta", 0.5))), float(moll), grid)
        if shape == "bump":
            return mollified_profile(Bump(float(prof.get("width", 2.0))), float(moll), grid)
        if shape == "file":
            return read_snapshot(prof["path"], grid=grid)
        raise ConfigError(f"unknown profile shape {shape!r}")
    except (TypeError, ValueError, KeyError) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"invalid profile: {err}") from None


# ---------------------------------------------------------------------------
# snapshot serialization


def write_snapshot(f: Field, path) -> None:
    """CSV with header x,u at full double precision (17 significant digits);
    round-trips bitwise through read_snapshot."""
    lines = ["x,u"]
    for x, v in zip(f.grid.nodes, f.values):
        lines.append(f"{x:.17g},{v:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot(path, grid: Grid | None = None) -> Field:
    """Read a snapshot CSV.  With a grid, the file must match it exactly
    (row count and node positions); without one, the grid is inferred from
    the x column."""
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
    xs = np.array([r[0] for r in rows])
    vs = np.array([r[1] for r in rows])
    if grid is not None:
        if len(rows) != grid.n:
            raise ValueError(f"grid mismatch: file has {len(rows)} rows, grid needs {grid.n}")
        if np.max(np.abs(xs - grid.nodes)) > 1e-12 * grid.length:
            raise ValueError("grid mismatch: node positions differ")
        return Field(grid, vs)
    if len(xs) < 8:
        raise ValueError("snapshot too short to infer a grid")
    dx = xs[1] - xs[0]
    if np.max(np.abs(np.diff(xs) - dx)) > 1e-9 * max(abs(dx), 1.0):
        raise ValueError("snapshot x column is not uniformly spaced")
    n = len(xs)
    if n % 2:
        raise ValueError(f"grid mismatch: snapshot has odd row count {n}")
    return Field(Grid(n, float(n * dx)), vs)


# ---------------------------------------------------------------------------
# artifacts


def _fmt(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _manifest(spec: RunSpec, started, wall_s, result: dict) -> dict:
    p = spec.params
    return {
        "schema_version": 1,
        "subcommand": spec.subcommand,
        "config": spec.config,
        "params": {"k": p.k, "a": p.a, "b": p.b, "c": p.c},
        "h1_conserved": params_mod.h1_conserved(p),
        "h1_condition": params_mod.h1_condition_label(p),
        "periodic_peakon_admissible": params_mod.periodic_peakon_admissible(p),
        "versions": {
            "kabc": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "started_at": started,
        "wall_time_s": wall_s,
        "result": result,
    }


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_manifest(out_dir, manifest) -> None:
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _softbound_record(traj: Trajectory) -> dict:
    hs0 = traj.records[0].hs_norm
    return {
        "hs0": hs0,
        "sup_hs": traj.sup_hs,
        "bound_factor": traj.softbound_factor(),
        "bound": traj.softbound_factor() * hs0,
        "exceeded_t": traj.softbound_exceeded_t,
    }


def _snapshot_diag_rows(traj: Trajectory, window, side):
    rows = []
    # simulate stores a StepRecord for every time it stores a snapshot
    rec_by_t = {r.t: r for r in traj.records}
    for t, snap in zip(traj.times, traj.snapshots):
        rec = rec_by_t[t]
        try:
            crest = diagnostics.crest_position(snap)
        except ValueError:
            crest = math.nan
        fit_u = decay_fit(snap, window, side)
        fit_ux = decay_fit(derivative(snap, 1), window, side)
        rows.append(
            (t, rec.hs_norm, rec.h1_sq, rec.dt, crest, fit_u.theta_hat, fit_ux.theta_hat, fit_u.r2, fit_u.floor_hit)
        )
    return rows


DIAG_HEADER = ("t", "hs_norm", "h1_sq", "dt", "crest_x", "theta_hat_u", "theta_hat_ux", "r2", "floor_hit")
PARTICLE_HEADER = ("seed", "t", "eta", "eta_x", "m_along", "invariant_residual")


def _sim_config(spec: RunSpec, params: Params, t_end) -> SimConfig:
    """SimConfig from the spec's grid and stepping keys."""
    c = spec.config
    return SimConfig(
        params=params,
        grid=spec.grid,
        t_end=float(t_end),
        cfl_safety=float(c["cfl_safety"]),
        dt_max=float(c["dt_max"]),
        output_stride=int(c["output_stride"]),
        sobolev_s=float(c["sobolev_s"]),
        spectral_filter=bool(c["spectral_filter"]),
    )


def _run_simulation(spec: RunSpec) -> tuple[Trajectory, Field]:
    u0 = build_profile(spec)
    return simulate(_sim_config(spec, spec.params, spec.config["t_end"]), u0), u0


def _fit_window(spec: RunSpec):
    win = spec.config["fit"]["window"]
    if win is None:
        return default_tail_window(spec.grid)
    return (float(win[0]), float(win[1]))


def run_simulate(spec: RunSpec):
    traj, _ = _run_simulation(spec)
    window = _fit_window(spec)
    side = spec.config["fit"]["side"]
    rows = _snapshot_diag_rows(traj, window, side)
    _write_csv(os.path.join(spec.out_dir, "diagnostics.csv"), DIAG_HEADER, rows)
    write_snapshot(traj.snapshots[-1], os.path.join(spec.out_dir, "final.csv"))
    if spec.config["write_snapshots"]:
        for i, snap in enumerate(traj.snapshots):
            write_snapshot(snap, os.path.join(spec.out_dir, f"snap_{i:06d}.csv"))
    try:
        drift = diagnostics.h1_drift(traj)
    except ValueError:
        drift = math.nan
    summary = (
        traj.last_time,
        len(traj.records) - 1,
        traj.sup_hs,
        drift,
        traj.blew_up,
    )
    _write_csv(
        os.path.join(spec.out_dir, "summary.csv"),
        ("final_t", "steps", "sup_hs", "h1_drift", "blew_up"),
        [summary],
    )
    code = EXIT_BLOWUP if traj.blew_up else EXIT_OK
    return code, {"softbound": _softbound_record(traj), "final_t": traj.last_time, "blew_up": traj.blew_up}


def _peakon_case_row(spec: RunSpec, case: dict) -> tuple:
    """One speeds.csv row.  Its trajectory dies on return, so a
    peakon-verify run holds one case's snapshots at a time."""
    block = spec.config["peakon_verify"]
    p = resolve_params({k: v for k, v in case.items() if k != "gamma"})
    gamma = float(case.get("gamma", 1.0))
    grid = spec.grid
    moll = block["moll_width"]
    moll = float(moll) if moll is not None else grid.dx
    u0 = exact.peakon_initial_condition(gamma, moll, grid)
    traj = simulate(_sim_config(spec, p, block["t_end"]), u0)
    expected = PeakonSpec(gamma, p).speed
    measured = diagnostics.crest_track(traj)
    rel = abs(measured - expected) / abs(expected) if expected else math.nan
    return (case.get("preset", "custom"), gamma, expected, measured, rel)


def run_peakon_verify(spec: RunSpec):
    block = spec.config["peakon_verify"]
    cases = block["cases"]
    if cases is None:
        cases = [
            {"preset": "ch", "gamma": 1.0},
            {"preset": "dp", "gamma": 1.0},
            {"preset": "novikov", "gamma": math.sqrt(2.0)},
            {"preset": "forq", "gamma": 1.0},
        ]
    rows = [_peakon_case_row(spec, case) for case in cases]
    _write_csv(
        os.path.join(spec.out_dir, "speeds.csv"),
        ("preset", "gamma", "expected_speed", "measured_speed", "rel_err"),
        rows,
    )
    worst = max(r[4] for r in rows)
    _write_csv(
        os.path.join(spec.out_dir, "summary.csv"),
        ("n_cases", "worst_rel_err"),
        [(len(rows), worst)],
    )
    return EXIT_OK, {"worst_rel_err": worst}


def run_mms(spec: RunSpec):
    block = spec.config["mms"]
    amp = float(block["amplitude"])
    dt0 = float(block["dt0"])
    levels = int(block["levels"])
    t_end = float(block["t_end"])
    grid = spec.grid
    p = spec.params
    star = ManufacturedSolution(
        value=lambda x, t: amp * np.sin(x - t),
        dt_value=lambda x, t: -amp * np.cos(x - t),
    )
    forcing = mms_forcing(star, p, grid)
    u0 = Field(grid, star.value(grid.nodes, 0.0))
    errors, dts = [], []
    for lvl in range(levels):
        dt = dt0 / 2**lvl
        cfg = SimConfig(
            params=p, grid=grid, t_end=t_end, cfl_safety=1.0, dt_max=dt,
            output_stride=10**9, forcing=forcing,
        )
        traj = simulate(cfg, u0)
        exactf = star.value(grid.nodes, traj.last_time)
        errors.append(float(np.max(np.abs(traj.snapshots[-1].values - exactf))))
        dts.append(dt)
    rows = []
    for i, (dt, err) in enumerate(zip(dts, errors)):
        order = math.nan if i == 0 else math.log2(errors[i - 1] / err)
        rows.append((dt, err, order))
    _write_csv(os.path.join(spec.out_dir, "mms.csv"), ("dt", "final_max_error", "observed_order"), rows)
    _write_csv(
        os.path.join(spec.out_dir, "summary.csv"),
        ("finest_dt", "finest_error", "last_order"),
        [(dts[-1], errors[-1], rows[-1][2])],
    )
    return EXIT_OK, {"finest_error": errors[-1], "orders": [r[2] for r in rows[1:]]}


def run_decay_scan(spec: RunSpec):
    traj, _ = _run_simulation(spec)
    theta = float(spec.config["fit"]["theta"])
    window = _fit_window(spec)
    report = persistence_report(traj, theta, window=window, side=spec.config["fit"]["side"])
    rows = []
    for t, fu, fx in zip(report.times, report.fits_u, report.fits_ux):
        rows.append((t, fu.theta_hat, fu.r2, fu.floor_hit, fx.theta_hat, fx.r2, fx.floor_hit))
    _write_csv(
        os.path.join(spec.out_dir, "decay.csv"),
        ("t", "theta_hat_u", "r2_u", "floor_hit_u", "theta_hat_ux", "r2_ux", "floor_hit_ux"),
        rows,
    )
    extra = {
        "min_theta_u": report.min_theta_u,
        "min_theta_ux": report.min_theta_ux,
        "any_floor_hit": report.any_floor_hit,
        "reference_theta": theta,
    }
    _write_csv(
        os.path.join(spec.out_dir, "summary.csv"),
        tuple(extra),
        [tuple(extra.values())],
    )
    code = EXIT_BLOWUP if traj.blew_up else EXIT_OK
    return code, {"decay": extra, "softbound": _softbound_record(traj)}


def run_lagrangian(spec: RunSpec):
    traj, _ = _run_simulation(spec)
    block = spec.config["lagrangian"]
    grid = spec.grid
    if block["seeds"] is not None:
        seeds = np.asarray([float(s) for s in block["seeds"]])
    else:
        count = int(block["n_seeds"])
        seeds = grid.length / 2.0 + grid.length / 8.0 * np.linspace(-1.0, 1.0, count)
    ps = lagrangian.advect(traj, seeds)
    m_along = lagrangian.momentum_along(traj, ps)
    try:
        res = lagrangian.invariant_residuals(ps, m_along, spec.params)
        residual = float(np.max(res))
    except ValueError:  # off the a = 0, c = (3k - b)/2 subfamily
        res = np.full_like(m_along, math.nan)
        residual = None
    rows = []
    for j, t in enumerate(ps.times):
        for s in range(len(seeds)):
            rows.append((seeds[s], t, ps.paths[j][s], ps.stretch[j][s], m_along[j][s], res[j][s]))
    _write_csv(os.path.join(spec.out_dir, "particles.csv"), PARTICLE_HEADER, rows)
    _write_csv(
        os.path.join(spec.out_dir, "summary.csv"),
        ("max_invariant_residual", "n_seeds", "final_t"),
        [(residual if residual is not None else math.nan, len(seeds), traj.last_time)],
    )
    code = EXIT_BLOWUP if traj.blew_up else EXIT_OK
    return code, {"max_invariant_residual": residual, "softbound": _softbound_record(traj)}


def _expand_sweep(spec: RunSpec):
    axes = spec.config["sweep"]["axes"]
    if not axes:
        raise ConfigError("sweep requires sweep.axes")
    combos = [[]]
    for ax in axes:
        combos = [c + [(ax["key"], v)] for c in combos for v in ax["values"]]
    sub_specs = []
    for i, combo in enumerate(combos):
        cfg = copy.deepcopy(spec.config)
        cfg["sweep"] = dict(DEFAULT_CONFIG["sweep"])
        label_parts = []
        for dotted, value in combo:
            node = cfg
            keys = dotted.split(".")
            for key in keys[:-1]:
                node = node.setdefault(key, {})
            node[keys[-1]] = value
            label_parts.append(f"{keys[-1]}={value:g}" if isinstance(value, float) else f"{keys[-1]}={value}")
        name = f"sub_{i:03d}_" + "_".join(label_parts)
        sub_specs.append((name, cfg))
    return sub_specs


def _run_sweep_child(args):
    name, cfg, subcommand, out_dir = args
    sub_out = os.path.join(out_dir, name)
    os.makedirs(sub_out, exist_ok=True)
    spec = RunSpec(subcommand=subcommand, config=cfg, out_dir=sub_out)
    code = run(spec)
    return name, code


def run_sweep(spec: RunSpec):
    sub = spec.config["sweep"]["subcommand"]
    if sub not in SUBCOMMANDS or sub == "sweep":
        raise ConfigError(f"sweep.subcommand must be a non-sweep subcommand, got {sub!r}")
    tasks = [(name, cfg, sub, spec.out_dir) for name, cfg in _expand_sweep(spec)]
    workers = spec.config["sweep"]["workers"]
    workers = os.cpu_count() if workers is None else int(workers)
    results = []
    if workers > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_sweep_child, tasks))
    else:
        results = [_run_sweep_child(t) for t in tasks]
    # aggregate: copy each sub-run's summary row verbatim so aggregate rows
    # stay bitwise identical to the single-run outputs
    agg_lines = []
    header = None
    worst = EXIT_OK
    for name, code in results:
        worst = max(worst, code)
        path = os.path.join(spec.out_dir, name, "summary.csv")
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            lines = fh.read().splitlines()
        if header is None:
            header = "run," + lines[0]
            agg_lines.append(header)
        for ln in lines[1:]:
            agg_lines.append(f"{name},{ln}")
    with open(os.path.join(spec.out_dir, "aggregate.csv"), "w") as fh:
        fh.write("\n".join(agg_lines) + ("\n" if agg_lines else ""))
    return worst, {"sub_runs": [name for name, _ in results]}


_RUNNERS = {
    "simulate": run_simulate,
    "peakon-verify": run_peakon_verify,
    "mms": run_mms,
    "decay-scan": run_decay_scan,
    "lagrangian": run_lagrangian,
    "sweep": run_sweep,
}


def run(spec: RunSpec) -> int:
    """Execute a resolved RunSpec, writing artifacts under spec.out_dir."""
    os.makedirs(spec.out_dir, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    result: dict = {"exit": EXIT_OK}
    code = EXIT_OK
    try:
        code, extras = _RUNNERS[spec.subcommand](spec)
        result["exit"] = code
        result.update(extras)
    except (dynamics.BlowUpError, lagrangian.WaveBreakingError) as err:
        result = {"exit": EXIT_BLOWUP, "error": str(err)}
        code = EXIT_BLOWUP
    manifest = _manifest(spec, started, time.perf_counter() - t0, result)
    _write_manifest(spec.out_dir, manifest)
    return code


def _out_dir(arg_out, subcommand) -> str:
    if arg_out:
        return arg_out
    root = os.environ.get(OUT_ROOT_ENV, "runs")
    return os.path.join(root, subcommand)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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
        sp.add_argument("--workers", default=None, type=int, help="sweep worker pool size")
    args = parser.parse_args(argv)
    try:
        if args.workers is not None and args.subcommand != "sweep":
            raise ConfigError(f"--workers applies only to sweep, not {args.subcommand}")
        spec = parse_config(args.config, args.set, args.subcommand, _out_dir(args.out, args.subcommand))
        if args.workers is not None:
            spec.config["sweep"]["workers"] = args.workers
    except ConfigError as err:
        print(f"kabc: configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run(spec)
    except ConfigError as err:
        print(f"kabc: configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"kabc: I/O error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
