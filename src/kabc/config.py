"""Configuration: every key's default and typed reader (``_KEYS``), and
``resolve``, the one path from a config dict to a ``RunSpec``.  It touches
no file: ``cli.parse_config`` reads the config file and calls ``resolve``.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import diagnostics, dynamics, params as params_mod
from .dynamics import SimConfig
from .params import Params, preset
from .spectral import Grid

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


def _integer(lo: int = 1, hi: int | None = None):
    """An integer >= lo, and <= hi when hi is given, read by the rule of
    params.as_int."""
    def read(value, key):
        try:
            n = params_mod.as_int(value, key)
            if lo <= n and (hi is None or n <= hi):
                return n
        except (TypeError, ValueError):
            pass
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{key} must be an integer {bound}, got {value!r}")
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
# A case's crest is tracked: diagnostics.crest_position is NaN, which stops the
# case, for a field of range at most 1e-13 max(1, |max|), so a case starts a decade above
CASE_GAMMA_MIN = 1e-12
_CASE_GAMMA = _real(f"in [{CASE_GAMMA_MIN:g}, {GAMMA_MAX:g}]", lambda x: CASE_GAMMA_MIN <= x <= GAMMA_MAX)
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


# Every config key, dotted: (default, reader).  reader(value, key) is the
# typed value or a ConfigError naming key; every scalar key is read on every
# run, used or not.  None marks a structured key, read by its own reader
# below: params on every run, sweep.axes by sweep only, fit.window by
# simulate only, and the others by every run but a sweep.
_KEYS = {
    "params": ({"preset": "ch"}, None),
    "grid.n": (512, _grid_n),
    # below a normal double the spacing L/n can round to 0 and the wavenumbers
    # to inf * 0, so no weight of the H^3 norm (see _check_box) can be formed
    "grid.length": (40.0 * math.pi, _real(f">= {sys.float_info.min!r}", lambda x: x >= sys.float_info.min)),
    "profile": ({"shape": "peakon", "gamma": 1.0}, None),
    "t_end": (1.0, _T_END),
    "dt_max": (1e-2, _POSITIVE),
    "output_stride": (1, _integer()),
    "write_snapshots": (False, _flag),
    "fit.window": (None, None),
    "peakon_verify.cases": (None, None),
    "peakon_verify.t_end": (5.0, _T_END),
    # a zero amplitude has a zero error, so no observed order
    "mms.amplitude": (0.1, _real("nonzero", lambda x: x != 0.0)),
    "mms.dt0": (0.0625, _POSITIVE),
    # each level halves dt, and at 4th order 12 levels span more than 14
    # decades of error, past double precision
    "mms.levels": (5, _integer(1, 12)),
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


def set_dotted(cfg: dict, dotted: str, value) -> None:
    """Set a dotted key (a --set override or a sweep axis) in cfg."""
    node = cfg
    keys = dotted.split(".")
    if "" in keys:
        raise ConfigError(f"config key {dotted!r} has an empty part")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-mapping key {key!r}")
    node[keys[-1]] = value


DEFAULT_CONFIG: dict = {}
for _key in _KEYS:
    set_dotted(DEFAULT_CONFIG, _key, _KEYS[_key][0])


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
        win, name = diagnostics.default_tail_window(grid), "fit.window (default [L/8, L/4])"
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


def _check_box(grid: Grid) -> None:
    """Every run measures the H^SOBOLEV_S norm of its states: on a box so
    small that one of its weights (diagnostics.sobolev_weight) is not
    finite, the norm would read inf * 0."""
    if not np.all(np.isfinite(diagnostics.sobolev_weight(grid, dynamics.SOBOLEV_S))):
        raise ConfigError(f"grid.length must keep the H^{dynamics.SOBOLEV_S:g} norm's weights "
                          f"(1 + xi^2)^{dynamics.SOBOLEV_S:g} finite at n = {grid.n}, got {grid.length!r}")


def _check_mms_box(grid: Grid, p: Params) -> None:
    """An mms study's wave A sin(x - t) is periodic on the box only when
    grid.length is 2 pi j for an integer j >= 1 (to 1e-12 relative), and its
    forcing, a phase shift of one right-hand side (dynamics.mms_forcing), is
    exact only while the degree-(k+1) harmonics of sin x, up to mode
    (k+1) j, stay below n/2."""
    turns = grid.length / (2.0 * math.pi)
    j = round(turns)
    if j < 1 or abs(turns - j) > 1e-12 * turns:
        raise ConfigError(f"grid.length must be 2*pi times an integer >= 1 for mms, so that A sin(x - t) is "
                          f"periodic on the box, got {grid.length!r}")
    if 2 * (p.k + 1) * j >= grid.n:
        raise ConfigError(f"grid.n must exceed 2 (k+1) j = {2 * (p.k + 1) * j} for mms on a box of {j} "
                          f"periods, so that the harmonics of sin x stay below n/2, got {grid.n}")


def _sweep_points(cfg: dict, vals: dict, out_dir: str) -> tuple:
    """(name, RunSpec) of every point of the product of the sweep axes, each
    resolved by resolve as the single run of sweep.subcommand whose config
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
                set_dotted(point, key, value)
            points.append((name, resolve(vals["sweep.subcommand"], point, os.path.join(out_dir, name))))
        except ConfigError as err:
            raise ConfigError(f"sweep point {name}: {err}") from None
    return tuple(points)


def resolve(subcommand: str, cfg: dict, out_dir: str) -> RunSpec:
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
    # peakon-verify and mms have their own t_end
    t_end = {"peakon-verify": vals["peakon_verify.t_end"], "mms": vals["mms.t_end"]}.get(subcommand, vals["t_end"])
    spec = RunSpec(
        subcommand=subcommand, config=cfg, out_dir=out_dir,
        sim=SimConfig(params=p, grid=grid, t_end=t_end, dt_max=vals["dt_max"], output_stride=vals["output_stride"]),
        write_snapshots=vals["write_snapshots"],
        mms=(vals["mms.amplitude"], vals["mms.dt0"], vals["mms.levels"]),
        workers=vals["sweep.workers"] or os.cpu_count() or 1,
    )
    if subcommand == "sweep":
        return replace(spec, points=_sweep_points(cfg, vals, out_dir))
    _check_box(grid)
    spec = replace(spec, profile=_profile(vals, grid), peakon_cases=_peakon_cases(vals),
                   seeds=_lagrangian_seeds(vals, grid))
    # the default fit window needs n >= 128, finer than an mms run needs
    if subcommand == "simulate":
        spec = replace(spec, fit_window=_fit_window(vals, grid))
    if subcommand == "mms":
        _check_mms_box(grid, p)
        # a longer dt0 would give its first levels one step of t_end each
        if vals["mms.dt0"] > t_end:
            raise ConfigError(f"mms.dt0 must be at most mms.t_end = {t_end!r}, got {vals['mms.dt0']!r}")
    return spec


