import concurrent.futures
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kabc.cli import (
    ARTIFACT_NAME,
    CSV_BLOCK_ROWS,
    ConfigError,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    SUBCOMMANDS,
    RunSpec,
    _RUNNERS,
    _Keyed,
    _write_csv,
    build_profile,
    compute_lagrangian,
    compute_mms,
    main,
    parse_config,
    read_snapshot,
    run,
    write_snapshot,
)
from kabc.config import DEFAULT_CONFIG, _KEYS, _PROFILE_SHAPES
from kabc.params import _FIXED_PRESETS, preset
from kabc.spectral import Field, Grid, get_ops
from oracles import momentum_along


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def refuse_constant(token):
    # strict parsers (jq among them) reject NaN and Infinity tokens
    raise ValueError(f"{token} is not JSON")


def manifest_of(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh, parse_constant=refuse_constant)


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        path = write_config(tmp_path, {"params": {"preset": "ch"}, "profile": {"shape": "peakon", "gamma": 1.0}})
        spec = parse_config(path, [], "simulate", str(tmp_path / "out"))
        assert spec.config["grid"]["n"] == 512
        assert spec.config["grid"]["length"] == pytest.approx(40 * math.pi)
        assert spec.config["output_stride"] == 1
        assert spec.config["dt_max"] == 1e-2
        assert spec.sim.params.k == 1

    def test_invalid_params_surface_with_message(self, tmp_path):
        path = write_config(tmp_path, {"params": {"k": 1, "a": 0.5, "b": 2.0, "c": 1.0}})
        with pytest.raises(ConfigError, match="k >= 2"):
            parse_config(path, [], "simulate")

    def test_unknown_keys_fatal_and_listed(self, tmp_path):
        path = write_config(tmp_path, {"params": {"preset": "ch"}, "gird": {"n": 64}, "profile": {"shpae": "bump"}})
        with pytest.raises(ConfigError) as err:
            parse_config(path, [], "simulate")
        assert "gird" in str(err.value)
        assert "profile.shpae" in str(err.value)

    def test_set_overrides_file(self, tmp_path):
        path = write_config(tmp_path, {"params": {"preset": "ch"}, "t_end": 2.0})
        spec = parse_config(path, ["t_end=0.25", "grid.n=128"], "simulate")
        assert spec.config["t_end"] == 0.25
        assert spec.config["grid"]["n"] == 128

    def test_numbers_parse_as_doubles(self, tmp_path):
        spec = parse_config(None, ["dt_max=1e-3", "params.preset=\"novikov\""], "simulate")
        assert spec.config["dt_max"] == 1e-3
        assert spec.sim.params.k == 2

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/config.json", [], "simulate")

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["simulate"], '{"t_end": ', "malformed config file {path}: Expecting value: line 1 column 11 (char 10)"),
            (["simulate"], "[1, 2]", "config file must hold a JSON object"),
            (["simulate", "--set", "t_end"], None, "--set expects key=value, got 't_end'"),
            (["simulate", "--set", "grid=5"], None, "grid must be an object, got 5"),
            (["simulate", "--set", 'params={"k": 2, "a": 0, "c": 1}'], None, "params block is missing 'b'"),
            (["peakon-verify", "--set", "peakon_verify.cases=[5]"], None,
             "peakon_verify.cases[0] 5: a case must be an object"),
            (["simulate", "--set", 'params={"preset": "ch", "k": 2}'], None,
             "invalid parameters: preset 'ch' takes no free parameters"),
            (["simulate", "--set", 'params={"preset": "gkbch", "k": 2, "b": 1, "a": 0}'], None,
             "invalid parameters: unexpected parameters for gkbch: ['a']"),
            (["simulate", "--set", 'params={"preset": "ab", "a": 0, "b": 1, "k": 2}'], None,
             "invalid parameters: unexpected parameters for ab: ['k']"),
        ],
        ids=["malformed-file", "file-not-object", "set-without-value", "grid-not-object", "params-missing-b",
             "case-not-object", "ch-given-k", "gkbch-given-a", "ab-given-k"],
    )
    def test_rejection_exits_3_with_its_message(self, tmp_path, capsys, argv, text, message):
        out, path = tmp_path / "out", tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
            argv = argv + ["--config", str(path)]
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"kabc: configuration error: {message.format(path=path)}\n"
        assert not out.exists()

    def test_unknown_subcommand(self):
        # the command line names only known ones; parse_config checks its argument too
        with pytest.raises(ConfigError, match="^unknown subcommand 'bogus'$"):
            parse_config(None, [], "bogus")

    def test_sweep_expansion(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "params": {"preset": "gkbch", "k": 2, "b": 0.0},
                "sweep": {"axes": [{"key": "params.b", "values": [0.0, 1.0, 2.0, 3.0]}]},
            },
        )
        spec = parse_config(path, [], "sweep")
        assert len(spec.points) == 4
        assert [point.sim.params.b for _, point in spec.points] == [0.0, 1.0, 2.0, 3.0]
        assert [name for name, _ in spec.points] == ["sub_000_b=0", "sub_001_b=1", "sub_002_b=2", "sub_003_b=3"]


    def test_k1_off_family_rejected_at_parse(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--set", 'params={"k":1,"a":0,"b":3,"c":1.5}', "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "u^{k-2} u_x^3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ['"2"', "2.5"])
    def test_gkbch_bad_k_named(self, tmp_path, capsys, k):
        out = tmp_path / "out"
        code = main(["simulate", "--set", f'params={{"preset":"gkbch","k":{k},"b":1}}', "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "k must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis, message",
        [
            ({"key": "grid.n", "values": [64]},
             "fit.window (default [L/8, L/4]): fit window spans fewer than 16 grid spacings"),
            ({"key": "bogus", "values": [1]}, "unknown config keys: bogus"),
            ({"key": "t_end.x", "values": [1]}, "cannot override through non-mapping key 't_end'"),
            ({"key": "t_end", "values": 0.5}, "each sweep axis needs a string key and a non-empty values list"),
            ({"key": 5, "values": [1]}, "each sweep axis needs a string key and a non-empty values list"),
            ({"key": "", "values": [1]}, "config key '' has an empty part"),
        ],
        ids=["fit-window", "unknown-key", "non-mapping", "values-not-list", "key-not-string", "empty-key"],
    )
    def test_sweep_point_fails_as_the_single_run(self, tmp_path, capsys, axis, message):
        # a valid axis point fails with the message of the single run that
        # takes the sweep's base config with the axis value set
        config = write_config(tmp_path, {"t_end": 0.5})
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", config, "--set", f"sweep.axes={json.dumps([axis])}", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert not out.exists()
        if isinstance(axis["key"], str) and isinstance(axis["values"], list):
            assert re.fullmatch(rf"kabc: configuration error: sweep point sub_000_\S+: {re.escape(message)}\n", err)
            single = tmp_path / "single"
            argv = ["simulate", "--config", config, "--set", f"{axis['key']}={json.dumps(axis['values'][0])}"]
            assert main(argv + ["--out", str(single)]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"kabc: configuration error: {message}\n"
            assert not single.exists()
        else:
            assert err == f"kabc: configuration error: {message}, got {axis!r}\n"

    def test_sweep_point_rejected_at_parse(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main([
            "sweep",
            "--set", 'params={"k":2,"a":0,"b":3,"c":1.5}',
            "--set", 'sweep.axes=[{"key":"params.k","values":[2,1,3]}]',
            "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert "u^{k-2} u_x^3" in capsys.readouterr().err
        assert not out.exists()  # so no sub_* run directory either

    @pytest.mark.parametrize(
        "case, message",
        [
            ({"preset": "nope"}, "unknown preset 'nope'"),
            ({"preset": "ch", "gamma": 1.0, "width": 2.0}, "unknown keys ['width']"),
            ({"preset": "ch", "gamma": 0}, "gamma must be finite and in [1e-12, 1e+140], got 0"),
            ({"preset": "ch", "gamma": -1}, "gamma must be finite and in [1e-12, 1e+140], got -1"),
            ({"preset": "ch", "gamma": 1e153}, "gamma must be finite and in [1e-12, 1e+140], got 1e+153"),
            # below 1e-12 the case's crest would read as a flat field
            ({"preset": "ch", "gamma": 1e-13}, "gamma must be finite and in [1e-12, 1e+140], got 1e-13"),
        ],
        ids=["unknown-preset", "extra-key", "gamma-zero", "gamma-negative", "gamma-above-bound", "gamma-below-bound"],
    )
    @pytest.mark.parametrize("subcommand", ["peakon-verify", "sweep"])
    def test_peakon_case_rejected_at_parse(self, tmp_path, capsys, case, message, subcommand):
        out = tmp_path / "out"
        argv = [subcommand, "--set", f"peakon_verify.cases={json.dumps([case])}", "--out", str(out)]
        if subcommand == "sweep":
            axes = [{"key": "peakon_verify.t_end", "values": [1.0, 2.0]}]
            argv += ["--set", 'sweep.subcommand="peakon-verify"', "--set", f"sweep.axes={json.dumps(axes)}"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"peakon_verify.cases[0] {json.dumps(case)}: " in err
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand, overrides, key",
        [
            # grid.n = 64 is too coarse for the default fit window
            ("simulate", ["grid.n=64"], "fit.window (default [L/8, L/4]): fit window spans fewer than 16"),
            ("simulate", ["t_end=-1"], "t_end"),
            ("simulate", ["dt_max=0"], "dt_max"),
            ("simulate", ["output_stride=0"], "output_stride"),
            ("peakon-verify", ["peakon_verify.t_end=0"], "t_end"),
            ("mms", ["mms.levels=0"], "mms.levels"),
            ("mms", ["mms.dt0=0"], "mms.dt0"),
            ("mms", ["mms.dt0=-0.5"], "mms.dt0"),
            ("mms", ["mms.t_end=-1"], "t_end"),
            ("lagrangian", ["lagrangian.seeds=[]"], "lagrangian.seeds"),
            ("lagrangian", ["lagrangian.seeds=[1.0, NaN]"], "lagrangian.seeds"),
            ("lagrangian", ["lagrangian.seeds=[1.0, Infinity]"], "lagrangian.seeds"),
            # a sweep axis may not set a deleted key, even to its one value
            ("sweep", ['sweep.axes=[{"key": "cfl_safety", "values": [0.4]}]'], "cfl_safety"),
            ("sweep", ['sweep.subcommand="sweep"', 'sweep.axes=[{"key": "t_end", "values": [1]}]'], "sweep.subcommand"),
            ("simulate", ["grid.length=0"], "grid.length"),
            # below a normal double a box's wavenumbers cannot be formed
            ("lagrangian", ["grid.length=5e-324", "grid.n=8"],
             "grid.length must be finite and >= 2.2250738585072014e-308"),
            ("simulate", ["grid.length=1e-310"], "grid.length must be finite and >= 2.2250738585072014e-308"),
            ("simulate", ["dt_max=Infinity"], "dt_max"),
            ("mms", ['mms.amplitude="x"'], "mms.amplitude"),
            ("mms", ["mms.amplitude=0"], "mms.amplitude"),
            ("simulate", ["fit.window=[5, 60]"], "fit.window: fit window too close to the wrap-around seam"),
            ("simulate", ["profile.gamma=-1e141"], "profile.gamma must be finite and at most 1e+140 in magnitude"),
            ("peakon-verify", ["peakon_verify.cases=[]"], "peakon_verify.cases"),
            ("simulate", ['profile.gamma="x"'], "profile.gamma"),
            ("simulate", ['profile={"shape": "bump", "width": 0}'], "profile.width"),
            ("simulate", ['profile={"shape": "exp_tail", "theta": -1}'], "profile.theta"),
            ("lagrangian", ['profile={"shape": "bump", "width": 100}'], "profile.width"),
            ("simulate", ['profile={"shape": "file"}'], "profile.path"),
            ("simulate", ['profile="peakon"'], "profile"),
            ("sweep", ['sweep.axes=[{"key": "fit.side", "values": ["right"]}]'], "fit.side"),
            ("sweep", ['sweep.axes=[{"key": "sobolev_s", "values": [3]}]'], "sobolev_s"),
            ("simulate", ['spectral_filter="no"'], "spectral_filter"),
            ("mms", ["spectral_filter=1"], "spectral_filter"),
            ("simulate", ['write_snapshots="no"'], "write_snapshots"),
            ("simulate", ["fit.window=5"], "fit.window"),
            ("simulate", ['fit.window=["a", 3]'], "fit.window"),
            ("simulate", ["fit.window=[11, 5]"], "fit.window"),
            ("simulate", ["fit.window=[5, 11, 12]"], "fit.window"),
            ("simulate", ['params="ch"'], "params"),
            ("sweep", ['sweep.workers="x"', 'sweep.axes=[{"key": "t_end", "values": [1]}]'], "sweep.workers"),
            ("sweep", ["sweep.workers=0", 'sweep.axes=[{"key": "t_end", "values": [1]}]'], "sweep.workers"),
            ("sweep", ["sweep.workers=2.5", 'sweep.axes=[{"key": "t_end", "values": [1]}]'], "sweep.workers"),
            ("simulate", ["output_stride=2.5"], "output_stride"),
            ("simulate", ["grid.n=128.7"], "grid.n"),
            ("mms", ["mms.levels=2.9"], "mms.levels"),
            ("simulate", ['dt_max="x"'], "dt_max"),
            ("simulate", ['output_stride="x"'], "output_stride"),
            ("simulate", ["t_end.x=1"], "t_end"),
            ("lagrangian", ["t_end=1e-13", "grid.n=64"], "t_end"),
            ("peakon-verify", ["peakon_verify.t_end=1e-13", "grid.n=256"], "peakon_verify.t_end"),
            ("mms", ["mms.t_end=1e-13", "grid.n=32"], "mms.t_end"),
            ("simulate", ["grid.n=1e300"], "grid.n"),
            ("simulate", ["grid.n=1" + "0" * 400], "grid.n"),
            ("simulate", ["grid.n=129"], "grid.n"),
            ("simulate", [f"grid.n={2**24 + 2}"], "grid.n"),
            # every run but a sweep reads profile, peakon_verify.cases and
            # lagrangian.seeds, used or not
            ("mms", ['profile={"shape": "nope"}', "grid.n=32", "mms.levels=2"], "profile shape 'nope'"),
            ("peakon-verify", ['profile={"shape": "exp_tail", "theta": 0}'], "profile.theta"),
            ("peakon-verify", ['profile={"shape": "bump", "width": -1}'], "profile.width"),
            ("mms", ['lagrangian.seeds="x"', "grid.n=32", "mms.levels=2"], "lagrangian.seeds"),
            ("simulate", ['peakon_verify.cases=[{"preset": "nope"}]'], "peakon_verify.cases[0]"),
            # each level halves dt, so mms.levels has a ceiling (12)
            ("mms", ["mms.levels=13"], "mms.levels"),
            # a profile block holds only the keys its shape reads
            ("simulate", ['profile={"shape": "bump", "width": 2, "moll_width": 1}'],
             "unknown config keys: profile.moll_width"),
            ("simulate", ['profile={"shape": "exp_tail", "gamma": 2}'], "unknown config keys: profile.gamma"),
            ("simulate", ['profile={"shape": "peakon", "path": "x"}'], "unknown config keys: profile.path"),
            ("simulate", ['profile={"shape": "file", "path": "u0.csv", "gamma": 1}'],
             "unknown config keys: profile.gamma"),
            # a seed must lie in the box [0, grid.length)
            ("lagrangian", ["lagrangian.seeds=[1e300]"], "lagrangian.seeds"),
            # mms.levels has a floor too, and a dotted key names each of its parts
            ("mms", ["mms.levels=0"], "mms.levels must be an integer in [1, 12], got 0"),
            ("simulate", ["grid.n.=5"], "config key 'grid.n.' has an empty part"),
            # a fit window on the left tail, or through the crest
            ("simulate", ["fit.window=[-60, -40]"], "fit.window: fit window must lie right of the box center"),
            ("simulate", ["fit.window=[-10, 10]"], "fit.window: fit window must lie right of the box center"),
            # A sin(x - t) is periodic only on a box of whole periods, and
            # its harmonics up to mode (k+1) j must stay below n/2
            ("mms", ["grid.length=10", "grid.n=64"], "grid.length must be 2*pi times an integer >= 1"),
            ("mms", ["grid.n=64"], "grid.n must exceed 2 (k+1) j = 80"),
            # a dt0 above t_end would step each early level once, by t_end
            ("mms", ["mms.dt0=10"], "mms.dt0 must be at most mms.t_end = 1.0, got 10.0"),
            ("mms", ["mms.dt0=1.5"], "mms.dt0 must be at most mms.t_end = 1.0, got 1.5"),
        ],
    )
    def test_stepping_and_study_keys_rejected_at_parse(self, tmp_path, capsys, subcommand, overrides, key):
        out = tmp_path / "out"
        argv = [subcommand, "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("kabc: configuration error: ")
        assert key in err
        assert "Traceback" not in err
        assert not out.exists()


def test_grid_n_ceiling_is_inclusive():
    # reading a size allocates nothing; 2**24 + 2 is a row of the test above
    assert _KEYS["grid.n"][1](2**24, "grid.n") == 2**24


def test_mms_dt0_may_equal_t_end():
    # dt0 = 10 and 1.5 at t_end 1 are rows of the test above
    assert parse_config(None, ["mms.dt0=0.5", "mms.t_end=0.5"], "mms").mms[1] == 0.5


def test_gamma_ceiling_is_inclusive():
    # 1e153 and -1e141 are rows of the tests above
    cases = '[{"preset": "ch", "gamma": 1e140}]'
    spec = parse_config(None, ["profile.gamma=-1e140", f"peakon_verify.cases={cases}"], "simulate")
    assert spec.profile[1] == -1e140 and spec.peakon_cases[0][2] == 1e140


def test_smallest_peakon_case_runs(tmp_path):
    # 1e-13 is a row of the tests above; at 1e-12 the crest still reads
    out = tmp_path / "pk"
    argv = ["peakon-verify", "--out", str(out), "--set", "grid.n=64", "--set", "peakon_verify.t_end=0.05",
            "--set", 'peakon_verify.cases=[{"preset": "ch", "gamma": 1e-12}]']
    assert main(argv) == EXIT_OK
    assert manifest_of(out)["result"]["exit"] == EXIT_OK
    assert math.isfinite(float((out / "speeds.csv").read_text().splitlines()[1].split(",")[3]))


def test_mms_levels_ceiling_is_inclusive():
    # 13 is a row of the test above
    assert _KEYS["mms.levels"][1](12, "mms.levels") == 12


@pytest.mark.parametrize(
    "length, n, key",
    [
        # FORQ (k = 2) on two periods: modes up to 6 must stay below n/2
        (4 * math.pi, 14, None),
        (4 * math.pi, 12, "grid.n"),
        (4 * math.pi * (1 + 5e-13), 14, None),
        (4 * math.pi * (1 + 2e-12), 14, "grid.length"),
        (math.pi, 64, "grid.length"),
    ],
)
def test_mms_box_bounds(length, n, key):
    overrides = ['params.preset="forq"', f"grid.length={length!r}", f"grid.n={n}"]
    if key is None:
        assert parse_config(None, overrides, "mms").sim.grid.n == n
    else:
        with pytest.raises(ConfigError, match=f"^{key} must"):
            parse_config(None, overrides, "mms")


@pytest.mark.parametrize("x_hi, ok", [(26.0, True), (25.999999, False)])
def test_fit_window_of_exactly_16_grid_spacings(x_hi, ok):
    # dx = 1 on this grid, so [10, 26] spans exactly 16 spacings
    overrides = ["grid.n=512", "grid.length=512", f"fit.window=[10, {x_hi}]"]
    if ok:
        assert parse_config(None, overrides, "simulate").fit_window == (10.0, x_hi)
    else:
        with pytest.raises(ConfigError, match="fit window spans fewer than 16 grid spacings"):
            parse_config(None, overrides, "simulate")


class TestParseFuzz:
    # values on each side of every bound in the key table (0, 1 and the t_end
    # floor 1e-12 for the reals, 1, 8 and 12 for the integers), and wrong-typed values
    EDGES = (0, 1, -1, 0.5, 1.5, -0.0, 1e-300, 1e-12, 2e-12, 7, 8, 9, 10, 12, 13, 2.5, "x", "left", True, False, None,
             math.nan, math.inf, -math.inf, {"x": 1}, [1.0], [5.0, 11.0])
    INTEGER_KEYS = ("grid.n", "output_stride", "mms.levels", "sweep.workers")

    @staticmethod
    def rejected(key, value):
        """Whether the table's reader of key rejects value on its own."""
        read = _KEYS[key][1]
        try:
            read(value, key)
        except ConfigError:
            return True
        return False

    @settings(max_examples=300, deadline=None)
    @given(
        subcommand=st.sampled_from(SUBCOMMANDS),
        changes=st.lists(
            st.sampled_from(sorted(_KEYS)).flatmap(
                lambda key: st.tuples(st.just(key), st.sampled_from((_KEYS[key][0],) + TestParseFuzz.EDGES))
            ),
            max_size=3,
        ),
    )
    def test_parse_gives_a_spec_or_a_config_error_naming_the_key(self, subcommand, changes):
        changes = dict(changes)
        overrides = ['sweep.axes=[{"key": "t_end", "values": [0.5]}]']
        overrides += [f"{key}={json.dumps(value)}" for key, value in changes.items()]
        bad = []
        for key, value in changes.items():
            if _KEYS[key][1] is None:
                continue
            # a string is the right type for the choice keys only, whose default is a string
            wrong_type = isinstance(value, (dict, list)) or (isinstance(value, float) and not math.isfinite(value))
            wrong_type |= isinstance(value, str) and not isinstance(_KEYS[key][0], str)
            if wrong_type or (key in self.INTEGER_KEYS and value == 2.5):
                assert self.rejected(key, value), (key, value)
            if self.rejected(key, value):
                bad.append(key)
        try:
            spec = parse_config(None, overrides, subcommand, "out")
        except ConfigError as err:
            # a changed structured key (params, profile, ...) may fail first,
            # under its own message
            structured = any(_KEYS[key][1] is None for key in changes)
            assert not bad or structured or any(key in str(err) for key in bad), (bad, str(err))
        else:
            assert isinstance(spec, RunSpec)
            assert not bad


class TestCsvWriter:
    SPECIAL = (
        math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456789012345678.0,
    )

    @staticmethod
    def fmt_loop_bytes(header, table):
        """Bytes of the value-by-value _fmt path for the same rows."""
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "loop.csv")
            _write_csv(path, header, [tuple(row) for row in table])
            return open(path, "rb").read()

    @settings(max_examples=40, deadline=None)
    @given(
        ncols=st.integers(1, 3),
        nrows=st.sampled_from([1, 2, 7, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]),
        pool=st.lists(st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40),
        pick=st.integers(0, 2**32 - 1),
    )
    def test_array_path_writes_the_fmt_bytes(self, ncols, nrows, pool, pick):
        values = np.array(pool + list(self.SPECIAL))
        table = values[np.random.default_rng(pick).integers(len(values), size=(nrows, ncols))]
        header = tuple(f"c{i}" for i in range(ncols))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "array.csv")
            _write_csv(path, header, table)
            got = open(path, "rb").read()
        assert got == self.fmt_loop_bytes(header, table)

    @settings(max_examples=40, deadline=None)
    @given(
        n_keys=st.integers(1, 5),
        n_body=st.integers(1, 4),
        nrows=st.sampled_from([1, 2, 7, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]),
        pool=st.lists(st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40),
        pick=st.integers(0, 2**32 - 1),
    )
    def test_keyed_path_writes_the_fmt_bytes(self, n_keys, n_body, nrows, pool, pick):
        # a particle block formats its keys (the seeds) and each state's time
        # once, and its body row by row, into _fmt's bytes
        values = np.array(pool + list(self.SPECIAL))
        rng = np.random.default_rng(pick)

        def draw(*shape):
            return values[rng.integers(len(values), size=shape)]

        n_states = -(-nrows // n_keys)
        keys, times, body = draw(n_keys), draw(n_states), draw(n_states * n_keys, n_body)
        table = np.column_stack((np.tile(keys, n_states), np.repeat(times, n_keys), body))
        header = tuple(f"c{i}" for i in range(table.shape[1]))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "keyed.csv")
            _write_csv(path, header, _Keyed(keys, times.tolist(), body))
            got = open(path, "rb").read()
        assert got == self.fmt_loop_bytes(header, table)

    def test_large_table_memory_is_bounded(self, tmp_path):
        # the bound is fixed ahead of the measurement; a list of 600k numpy
        # scalars alone is about 29 MB
        table = np.random.default_rng(0).normal(size=(100_000, 6))
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "big.csv", tuple("abcdef"), table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert len((tmp_path / "big.csv").read_text().splitlines()) == 100_001

    def test_streamed_snapshot_memory_is_bounded(self, tmp_path, monkeypatch):
        # the rows simulate streams for a state of 100,000 nodes, as its
        # writer process gets them, are written in the same bound
        from kabc import cli

        class Sent(Exception):
            pass

        sent = []

        def send(writer, *message):  # keeps the first snapshot and ends the run
            sent.append(message)
            raise Sent

        monkeypatch.setattr(cli._CsvWriter, "send", send)
        spec = parse_config(None, ["grid.n=100000", "write_snapshots=true"], "simulate", str(tmp_path / "out"))
        with pytest.raises(Sent):
            cli.compute_simulate(spec)
        [(name, header, rows)] = sent
        assert name == "snap_000000.csv"
        tracemalloc.start()
        try:
            _write_csv(tmp_path / name, header, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20  # the bound of an array table above
        assert read_snapshot(tmp_path / name, spec.sim.grid).values.shape == (100_000,)


class TestSnapshotIO:
    def test_roundtrip_bitwise(self, tmp_path):
        g = Grid(64, 2 * np.pi)
        f = Field(g, np.sin(g.nodes) * 1.0e-7 + np.cos(3 * g.nodes))
        path = tmp_path / "snap.csv"
        write_snapshot(f, path)
        back = read_snapshot(path, grid=g)
        assert np.array_equal(back.values, f.values)

    def test_row_count_mismatch(self, tmp_path):
        g = Grid(64, 2 * np.pi)
        f = Field(g, np.zeros(64))
        path = tmp_path / "snap.csv"
        write_snapshot(f, path)
        with pytest.raises(ValueError, match="grid mismatch"):
            read_snapshot(path, grid=Grid(128, 2 * np.pi))

    def test_nan_node_positions(self, tmp_path, capsys):
        # |nan - x| > tol is False, so NaN positions must fail as a mismatch
        path = tmp_path / "snap.csv"
        path.write_text("x,u\n" + "nan,0\n" * 128)
        with pytest.raises(ValueError, match="grid mismatch: node positions differ"):
            read_snapshot(path, grid=Grid(128, 2 * np.pi))
        out = tmp_path / "out"
        argv = ["simulate", "--set", f'profile={{"shape": "file", "path": "{path}"}}', "--set", "grid.n=128",
                "--set", f"grid.length={2 * np.pi}", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "grid mismatch: node positions differ" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [("1,2,3", "expected 2 columns"), ("abc,1", "non-numeric row")])
    def test_malformed_rows_exit_3_with_the_error_in_the_manifest(self, tmp_path, capsys, row, message):
        path, out = tmp_path / "u0.csv", tmp_path / "out"
        path.write_text(f"x,u\n{row}\n")
        profile = json.dumps({"shape": "file", "path": str(path)})
        assert main(["simulate", "--set", "grid.n=128", "--set", f"profile={profile}", "--out", str(out)]) == EXIT_CONFIG
        error = f"invalid profile: malformed snapshot file {path}: {message}"
        assert capsys.readouterr().err == f"kabc: configuration error: {error}\n"
        assert os.listdir(out) == ["manifest.json"]
        assert manifest_of(out)["result"] == {"exit": EXIT_CONFIG, "error": error}

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="malformed"):
            read_snapshot(path, grid=Grid(64, 2 * np.pi))

    def test_zero_field_rows(self, tmp_path):
        g = Grid(64, 2 * np.pi)
        path = tmp_path / "zero.csv"
        write_snapshot(Field(g, np.zeros(64)), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 65
        assert lines[1] == "0,0"


class TestRunSimulate:
    def test_zero_initial_data_success(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_config(
            tmp_path,
            {
                "params": {"preset": "ch"},
                "profile": {"shape": "peakon", "gamma": 0.0},
                "grid": {"n": 128, "length": 40 * math.pi},
                "t_end": 0.1,
            },
        )
        spec = parse_config(path, [], "simulate", out)
        assert run(spec) == EXIT_OK
        diag = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        assert diag[0] == "t,hs_norm,h1_sq,dt,crest_x,theta_hat_u,theta_hat_ux,r2,floor_hit,r2_ux,floor_hit_ux"
        for row in diag[1:]:
            cols = row.split(",")
            assert float(cols[1]) == 0.0  # hs norm of the zero field
            assert cols[8] == cols[10] == "true"  # floor_hit on an empty tail
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        vals = dict(zip(summary[0].split(","), summary[1].split(",")))
        # no fit is finite, so there is no smallest exponent
        assert vals["min_theta_u"] == vals["min_theta_ux"] == "nan"
        assert vals["any_floor_hit"] == "true"
        final = read_snapshot(tmp_path / "out" / "final.csv", grid=Grid(128, 40 * math.pi))
        assert np.all(final.values == 0.0)
        man = manifest_of(out)
        assert man["result"]["exit"] == EXIT_OK
        assert man["h1_conserved"] is True

    def test_blowup_exit_code_and_partial_outputs(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "params": {"k": 3, "a": 0.0, "b": 0.0, "c": 0.0},
                "profile": {"shape": "peakon", "gamma": 8.0},
                "grid": {"n": 128, "length": 40 * math.pi},
                "t_end": 1.0,
                "output_stride": 1000,
            },
        )
        # this k = 3 peakon steepens until its step (about 2.4e-18) no longer
        # advances t = 0.0325, after 159 steps; each run that steps one
        # trajectory names that stop in its manifest, with no numpy warning.
        # Its partial output holds finite states only (the invariant_residual
        # column is NaN by design: these parameters are off the a = 0,
        # c = (3k - b)/2 subfamily).  The particles step through every state,
        # as advect requires: across 159 steps at once their stretch would
        # turn negative, which ends the run as wave breaking
        for subcommand, overrides, partial, finite in (
            ("simulate", [], "final.csv", ["x", "u"]),
            ("lagrangian", ["output_stride=1"], "particles.csv", ["seed", "t", "eta", "eta_x", "m_along"]),
        ):
            out = str(tmp_path / subcommand)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert run(parse_config(path, overrides, subcommand, out)) == EXIT_BLOWUP
            header, *rows = (line.split(",") for line in open(os.path.join(out, partial)).read().splitlines())
            table = np.array(rows, dtype=float)
            assert len(table) and np.all(np.isfinite(table[:, [header.index(name) for name in finite]]))
            result = manifest_of(out)["result"]
            assert result["exit"] == EXIT_BLOWUP and result["blew_up"] is True
            t = float(re.fullmatch(r"time step \S+ no longer advances t = (\S+)", result["error"]).group(1))
            assert 0.0 <= t < 1.0

    def test_step_cap_ends_a_run_whose_step_shrinks(self, tmp_path, monkeypatch):
        # the k = 3 peakon's first step puts it at 9 steps to t_end = 0.0325,
        # but its steps shrink and it would take about 40: at a cap of 20 it
        # stops at step 20, past the first-step check, and keeps what it reached
        from kabc import dynamics

        monkeypatch.setattr(dynamics, "MAX_STEPS", 20)
        out = tmp_path / "sim"
        argv = ["simulate", "--out", str(out), "--set", 'params={"k":3,"a":0,"b":0,"c":0}',
                "--set", 'profile={"shape":"peakon","gamma":8.0}', "--set", "grid.n=128", "--set", "t_end=0.0325",
                "--set", "output_stride=1000"]
        assert main(argv) == EXIT_BLOWUP
        result = manifest_of(out)["result"]
        assert result["blew_up"] is True
        t = float(re.fullmatch(r"reached the cap of 20 steps at t = (\S+)", result["error"]).group(1))
        assert 0.03 < t < 0.0325
        summary = dict(zip(*(line.split(",") for line in (out / "summary.csv").read_text().splitlines())))
        assert summary["steps"] == "20" and summary["blew_up"] == "true"
        assert float(summary["final_t"]) == pytest.approx(t, rel=1e-5)
        final = np.array([line.split(",") for line in (out / "final.csv").read_text().splitlines()[1:]], dtype=float)
        assert np.all(np.isfinite(final))

    def test_deterministic_artifacts(self, tmp_path):
        cfgd = {
            "params": {"preset": "novikov"},
            "profile": {"shape": "exp_tail", "theta": 0.5},
            "grid": {"n": 256, "length": 40 * math.pi},
            "t_end": 0.2,
        }
        path = write_config(tmp_path, cfgd)
        outs = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            run(parse_config(path, [], "simulate", out))
            outs.append(out)
        for name in ("diagnostics.csv", "final.csv", "summary.csv"):
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b
        ma, mb = manifest_of(outs[0]), manifest_of(outs[1])
        for key in ("started_at", "wall_time_s"):
            ma.pop(key), mb.pop(key)
        assert ma == mb

    def test_write_snapshots_flag(self, tmp_path):
        out = str(tmp_path / "snaps")
        path = write_config(
            tmp_path,
            {
                "params": {"preset": "ch"},
                "profile": {"shape": "bump", "width": 2.0},
                "grid": {"n": 128, "length": 40 * math.pi},
                "t_end": 0.03,
                "output_stride": 1,
                "write_snapshots": True,
            },
        )
        spec = parse_config(path, [], "simulate", out)
        run(spec)
        snaps = sorted(p for p in os.listdir(out) if p.startswith("snap_"))
        assert len(snaps) >= 3
        first = read_snapshot(os.path.join(out, snaps[0]), grid=Grid(128, 40 * math.pi))
        assert first.grid.n == 128
        # one file per stored state, in order, each the bytes write_snapshot gives it
        from kabc.dynamics import simulate

        states = []
        simulate(spec.sim, build_profile(spec), lambda rec, u: states.append(u))
        assert snaps == [f"snap_{i:06d}.csv" for i in range(len(states))]
        for name, u in zip(snaps, states):
            write_snapshot(u, tmp_path / "expected.csv")
            assert (Path(out) / name).read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_softbound_recorded_in_manifest(self, tmp_path):
        out = str(tmp_path / "sb")
        path = write_config(
            tmp_path,
            {
                "params": {"preset": "novikov"},
                "profile": {"shape": "exp_tail", "theta": 0.5},
                "grid": {"n": 256, "length": 40 * math.pi},
                "t_end": 0.1,
            },
        )
        run(parse_config(path, [], "simulate", out))
        man = manifest_of(out)
        sb = man["result"]["softbound"]
        assert sb["bound"] == pytest.approx(sb["bound_factor"] * sb["hs0"], rel=1e-12)
        assert sb["sup_hs"] <= sb["bound"]


# a k = 3 peakon whose particle stretches turn negative near t = 0.0324,
# before its field's step stalls at t = 0.0325
WAVE_BREAKING = ["--set", 'params={"k":3,"a":0,"b":0,"c":0}', "--set", 'profile={"shape":"peakon","gamma":8.0}',
                 "--set", "grid.n=128", "--set", "output_stride=10"]

# runs whose manifests hold a value that is not finite, written as null: an
# mms order of 0 / 0, the worst_rel_err of a stopped peakon case, and the
# invariant defect over a momentum that is 0 everywhere
ZERO_ERROR_MMS = ["mms", "--set", "mms.amplitude=5e-324", "--set", "grid.n=8", "--set",
                  "grid.length=6.283185307179586", "--set", "mms.levels=2", "--set", "mms.t_end=1e-6",
                  "--set", "mms.dt0=1e-6"]
STOPPED_PEAKON_CASE = ["peakon-verify", "--set", "grid.n=256", "--set", "peakon_verify.t_end=0.5", "--set",
                       'peakon_verify.cases=[{"k":3,"a":0,"b":0,"c":0,"gamma":2.0},{"preset":"ch","gamma":1.0}]']
ZERO_MOMENTUM = ["lagrangian", "--set", "grid.n=64", "--set", "profile.gamma=0", "--set", "t_end=0.05"]


class TestOtherSubcommands:
    def test_peakon_verify_table(self, tmp_path):
        out = str(tmp_path / "pk")
        path = write_config(
            tmp_path,
            {
                "grid": {"n": 2048, "length": 40 * math.pi},
                "peakon_verify": {"cases": [{"preset": "ch", "gamma": 1.0}], "t_end": 3.0},
            },
        )
        assert run(parse_config(path, [], "peakon-verify", out)) == EXIT_OK
        rows = (tmp_path / "pk" / "speeds.csv").read_text().splitlines()
        assert rows[0] == "preset,gamma,expected_speed,measured_speed,rel_err"
        name, gamma, exp, meas, rel = rows[1].split(",")
        assert name == "ch" and float(exp) == 1.0
        assert float(rel) < 0.02

    def test_peakon_verify_holds_one_trajectory_at_a_time(self, tmp_path, monkeypatch):
        from kabc import cli

        refs = []

        def tracked(cfg, u0, on_state):
            assert all(ref() is None for ref in refs)
            traj = cli_simulate(cfg, u0, on_state)
            refs.append(weakref.ref(traj))
            return traj

        cli_simulate = cli.simulate
        monkeypatch.setattr(cli, "simulate", tracked)
        cases = [{"preset": "ch", "gamma": 1.0}, {"preset": "dp", "gamma": 1.0}]
        spec = parse_config(
            None,
            ["grid.n=256", f"peakon_verify={json.dumps({'cases': cases, 't_end': 0.1})}"],
            "peakon-verify",
            str(tmp_path / "pk"),
        )
        assert run(spec) == EXIT_OK
        assert len(refs) == 2
        records = manifest_of(tmp_path / "pk")["result"]["softbound"]
        assert len(records) == len(cases)
        for sb in records:
            assert set(sb) == {"hs0", "sup_hs", "bound_factor", "bound", "exceeded_t", "params"}
            assert sb["bound"] == pytest.approx(sb["bound_factor"] * sb["hs0"], rel=1e-12)

    def test_manifest_params_only_where_the_run_steps_with_them(self, tmp_path):
        # a Novikov-only peakon-verify steps at k = 2 while the params block
        # keeps its default (CH, k = 1): only each case's record says so
        cases = [{"preset": "novikov", "gamma": 1.0}]
        overrides = ["grid.n=256", f"peakon_verify={json.dumps({'cases': cases, 't_end': 0.1})}"]
        assert run(parse_config(None, overrides, "peakon-verify", str(tmp_path / "pk"))) == EXIT_OK
        man = manifest_of(tmp_path / "pk")
        assert not {"params", "h1_conserved", "periodic_peakon_admissible"} & set(man)
        assert [sb["params"] for sb in man["result"]["softbound"]] == [{"k": 2, "a": 0.0, "b": 3.0, "c": 1.5}]
        assert run(parse_config(None, ["grid.n=128", "t_end=0.1"], "simulate", str(tmp_path / "sim"))) == EXIT_OK
        man = manifest_of(tmp_path / "sim")
        assert man["params"] == {"k": 1, "a": 0.0, "b": 2.0, "c": 0.5} and "h1_condition" not in man
        # a sweep's axes set each point's params; the point's manifest has them
        axes = [{"key": "params", "values": [{"preset": "novikov"}]}]
        overrides = ["grid.n=128", "t_end=0.1", f"sweep.axes={json.dumps(axes)}", "sweep.workers=1"]
        assert run(parse_config(None, overrides, "sweep", str(tmp_path / "sw"))) == EXIT_OK
        man = manifest_of(tmp_path / "sw")
        assert "params" not in man
        assert manifest_of(tmp_path / "sw" / man["result"]["sub_runs"][0])["params"]["k"] == 2

    def test_mms_convergence_table(self, tmp_path):
        out = str(tmp_path / "mms")
        path = write_config(
            tmp_path,
            {
                "params": {"preset": "novikov"},
                "grid": {"n": 64, "length": 2 * math.pi},
                "mms": {"dt0": 0.0625, "levels": 3, "t_end": 0.5},
            },
        )
        assert run(parse_config(path, [], "mms", out)) == EXIT_OK
        rows = (tmp_path / "mms" / "mms.csv").read_text().splitlines()
        assert rows[0] == "dt,final_max_error,observed_order,at_roundoff"
        orders = [float(r.split(",")[2]) for r in rows[2:]]
        assert all(abs(o - 4.0) < 0.5 for o in orders)

    @pytest.mark.parametrize("n, amplitude, cfl_step", [(64, 3, "0.01309"), (32, 1, "0.0785397")])
    def test_mms_level_cut_by_cfl_exits_3(self, tmp_path, capsys, n, amplitude, cfl_step):
        # CH steps at its CFL step, not at the level dt 0.1: its dt column and
        # orders would be false.  At amplitude 1 on n = 32 a study stepped at
        # safety 1 (a CFL step of 0.196) once ran; every run steps at 0.4
        out = tmp_path / "mms"
        argv = ["mms", "--out", str(out), "--set", 'params.preset="ch"', "--set", "grid.length=6.283185307179586",
                "--set", f"grid.n={n}", "--set", f"mms.amplitude={amplitude}", "--set", "mms.dt0=0.1",
                "--set", "mms.levels=3"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("kabc: configuration error: mms.dt0")
        assert f"CFL step is {cfl_step}\n" in err and "Traceback" not in err
        assert "mms.dt0" in manifest_of(out)["result"]["error"]
        assert not (out / "mms.csv").exists()

    def test_mms_order_at_round_off_is_not_the_study_order(self, tmp_path):
        # at the defaults the finest level's error (9.7e-15) is below the
        # round-off floor 1e3 eps |amplitude| = 2.2e-14, and its order 3.66
        # says nothing of RK4: last_order is the order before it
        out = tmp_path / "mms"
        assert main(["mms", "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in (out / "mms.csv").read_text().splitlines()[1:]]
        assert [row[3] for row in rows] == ["false"] * 4 + ["true"]
        summary = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert summary[:2] == rows[-1][:2] and summary[2] == rows[-2][2]
        assert 3.986 < float(summary[2]) < 3.987 and float(rows[-1][2]) < 3.7
        assert "last_order_reason" not in manifest_of(out)["result"]

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=5),
        a=st.floats(min_value=-3.0, max_value=3.0),
        b=st.floats(min_value=-3.0, max_value=3.0),
        c=st.floats(min_value=-3.0, max_value=3.0),
    )
    # a set whose leading RK4 error constant nearly vanishes: its orders
    # 4.42, 4.17 and 4.05 come down to 4 only as dt halves
    @example(k=2, a=1.656233793460002, b=0.6513278337090824, c=-2.101185090585945)
    def test_mms_is_fourth_order_over_the_family(self, k, a, b, c):
        # k = 1 is admitted on a = 0, b + 2c = 3 only.  Each order whose two
        # levels are above the round-off floor is at least 4 - 0.2 (criterion
        # 3's tolerance), and the finest of them, the study's last_order, is
        # within 0.2 of 4; a coarser one may read above.  Over 2000 random
        # sets the last order was within 0.052 of 4 and no order below 3.98;
        # two sets read above 4.2 at their coarsest pair, this one and
        # (2, 0.768, -1.796, 1.793)
        params = {"k": 1, "a": 0.0, "b": b, "c": (3.0 - b) / 2.0} if k == 1 else {"k": k, "a": a, "b": b, "c": c}
        spec = parse_config(None, [f"params={json.dumps(params)}", "grid.n=64", f"grid.length={2 * math.pi!r}",
                                   "mms.amplitude=0.1", "mms.dt0=0.125", "mms.levels=4", "mms.t_end=1"], "mms")
        code, tables, _ = compute_mms(spec)
        rows = tables["mms.csv"][1]
        clean = [row[2] for prev, row in zip(rows, rows[1:]) if not (prev[3] or row[3])]
        assert code == EXIT_OK and clean and tables["summary.csv"][1][0][2] == clean[-1]
        assert min(clean) >= 3.8 and abs(clean[-1] - 4.0) <= 0.2

    def test_mms_last_step_cut_to_land_on_t_end_is_not_a_cfl_cut(self, tmp_path):
        # t_end 1.03 is no multiple of any level dt (0.0625, 0.03125,
        # 0.015625), so each level's last step is cut short; only that step
        # may be
        out = tmp_path / "mms"
        assert main(["mms", "--out", str(out), "--set", "mms.t_end=1.03", "--set", "mms.levels=3"]) == EXIT_OK
        rows = (out / "mms.csv").read_text().splitlines()
        assert [float(row.split(",")[0]) for row in rows[1:]] == [0.0625, 0.03125, 0.015625]

    def test_mms_level_blowup_exits_2(self, tmp_path, capsys):
        # CH at amplitude 1 steps at its CFL step (0.039 at the start, below
        # dt 0.09) and steepens until its step no longer advances t near 58; a
        # level that stopped must not read as a CFL cut (exit 3)
        out = tmp_path / "mms"
        argv = ["mms", "--out", str(out), "--set", 'params={"preset":"ch"}', "--set", "grid.n=64",
                "--set", "grid.length=6.283185307179586", "--set", "mms.amplitude=1", "--set", "mms.dt0=0.09",
                "--set", "mms.levels=1", "--set", "mms.t_end=60"]
        assert main(argv) == EXIT_BLOWUP
        assert capsys.readouterr().err == ""
        result = manifest_of(out)["result"]
        assert result["exit"] == EXIT_BLOWUP and result["blew_up"] is True
        t = float(re.fullmatch(r"mms level 0 \(dt 0\.09\): time step \S+ no longer advances t = (\S+)",
                               result["error"]).group(1))
        assert 50.0 < t < 60.0
        # the stopped level 0 leaves no level to report: both tables are header-only
        assert (out / "mms.csv").read_text() == "dt,final_max_error,observed_order,at_roundoff\n"
        assert (out / "summary.csv").read_text() == "finest_dt,finest_error,last_order\n"
        assert result["finest_error"] is None and result["orders"] == []

    def test_mms_stop_keeps_the_levels_before_it(self, tmp_path, monkeypatch):
        # a level that stops ends the study; the levels before it are written
        from kabc import cli

        real = cli.simulate

        def stop_level_2(cfg, u0, on_state=None):
            traj = real(cfg, u0, on_state)
            if cfg.dt_max == 0.25 / 4:
                traj.stop_reason = "stopped for the test"
            return traj

        monkeypatch.setattr(cli, "simulate", stop_level_2)
        out = tmp_path / "mms"
        argv = ["mms", "--out", str(out), "--set", "mms.dt0=0.25", "--set", "mms.levels=4"]
        assert main(argv) == EXIT_BLOWUP
        rows = [line.split(",") for line in (out / "mms.csv").read_text().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [0.25, 0.125]
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2 and summary[1].split(",") == rows[-1][:3]
        result = manifest_of(out)["result"]
        assert result["blew_up"] is True and result["error"] == "mms level 2 (dt 0.0625): stopped for the test"
        assert result["finest_error"] == float(rows[-1][1]) and result["orders"] == [float(rows[-1][2])]

    @pytest.mark.parametrize("levels, stop_dt, code", [(1, None, EXIT_OK), (3, 0.125, EXIT_BLOWUP)])
    def test_mms_with_one_level_has_no_order_to_observe(self, tmp_path, monkeypatch, levels, stop_dt, code):
        # one level, run alone or before level 1 stopped, is above the
        # round-off floor: its study has no order because it has one level
        from kabc import cli

        real = cli.simulate

        def stop_at(cfg, u0, on_state=None):
            traj = real(cfg, u0, on_state)
            if cfg.dt_max == stop_dt:
                traj.stop_reason = "stopped for the test"
            return traj

        monkeypatch.setattr(cli, "simulate", stop_at)
        out = tmp_path / "mms"
        argv = ["mms", "--out", str(out), "--set", "mms.dt0=0.25", "--set", f"mms.levels={levels}"]
        assert main(argv) == code
        rows = [line.split(",") for line in (out / "mms.csv").read_text().splitlines()[1:]]
        assert len(rows) == 1 and rows[0][2:] == ["nan", "false"]
        result = manifest_of(out)["result"]
        assert result["orders"] == [] and result["finest_error"] > 1e-10
        assert result["last_order_reason"] == "the study ran one level, so no order can be observed"

    @pytest.mark.parametrize("overrides", [
        ["mms.amplitude=-1e300", "grid.n=32"],
        ['params={"k":5,"a":0.5,"b":1,"c":1}', "mms.amplitude=1e60", "grid.n=64"],
        ["mms.amplitude=1.7e308", "grid.n=1024"],  # u0's spectrum overflows too
        ['params={"preset":"novikov"}', "mms.amplitude=1e200", "grid.n=16"],  # so does the CFL speed u^2
    ])
    def test_mms_whose_forcing_overflows_exits_3_at_the_step_cap(self, tmp_path, capsys, overrides):
        # the forcing's N(u0) is not finite, and the first CFL step already
        # puts the run above the step cap: the forcing raises nothing itself.
        # Where the CFL speed of the finite u0 overflows, that step is 0
        out = tmp_path / "mms"
        argv = ["mms", "--out", str(out), "--set", "grid.length=6.283185307179586"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("kabc: configuration error: t_end 1 at the first CFL step")
        assert manifest_of(out)["result"]["exit"] == EXIT_CONFIG

    def test_mms_level_with_zero_error_has_no_order(self, tmp_path, capsys):
        # at the smallest subnormal amplitude both levels end exactly on the
        # manufactured solution, and log2(0 / 0) is no order; an error of 0
        # is at round-off, so the study has no last_order, and says why
        out = tmp_path / "mms"
        assert main([*ZERO_ERROR_MMS, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in (out / "mms.csv").read_text().splitlines()[1:]]
        assert [row[1:] for row in rows] == [["0", "nan", "true"], ["0", "nan", "true"]]
        assert (out / "summary.csv").read_text().splitlines()[1].split(",")[1:] == ["0", "nan"]
        result = manifest_of(out)["result"]
        assert result["orders"][0] is None
        assert result["last_order_reason"].startswith("no two successive levels have an error above the round-off floor")

    def test_lagrangian_wave_breaking_keeps_its_particles(self, tmp_path):
        # across 10 steps of this k = 3 peakon a stretch turns negative: the
        # particles stop at the state before, their rows are written, and the
        # field stops stepping there too (it would stall at t = 0.0325035)
        out = tmp_path / "lag"
        assert main(["lagrangian", "--out", str(out), *WAVE_BREAKING]) == EXIT_BLOWUP
        header, *rows = (line.split(",") for line in (out / "particles.csv").read_text().splitlines())
        table = np.array(rows, dtype=float)
        assert len(table) and np.all(table[:, 1] <= 0.0323667)
        assert np.all(np.isfinite(table[:, [header.index("eta"), header.index("eta_x")]]))
        summary = dict(zip(*(line.split(",") for line in (out / "summary.csv").read_text().splitlines())))
        assert float(summary["final_t"]) == table[-1, 1] == pytest.approx(0.0302742, abs=1e-7)
        result = manifest_of(out)["result"]
        assert result["blew_up"] is True
        assert result["error"] == "eta_x lost positivity at t = 0.0323667 (min -8.749e-02)"
        # the field's last state is the one the particles broke at
        assert result["softbound"]["sup_hs"] < 100.0

    def test_peakon_case_blowup_exits_2_and_keeps_its_row(self, tmp_path):
        # the k = 3 case stops near t = 0.16, where its step no longer
        # advances t (its crest would read a speed of 2666 against 8); the
        # other case still runs
        out = tmp_path / "pk"
        assert main([*STOPPED_PEAKON_CASE, "--out", str(out)]) == EXIT_BLOWUP
        rows = [line.split(",") for line in (out / "speeds.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["custom", "ch"]
        assert float(rows[0][2]) == 8.0
        assert math.isnan(float(rows[0][3])) and math.isnan(float(rows[0][4]))
        assert math.isfinite(float(rows[1][4]))
        summary = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert summary[0] == "2" and math.isnan(float(summary[1]))
        result = manifest_of(out)["result"]
        assert result["exit"] == EXIT_BLOWUP and result["worst_rel_err"] is None
        assert re.fullmatch(r"case 0: time step \S+ no longer advances t = \S+", result["error"])
        assert len(result["softbound"]) == 2

    def test_peakon_case_without_a_single_crest_stops(self, tmp_path, capsys):
        # on a box of 1e-13 the peakon start is flat to 1e-13 of its crest.
        # The case stops at that state, with a NaN row, not an error
        out = tmp_path / "pk"
        argv = ["peakon-verify", "--out", str(out), "--set", "grid.n=512", "--set", "grid.length=1e-13",
                "--set", "peakon_verify.t_end=1e-9", "--set", 'peakon_verify.cases=[{"preset": "ch"}]']
        assert main(argv) == EXIT_BLOWUP
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in (out / "speeds.csv").read_text().splitlines()[1:]]
        assert len(rows) == 1 and rows[0][0] == "ch" and math.isnan(float(rows[0][3]))
        result = manifest_of(out)["result"]
        assert result["exit"] == EXIT_BLOWUP and result["error"] == "case 0: no single crest at t = 0"

    @pytest.mark.parametrize("n, length, t_end, code", [(512, "1e-13", "1e-9", EXIT_BLOWUP),
                                                        (64, "1e-10", "1e-9", EXIT_CONFIG)])
    def test_peakon_verify_on_a_tiny_box_is_no_internal_error(self, tmp_path, capsys, n, length, t_end, code):
        # the four default cases: at 1e-13 each stops with no single crest;
        # at 1e-10 the CH case's first CFL step puts it above the step cap
        # (at t_end 1e-11 it would step past a tie of two neighbours, a crest)
        out = tmp_path / "pk"
        argv = ["peakon-verify", "--out", str(out), "--set", f"grid.n={n}", "--set", f"grid.length={length}",
                "--set", f"peakon_verify.t_end={t_end}"]
        assert main(argv) == code
        assert len(capsys.readouterr().err.splitlines()) == (code == EXIT_CONFIG)
        assert manifest_of(out)["result"]["exit"] == code

    # the smallest box that parse admits at n = 8 and at n = 512: every
    # weight (1 + xi^2)^3 of the H^3 norm is finite there
    SMALLEST_BOX = {8: 1.0579226928933532e-50, 512: 7.57017271421501e-49}

    @pytest.mark.parametrize("subcommand", ["simulate", "peakon-verify", "lagrangian"])
    @pytest.mark.parametrize("n, length", [(512, 1e-160), (512, math.nextafter(SMALLEST_BOX[512], 0.0)),
                                           (8, math.nextafter(SMALLEST_BOX[8], 0.0))])
    def test_box_whose_norm_weight_overflows_exits_3(self, tmp_path, capsys, subcommand, n, length):
        out = tmp_path / "out"
        argv = [subcommand, "--out", str(out), "--set", f"grid.n={n}", "--set", f"grid.length={length!r}",
                "--set", "peakon_verify.t_end=1e-9", "--set", "lagrangian.seeds=[0]"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("kabc: configuration error: grid.length must keep the H^3 norm's")
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, n", [("simulate", 512), ("peakon-verify", 512), ("peakon-verify", 8),
                                               ("lagrangian", 512), ("lagrangian", 8)])
    def test_smallest_box_runs_without_a_warning(self, tmp_path, capsys, subcommand, n):
        # numpy warnings are errors under pytest, so one would exit 5.  The
        # peakon cases are flat and stop at t = 0; a simulate or lagrangian
        # start's first CFL step puts it above the step cap
        length = self.SMALLEST_BOX[n]
        out = tmp_path / "out"
        argv = [subcommand, "--out", str(out), "--set", f"grid.n={n}", "--set", f"grid.length={length!r}",
                "--set", "peakon_verify.t_end=1e-9", "--set", f"fit.window=[{0.1 * length!r}, {0.375 * length!r}]"]
        code = main(argv)
        assert code == (EXIT_BLOWUP if subcommand == "peakon-verify" else EXIT_CONFIG)
        err = capsys.readouterr().err.splitlines()
        assert err == [] if code == EXIT_BLOWUP else (len(err) == 1 and "above the cap" in err[0])

    def test_simulate_summary_min_theta(self, tmp_path):
        out = str(tmp_path / "sim")
        path = write_config(
            tmp_path,
            {
                "params": {"preset": "ch"},
                "profile": {"shape": "exp_tail", "theta": 0.5},
                "grid": {"n": 512, "length": 40 * math.pi},
                "t_end": 0.2,
                "output_stride": 5,
            },
        )
        assert run(parse_config(path, [], "simulate", out)) == EXIT_OK
        summary = (tmp_path / "sim" / "summary.csv").read_text().splitlines()
        vals = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert float(vals["min_theta_u"]) == pytest.approx(0.5, abs=0.05)
        assert float(vals["min_theta_ux"]) == pytest.approx(0.5, abs=0.05)
        assert vals["any_floor_hit"] == "false"

    def test_lagrangian_subcommand(self, tmp_path):
        out = str(tmp_path / "lag")
        path = write_config(
            tmp_path,
            {
                "params": {"preset": "novikov"},
                "profile": {"shape": "file", "path": None},
                "grid": {"n": 256, "length": 2 * math.pi},
                "t_end": 0.25,
                "dt_max": 5e-3,
                "lagrangian": {"seeds": [2.4, 2.6, 2.8, 3.0, 3.2, 3.4, 3.6, 3.8]},
            },
        )
        # build a smooth initial file
        g = Grid(256, 2 * math.pi)
        u0 = Field(g, 0.3 * np.sin(g.nodes) + 0.05)
        snap = tmp_path / "u0.csv"
        write_snapshot(u0, snap)
        spec = parse_config(path, [f'profile.path="{snap}"'], "lagrangian", out)
        assert run(spec) == EXIT_OK
        rows = (tmp_path / "lag" / "particles.csv").read_text().splitlines()
        assert rows[0] == "seed,t,eta,eta_x,m_along,invariant_residual"
        summary = (tmp_path / "lag" / "summary.csv").read_text().splitlines()
        vals = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert float(vals["max_invariant_residual"]) < 1e-3

    @pytest.mark.parametrize("preset", ["novikov", "forq"])
    def test_particles_rows_seed_fastest(self, tmp_path, preset):
        # the written table equals, bitwise, the rows of a (time, seed) loop
        # with the seed fastest (each %.17g token parses back to its double),
        # its m_along read at the paths by the oracle momentum_along; forq is
        # off the a = 0 subfamily (NaN residuals)
        from kabc import lagrangian
        from kabc.dynamics import simulate

        seeds = np.array([2.5, 2.75, 3.0, 3.25, 3.5])
        spec = parse_config(
            None,
            [f'params.preset="{preset}"', "grid.n=128", f"grid.length={2 * math.pi!r}",
             'profile={"shape": "bump", "width": 1.0}', "t_end=0.05", f"lagrangian.seeds={seeds.tolist()}"],
            "lagrangian",
            str(tmp_path),
        )
        code, tables, extras = compute_lagrangian(spec)
        assert code == EXIT_OK and "particles.csv" not in tables
        header, *lines = (tmp_path / "particles.csv").read_text().splitlines()
        assert header == "seed,t,eta,eta_x,m_along,invariant_residual"
        table = np.array([[float(tok) for tok in line.split(",")] for line in lines])

        states = []
        simulate(spec.sim, build_profile(spec), lambda rec, u: states.append((rec.t, u)))
        ps = [lagrangian.release(seeds, *states[0])]
        for t, u in states[1:]:
            ps.append(lagrangian.advect(ps[-1], t, u, spec.sim.params.k))
        m_along = np.array([momentum_along(u, p.eta) for (_, u), p in zip(states, ps)])
        stretch = np.array([p.etax for p in ps])
        try:
            defect, res = lagrangian.invariant_defects(stretch, m_along, spec.sim.params)
            # the manifest's defect: the largest over states and seeds, over the largest |m0|
            assert extras["max_invariant_defect"] == np.max(defect) / np.max(np.abs(m_along[0]))
        except ValueError:
            res = np.full_like(m_along, math.nan)
            assert extras["max_invariant_defect"] is None
        rows = []
        for j, p in enumerate(ps):
            for s in range(len(seeds)):
                rows.append((seeds[s], p.t, p.eta[s], p.etax[s], m_along[j][s], res[j][s]))
        assert table.dtype == np.float64 and table.shape == (len(rows), 6)
        assert table.tobytes() == np.array(rows).tobytes()
        assert np.all(np.isnan(table[:, 5])) == (preset == "forq")

    def test_lagrangian_defect_is_not_inflated_by_seeds_at_round_off(self, tmp_path):
        # twelve of the default seeds start where the peakon's momentum is at
        # round-off (|m0| <= 3.3e-12), so their residuals relative to |m0|
        # read far above 1; the defect is relative to the largest |m0|
        out = tmp_path / "lag"
        assert main(["lagrangian", "--out", str(out), "--set", "t_end=0.2"]) == EXIT_OK
        result = manifest_of(out)["result"]
        assert result["max_invariant_residual"] > 1e3
        assert result["max_invariant_defect"] < 1e-2

    def test_lagrangian_defect_of_a_zero_momentum_is_nan(self, tmp_path):
        out = tmp_path / "lag"
        assert main([*ZERO_MOMENTUM, "--out", str(out)]) == EXIT_OK
        result = manifest_of(out)["result"]
        assert result["max_invariant_residual"] == 0.0 and result["max_invariant_defect"] is None

    @pytest.mark.parametrize("argv", [ZERO_ERROR_MMS, STOPPED_PEAKON_CASE, ZERO_MOMENTUM])
    def test_manifest_with_a_value_that_is_not_finite_is_strict_json(self, tmp_path, argv):
        out = tmp_path / "run"
        main([*argv, "--out", str(out)])
        json.loads((out / "manifest.json").read_text(), parse_constant=refuse_constant)

    def test_profile_file_grid_mismatch(self, tmp_path):
        g = Grid(64, 2 * math.pi)
        snap = tmp_path / "u0.csv"
        write_snapshot(Field(g, np.zeros(64)), snap)
        path = write_config(
            tmp_path,
            {"profile": {"shape": "file", "path": str(snap)}, "grid": {"n": 128, "length": 2 * math.pi}},
        )
        spec = parse_config(path, [], "simulate", str(tmp_path / "x"))
        with pytest.raises(ConfigError, match="grid mismatch"):
            build_profile(spec)

    @staticmethod
    def run_on_file_profile(tmp_path, subcommand, values):
        """Run subcommand at n = 1024 on the default box from a file profile
        of these samples, in a child, so that any numpy warning would reach
        the stderr it returns."""
        g = Grid(1024, DEFAULT_CONFIG["grid"]["length"])
        snap = tmp_path / "u0.csv"
        write_snapshot(Field(g, values(g)), snap)
        argv = [subcommand, "--out", str(tmp_path / "out"), "--set", "grid.n=1024", "--set",
                f'profile={{"shape": "file", "path": "{snap}"}}']
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        return subprocess.run([sys.executable, "-m", "kabc.cli", *argv], capture_output=True, text=True, timeout=60,
                              env=env)

    @pytest.mark.parametrize("subcommand", ["simulate", "lagrangian"])
    def test_profile_file_whose_spectrum_overflows_exits_3(self, tmp_path, subcommand):
        # finite samples whose rfft is not: n * 1e306 overflows the mean bin
        proc = self.run_on_file_profile(tmp_path, subcommand, lambda g: np.full(g.n, 1e306))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.splitlines() == ["kabc: configuration error: invalid profile: its spectrum is not "
                                            "finite: the samples are too large to transform"]
        assert "invalid profile" in manifest_of(tmp_path / "out")["result"]["error"]

    @pytest.mark.parametrize("subcommand", ["simulate", "lagrangian"])
    def test_profile_file_whose_derivative_overflows_exits_3(self, tmp_path, subcommand):
        # a finite spectrum (its mode-300 bin is 5.12e307) that ik takes past
        # the largest double, so the u_x samples every run computes are not finite
        proc = self.run_on_file_profile(tmp_path, subcommand,
                                        lambda g: 1e305 * np.sin(300 * 2 * np.pi * g.nodes / g.length))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.splitlines() == ["kabc: configuration error: invalid profile: its order-1 derivative "
                                            "is not finite: the samples are too large"]
        assert "invalid profile" in manifest_of(tmp_path / "out")["result"]["error"]

    def test_profile_whose_derivative_bound_overflows_but_samples_do_not(self, tmp_path):
        # n^2 * sum |hat * ik|, a bound on the u_x samples, overflows, but the
        # samples build_profile transforms and checks are finite: the start is accepted
        g = Grid(1024, 2 * math.pi)
        u0 = 1e300 * np.sin(g.nodes)
        snap = tmp_path / "u0.csv"
        write_snapshot(Field(g, u0), snap)
        spec = parse_config(None, ["grid.n=1024", f"grid.length={2 * math.pi!r}",
                                   f'profile={{"shape": "file", "path": "{snap}"}}'], "simulate", str(tmp_path / "x"))
        got = build_profile(spec)
        assert np.array_equal(got.values, u0)
        with np.errstate(over="ignore"):
            assert not math.isfinite(g.n**2 * np.sum(np.abs(got.hat * get_ops(g).ik)))


# 2,100 seeds fill a block of CSV_BLOCK_ROWS (4,096) rows every two states,
# so particles.csv goes to its writer in blocks while the run steps
MANY_SEEDS = ["--set", f"lagrangian.seeds={np.linspace(0.0, 40 * math.pi, 2100, endpoint=False).tolist()}"]


class TestStreamedTables:
    """particles.csv and the snapshots go to a writer process as the run
    steps; it must be gone after every run, and only whole files kept."""

    @staticmethod
    def raise_at_call(monkeypatch, module, name, call):
        real, calls = getattr(module, name), []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == call:
                raise RuntimeError("raised for the test")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, failing)

    @pytest.mark.parametrize("case", ["ok", "wave-breaking", "writer-fails", "advect-raises", "snapshot-run-raises"])
    def test_writer_lifecycle(self, tmp_path, monkeypatch, capsys, case):
        import multiprocessing

        from kabc import cli, diagnostics, lagrangian

        out = tmp_path / "out"
        argv = ["lagrangian", "--out", str(out), *MANY_SEEDS, "--set", "grid.n=128", "--set", "t_end=0.05"]
        tables = {"particles.csv", "summary.csv", "manifest.json"}
        if case == "wave-breaking":
            argv = ["lagrangian", "--out", str(out), *MANY_SEEDS, *WAVE_BREAKING]
        elif case == "writer-fails":  # the writer inherits the failing formatter when it forks
            def failing(fh, header, rows):
                raise OSError("disk full for the test")

            monkeypatch.setattr(cli, "_write_rows", failing)
        elif case == "advect-raises":  # at the third state, after the first block was sent
            self.raise_at_call(monkeypatch, lagrangian, "advect", 2)
        elif case == "snapshot-run-raises":  # at the third state, after two snapshots were sent
            argv = ["simulate", "--out", str(out), "--set", "grid.n=128", "--set", "t_end=0.05",
                    "--set", "write_snapshots=true"]
            self.raise_at_call(monkeypatch, diagnostics, "crest_position", 3)
        code, files = {
            "ok": (EXIT_OK, tables),
            "wave-breaking": (EXIT_BLOWUP, tables),
            "writer-fails": (EXIT_IO, {"manifest.json"}),
            "advect-raises": (EXIT_INTERNAL, {"manifest.json"}),
            "snapshot-run-raises": (EXIT_INTERNAL, {"manifest.json"}),
        }[case]
        assert main(argv) == code
        assert multiprocessing.active_children() == []
        assert set(os.listdir(out)) == files
        err = capsys.readouterr().err
        if case == "writer-fails":
            assert err == "kabc: I/O error: CSV writer: disk full for the test\n"
            assert manifest_of(out)["result"]["error"] == "CSV writer: disk full for the test"
        if case == "ok":
            rows = (out / "particles.csv").read_text().splitlines()[1:]
            assert len(rows) == 6 * 2100  # u0 and 5 steps of dt_max
        if code == EXIT_INTERNAL:
            assert err == "kabc: internal error: RuntimeError: raised for the test\n"

    @pytest.mark.parametrize("at", ["first", "done"])
    def test_writer_killed_without_a_word(self, tmp_path, monkeypatch, capsys, at):
        # a writer killed by a signal sends no error, so the run reports its
        # exit code: killed at its first message, the run finds its pipe
        # broken at a later send; killed at the done message, when it joins it
        import multiprocessing
        import signal

        from kabc import cli

        def dying(conn, run_end):
            run_end.close()
            if at == "first":
                conn.recv()
            else:
                for _ in iter(conn.recv, None):
                    pass
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(cli, "_write_parts", dying)
        out = tmp_path / "out"
        argv = ["lagrangian", "--out", str(out), *MANY_SEEDS, "--set", "grid.n=128", "--set", "t_end=0.05"]
        assert main(argv) == EXIT_IO
        assert multiprocessing.active_children() == []
        assert os.listdir(out) == ["manifest.json"]
        assert capsys.readouterr().err == "kabc: I/O error: CSV writer exited with code -9\n"

    @pytest.mark.parametrize("preset", ["novikov", "forq"])
    def test_particle_blocks_of_any_size_write_the_same_bytes(self, tmp_path, monkeypatch, preset):
        # 3 seeds and 8 states: in blocks of 7 rows a block holds 3 states,
        # the last one 2; forq is off the a = 0 subfamily (NaN residuals)
        from kabc import cli

        overrides = [f'params.preset="{preset}"', "grid.n=128", f"grid.length={2 * math.pi!r}",
                     'profile={"shape": "bump", "width": 1.0}', "t_end=0.07", "lagrangian.seeds=[2.5, 3, 3.5]"]
        real_send = cli._CsvWriter.send

        def particles(name):
            sends = []

            def send(writer, *args):
                sends.append(args[0])
                return real_send(writer, *args)

            monkeypatch.setattr(cli._CsvWriter, "send", send)
            assert run(parse_config(None, overrides, "lagrangian", str(tmp_path / name))) == EXIT_OK
            return (tmp_path / name / "particles.csv").read_bytes(), len(sends)

        whole, one = particles("whole")
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)
        blocks, many = particles("blocks")
        assert (one, many) == (1, 3) and whole.count(b"\n") == 1 + 8 * 3
        assert (whole.count(b",nan\n") == 8 * 3) == (preset == "forq")
        assert blocks == whole

    def test_parallel_lagrangian_sweep_matches_single_runs(self, tmp_path):
        import multiprocessing

        overrides = [*MANY_SEEDS[1::2], "grid.n=128", "t_end=0.05"]
        axes = [{"key": "params.preset", "values": ["novikov", "forq"]}]
        sweep = {"subcommand": "lagrangian", "axes": axes, "workers": 2}
        spec = parse_config(None, [*overrides, f"sweep={json.dumps(sweep)}"], "sweep", str(tmp_path / "sweep"))
        assert run(spec) == EXIT_OK
        assert multiprocessing.active_children() == []
        for (name, point), preset in zip(spec.points, axes[0]["values"]):
            single = tmp_path / preset
            assert run(parse_config(None, [*overrides, f'params.preset="{preset}"'], "lagrangian", str(single))) == 0
            for table in ("particles.csv", "summary.csv"):
                assert (Path(point.out_dir) / table).read_bytes() == (single / table).read_bytes()


@pytest.mark.parametrize(
    "subcommand, overrides",
    [
        ("simulate", ["grid.n=128", "t_end=0.05", 'profile={"shape": "bump", "width": 2.0}', "write_snapshots=true"]),
        ("simulate", ["grid.n=256", "t_end=0.05", 'profile={"shape": "exp_tail", "theta": 0.5}', "output_stride=5"]),
        ("peakon-verify", ["grid.n=256", 'peakon_verify={"cases": [{"preset": "forq"}], "t_end": 0.05}']),
        ("mms", ['params.preset="forq"', "grid.n=32", f"grid.length={2 * math.pi!r}", 'mms={"levels": 2, "t_end": 0.25}']),
        ("lagrangian", ['params.preset="novikov"', "grid.n=128", f"grid.length={2 * math.pi!r}",
                        'profile={"shape": "bump", "width": 1.0}', "t_end=0.05", "lagrangian.seeds=[2.5, 3, 3.5]"]),
    ],
)
def test_runners_read_only_the_resolved_values(tmp_path, subcommand, overrides):
    # the raw config is the manifest's record: emptying it after parse_config
    # must not change what the runner computes, returned or written as it ran
    def tables_of(spec):
        os.makedirs(spec.out_dir)
        _, tables, _ = _RUNNERS[subcommand](spec)
        written = {name: (Path(spec.out_dir) / name).read_bytes() for name in os.listdir(spec.out_dir)}
        return written, {name: (header, rows.tobytes() if isinstance(rows, np.ndarray) else repr(rows))
                         for name, (header, rows) in tables.items()}

    expected = tables_of(parse_config(None, overrides, subcommand, str(tmp_path / "a")))
    spec = parse_config(None, overrides, subcommand, str(tmp_path / "b"))
    spec.config.clear()
    assert tables_of(spec) == expected


def fail_summary_writes(monkeypatch, nth):
    """The nth write of a summary.csv (from 1) fails partway through its
    header, as on a full disk."""
    from kabc import cli

    real, calls = cli._write_rows, []

    def failing(fh, header, rows):
        if os.path.basename(fh.name).startswith("summary.csv"):
            calls.append(None)
            if len(calls) == nth:
                fh.write(",".join(header[:2]) + ",")
                raise OSError("disk full for the test")
        real(fh, header, rows)

    monkeypatch.setattr(cli, "_write_rows", failing)


class TestSweep:
    def test_sweep_subruns_and_aggregate(self, tmp_path):
        out = str(tmp_path / "sweep")
        path = write_config(
            tmp_path,
            {
                "params": {"preset": "gkbch", "k": 2, "b": 0.0},
                "profile": {"shape": "exp_tail", "theta": 0.5},
                "grid": {"n": 128, "length": 40 * math.pi},
                "t_end": 0.05,
                "sweep": {
                    "subcommand": "simulate",
                    "axes": [{"key": "params.b", "values": [0.0, 1.0, 2.0, 3.0]}],
                    "workers": 1,
                },
            },
        )
        spec = parse_config(path, [], "sweep", out)
        assert run(spec) == EXIT_OK
        agg = (tmp_path / "sweep" / "aggregate.csv").read_text().splitlines()
        assert len(agg) == 5  # header + 4 runs
        for line in agg[1:]:
            name, rest = line.split(",", 1)
            sub_summary = (tmp_path / "sweep" / name / "summary.csv").read_text().splitlines()
            assert rest == sub_summary[1]  # aggregate rows bitwise equal

    def test_point_whose_summary_write_fails_is_left_out(self, tmp_path, monkeypatch):
        # so the aggregate takes its header from the point that wrote one whole
        fail_summary_writes(monkeypatch, 1)
        out = tmp_path / "sweep"
        sweep = {"axes": [{"key": "t_end", "values": [0.01, 0.02]}], "workers": 1}
        spec = parse_config(None, ["grid.n=128", f"sweep={json.dumps(sweep)}"], "sweep", str(out))
        assert run(spec) == EXIT_IO
        (failed, _), (kept, _) = spec.points
        assert manifest_of(out)["result"]["sub_run_exits"] == [EXIT_IO, EXIT_OK]
        assert os.listdir(out / failed) == ["manifest.json"]
        header, row = (out / kept / "summary.csv").read_text().splitlines()
        assert (out / "aggregate.csv").read_text().splitlines() == [f"run,{header}", f"{kept},{row}"]

    def test_parallel_matches_serial(self, tmp_path):
        base = {
            "params": {"preset": "gkbch", "k": 2, "b": 1.0},
            "profile": {"shape": "exp_tail", "theta": 0.5},
            "grid": {"n": 128, "length": 40 * math.pi},
            "t_end": 0.05,
            "sweep": {"subcommand": "simulate", "axes": [{"key": "params.b", "values": [1.0, 2.0]}]},
        }
        path = write_config(tmp_path, base)
        out_serial = str(tmp_path / "serial")
        out_par = str(tmp_path / "par")
        run(parse_config(path, ["sweep.workers=1"], "sweep", out_serial))
        run(parse_config(path, ["sweep.workers=2"], "sweep", out_par))
        a = (tmp_path / "serial" / "aggregate.csv").read_text()
        b = (tmp_path / "par" / "aggregate.csv").read_text()
        assert a == b

    @pytest.mark.parametrize("workers, n_points, pool", [(64, 2, 2), (10**6, 3, 3), (2, 3, 2)])
    def test_pool_never_exceeds_the_points(self, tmp_path, monkeypatch, workers, n_points, pool):
        sizes = []

        class SerialPool:  # records the pool size, starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        sweep = {"axes": [{"key": "t_end", "values": [0.01 * (i + 1) for i in range(n_points)]}], "workers": workers}
        spec = parse_config(None, ["grid.n=128", f"sweep={json.dumps(sweep)}"], "sweep", str(tmp_path / "sweep"))
        assert run(spec) == EXIT_OK
        assert sizes == [pool]

    def test_sub_run_names_stay_flat(self, tmp_path):
        g = Grid(128, 40 * math.pi)
        snap = tmp_path / "profiles" / "u0.csv"
        snap.parent.mkdir()
        write_snapshot(Field(g, np.exp(-np.abs(g.nodes - g.length / 2))), snap)
        sweep = {
            "axes": [{"key": "profile", "values": [{"shape": "file", "path": str(snap)}, {"shape": "bump"}]}],
            "workers": 1,
        }
        out = tmp_path / "sweep"
        spec = parse_config(None, ["grid.n=128", "t_end=0.05", f"sweep={json.dumps(sweep)}"], "sweep", str(out))
        assert run(spec) == EXIT_OK
        names = [line.split(",", 1)[0] for line in (out / "aggregate.csv").read_text().splitlines()[1:]]
        assert len(names) == 2
        assert all(re.fullmatch(r"[A-Za-z0-9._=+-]+", name) for name in names)
        assert sorted(os.listdir(out)) == sorted(names + ["aggregate.csv", "manifest.json"])

    def test_failing_points_do_not_stop_the_sweep(self, tmp_path, capsys):
        # a missing file fails with an I/O error (4), a file on another grid
        # with a configuration error (3); every point still runs
        good, other_grid = tmp_path / "u0.csv", tmp_path / "u0_64.csv"
        for path, n in ((good, 128), (other_grid, 64)):
            g = Grid(n, 40 * math.pi)
            write_snapshot(Field(g, np.exp(-np.abs(g.nodes - g.length / 2))), path)
        paths = [str(tmp_path / "missing.csv"), str(good), str(other_grid)]
        sweep = {"axes": [{"key": "profile.path", "values": paths}], "workers": 1}
        out = tmp_path / "sweep"
        argv = ["sweep", "--set", "grid.n=128", "--set", "t_end=0.05", "--set", 'profile={"shape": "file"}',
                "--set", f"sweep={json.dumps(sweep)}", "--out", str(out)]
        assert main(argv) == EXIT_IO  # the worst point's code
        result = manifest_of(out)["result"]
        assert result["sub_run_exits"] == [EXIT_IO, EXIT_OK, EXIT_CONFIG]
        for name, code in zip(result["sub_runs"], result["sub_run_exits"]):
            assert manifest_of(out / name)["result"]["exit"] == code
        assert "missing.csv" in manifest_of(out / result["sub_runs"][0])["result"]["error"]
        assert "grid mismatch" in manifest_of(out / result["sub_runs"][2])["result"]["error"]
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert [line.split(",", 1)[0] for line in agg[1:]] == [result["sub_runs"][1]]
        err = capsys.readouterr().err
        assert "kabc: I/O error: " in err and "kabc: configuration error: " in err
        assert "Traceback" not in err


class TestOutputDirectory:
    """A run clears the artifacts an earlier run left in its output
    directory (the default --out is reused by every run of a subcommand),
    and removes no other file and no directory."""

    SIM = ["simulate", "--set", "grid.n=256", "--set", "write_snapshots=true"]

    def test_rerun_leaves_only_its_own_artifacts(self, tmp_path):
        out = tmp_path / "D"
        snaps = lambda: sorted(path.name for path in out.glob("snap_*"))
        assert main(self.SIM + ["--set", "t_end=0.05", "--out", str(out)]) == EXIT_OK
        assert snaps() == [f"snap_{i:06d}.csv" for i in range(6)]
        assert main(self.SIM + ["--set", "t_end=0.02", "--out", str(out)]) == EXIT_OK
        assert snaps() == [f"snap_{i:06d}.csv" for i in range(3)]
        missing = json.dumps({"shape": "file", "path": str(tmp_path / "missing.csv")})
        assert main(self.SIM + ["--set", f"profile={missing}", "--out", str(out)]) == EXIT_IO
        assert os.listdir(out) == ["manifest.json"]

    def test_failed_table_write_leaves_no_table(self, tmp_path, monkeypatch, capsys):
        # summary.csv is the last table simulate returns: the two before it
        # were whole, and go too
        fail_summary_writes(monkeypatch, 1)
        out = tmp_path / "D"
        assert main(["simulate", "--set", "grid.n=128", "--set", "t_end=0.02", "--out", str(out)]) == EXIT_IO
        assert os.listdir(out) == ["manifest.json"]
        assert capsys.readouterr().err == "kabc: I/O error: disk full for the test\n"
        assert manifest_of(out)["result"]["error"] == "disk full for the test"

    def test_foreign_files_and_directories_stay(self, tmp_path):
        out = tmp_path / "D"
        foreign = ["notes.txt", "u0.csv", "snap_1.csv", "final.csv.bak", "sub_000_t_end=1/summary.csv"]
        for name in foreign + ["summary.csv.part", "snap_000009.csv"]:
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).write_text("x\n")
        assert main(self.SIM + ["--set", "t_end=0.02", "--out", str(out)]) == EXIT_OK
        for name in foreign:
            assert (out / name).read_text() == "x\n", name
        assert not (out / "summary.csv.part").exists() and not (out / "snap_000009.csv").exists()

    @pytest.mark.parametrize("name, match", [
        ("snap_000000.csv", True), ("snap_999999.csv", True), ("snap_1000000.csv", True),
        ("snap_12345678.csv", True), ("snap_00001.csv", False), ("snap_1e6.csv", False),
    ])
    @pytest.mark.parametrize("part", ["", ".part"])
    def test_snapshot_names_of_six_or_more_digits_are_artifacts(self, name, match, part):
        # the 1,000,001st snapshot is snap_1000000.csv
        assert bool(ARTIFACT_NAME.fullmatch(name + part)) is match

    def test_profile_file_in_the_output_directory_is_kept(self, tmp_path):
        out = tmp_path / "D"
        argv = ["simulate", "--set", "grid.n=256", "--set", "t_end=0.02", "--out", str(out)]
        assert main(argv) == EXIT_OK
        first = (out / "final.csv").read_bytes()
        profile = json.dumps({"shape": "file", "path": str(out / "final.csv")})
        assert main(argv + ["--set", f"profile={profile}"]) == EXIT_OK
        assert manifest_of(out)["result"]["exit"] == EXIT_OK
        assert (out / "final.csv").read_bytes() != first  # the run went on from it

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "grid.n=128", "t_end=0.02", "write_snapshots=true"],
            ["peakon-verify", "grid.n=256", 'peakon_verify={"cases": [{"preset": "ch"}], "t_end": 0.05}'],
            ["mms", "grid.n=32", f"grid.length={2 * math.pi!r}", 'mms={"levels": 2, "t_end": 0.25}'],
            ["lagrangian", "grid.n=128", "t_end=0.02", "lagrangian.seeds=[60, 62]"],
            ["sweep", "grid.n=128", 'sweep={"axes": [{"key": "t_end", "values": [0.01, 0.02]}], "workers": 1}'],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_file_a_run_writes_is_an_artifact(self, tmp_path, argv):
        # so the pattern that run clears cannot drift from the runners
        out = tmp_path / "D"
        subcommand, *overrides = argv
        assert main([subcommand, "--out", str(out)] + [arg for item in overrides for arg in ("--set", item)]) == EXIT_OK
        written = [path for path in out.rglob("*") if path.is_file()]
        assert len(written) >= 3 and [path for path in written if not ARTIFACT_NAME.fullmatch(path.name)] == []

    def test_sweep_without_a_summary_writes_an_empty_aggregate(self, tmp_path):
        out = tmp_path / "D"
        sweep = {"axes": [{"key": "profile.path", "values": [str(tmp_path / "missing.csv")]}], "workers": 1}
        argv = ["sweep", "--set", 'profile={"shape": "file"}', "--set", f"sweep={json.dumps(sweep)}"]
        assert main(argv + ["--out", str(out)]) == EXIT_IO
        assert (out / "aggregate.csv").read_bytes() == b""


class TestMainEntry:
    def test_exit_codes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KABC_OUT", str(tmp_path / "root"))
        bad = write_config(tmp_path, {"params": {"k": 1, "a": 1.0, "b": 2.0, "c": 1.0}})
        assert main(["simulate", "--config", bad]) == EXIT_CONFIG

        ok = write_config(
            tmp_path,
            {
                "params": {"preset": "ch"},
                "profile": {"shape": "bump", "width": 2.0},
                "grid": {"n": 128, "length": 40 * math.pi},
                "t_end": 0.05,
            },
            name="ok.json",
        )
        assert main(["simulate", "--config", ok]) == EXIT_OK
        # env-var output root was honored
        assert os.path.exists(tmp_path / "root" / "simulate" / "manifest.json")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--bogus"], "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: subcommand"),
        ],
        ids=["unknown-flag", "no-subcommand"],
    )
    def test_usage_errors_exit_3(self, tmp_path, monkeypatch, capsys, argv, message):
        # argparse's own exit code, 2, is the blow-up code
        monkeypatch.setenv("KABC_OUT", str(tmp_path / "root"))
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"kabc: configuration error: {message}"
        assert "Traceback" not in err
        assert not (tmp_path / "root").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["simulate", "--help"])
        assert stop.value.code == 0
        assert "--set" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["lagrangian", "--set", "lagrangian.n_seeds=5"], "unknown config keys: lagrangian.n_seeds"),
            (["simulate", "--set", "fit.theta=0.5"], "unknown config keys: fit.theta"),
            (["simulate", "--set", 'params={"preset": "bfam", "b": 1}'], "unknown preset 'bfam'"),
            (["sweep", "--workers", "2"], "unrecognized arguments: --workers 2"),
            (["decay-scan"], "invalid choice: 'decay-scan'"),
            (["simulate", "--set", "cfl_safety=0.4"], "unknown config keys: cfl_safety"),
            (["simulate", "--set", "spectral_filter=true"], "unknown config keys: spectral_filter"),
            (["simulate", "--set", "sobolev_s=3"], "unknown config keys: sobolev_s"),
            (["simulate", "--set", 'fit.side="right"'], "unknown config keys: fit.side"),
            (["peakon-verify", "--set", "peakon_verify.moll_width=0.1"],
             "unknown config keys: peakon_verify.moll_width"),
            (["simulate", "--set", 'profile={"shape": "peakon", "gamma": 1, "moll_width": 0.1}'],
             "unknown config keys: profile.moll_width"),
            (["simulate", "--set", "=5"], "config key '' has an empty part"),
            (["simulate", "--set", "grid..n=5"], "config key 'grid..n' has an empty part"),
        ],
        ids=["n_seeds", "fit-theta", "bfam", "workers-flag", "removed-subcommand", "cfl_safety", "spectral_filter",
             "sobolev_s",
             "fit-side", "peakon_verify-moll_width", "profile-moll_width", "empty-key", "empty-part"],
    )
    def test_removed_inputs_exit_3(self, tmp_path, capsys, argv, named):
        # each input has one spelling: lagrangian.seeds, gkbch at k = 1 and
        # --set sweep.workers=N are the ones left, and simulate is the one
        # runner that fits tails.  A setting no run varies is a constant, not
        # a key, so even its one accepted value is unknown
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_run_past_the_step_cap_exits_3_at_once(self, tmp_path):
        # |gamma| at its bound makes the CFL step about dx / |gamma|^k: the
        # run would never end, so it stops before its first step.  A dt_max
        # of 5e-324 does too, and its estimate t_end / dt overflows, which
        # the message states as a finite bound
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        for i, (sets, t_end, needs) in enumerate((
            (["grid.n=256", "profile.gamma=-1e140", "t_end=0.01"], "0.01", r"about \S+e\+\d+"),
            (["grid.n=128", "dt_max=5e-324"], "1", r"more than 1\.8e\+308"),
        )):
            out = tmp_path / f"out{i}"
            argv = [sys.executable, "-m", "kabc.cli", "simulate", "--out", str(out)]
            for item in sets:
                argv += ["--set", item]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
            assert proc.returncode == EXIT_CONFIG
            assert proc.stderr.startswith(f"kabc: configuration error: t_end {t_end} at the first CFL step ")
            assert "Traceback" not in proc.stderr and "inf" not in proc.stderr
            error = manifest_of(out)["result"]["error"]
            assert re.search(rf"needs {needs} steps, above the cap of 1e\+07$", error)
            assert sorted(os.listdir(out)) == ["manifest.json"]

    @pytest.mark.parametrize(
        "subcommand, overrides",
        [
            ("simulate", ["grid.n=128", "t_end=1e6"]),  # 1e8 steps at dt_max
            # the capped case ends the run; the case after it never starts
            ("peakon-verify",
             ["grid.n=256", 'peakon_verify.cases=[{"preset": "ch", "gamma": 1e140}, {"preset": "ch"}]']),
        ],
        ids=["long-t_end", "peakon-case"],
    )
    def test_step_cap_exits_3_with_a_manifest(self, tmp_path, capsys, subcommand, overrides):
        out = tmp_path / "out"
        argv = [subcommand, "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "above the cap of 1e+07" in err and "Traceback" not in err
        result = manifest_of(out)["result"]
        assert result["exit"] == EXIT_CONFIG and "above the cap of 1e+07" in result["error"]
        assert sorted(os.listdir(out)) == ["manifest.json"]

    def test_any_other_exception_exits_5_with_a_manifest(self, tmp_path, monkeypatch, capsys):
        def broken(spec):
            raise RuntimeError("runner broke")

        monkeypatch.setitem(_RUNNERS, "simulate", broken)
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out)]) == EXIT_INTERNAL
        assert capsys.readouterr().err == "kabc: internal error: RuntimeError: runner broke\n"
        result = manifest_of(out)["result"]
        assert result["exit"] == EXIT_INTERNAL and result["error"] == "RuntimeError: runner broke"
        assert result["traceback"].splitlines()[-1] == "RuntimeError: runner broke"
        assert sorted(os.listdir(out)) == ["manifest.json"]

    def test_sweep_point_with_an_internal_error_exits_5(self, tmp_path, monkeypatch, capsys):
        simulate_runner = _RUNNERS["simulate"]

        def broken_at_the_second_point(spec):
            if spec.sim.t_end > 0.015:
                raise RuntimeError("runner broke")
            return simulate_runner(spec)

        monkeypatch.setitem(_RUNNERS, "simulate", broken_at_the_second_point)
        sweep = {"axes": [{"key": "t_end", "values": [0.01, 0.02]}], "workers": 1}
        out = tmp_path / "sweep"
        argv = ["sweep", "--set", "grid.n=128", "--set", f"sweep={json.dumps(sweep)}", "--out", str(out)]
        assert main(argv) == EXIT_INTERNAL
        result = manifest_of(out)["result"]
        assert result["sub_run_exits"] == [EXIT_OK, EXIT_INTERNAL]
        assert manifest_of(out / result["sub_runs"][1])["result"]["error"] == "RuntimeError: runner broke"
        assert "Traceback" not in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path):
        ok = write_config(
            tmp_path,
            {
                "params": {"preset": "ch"},
                "profile": {"shape": "bump", "width": 2.0},
                "grid": {"n": 128, "length": 40 * math.pi},
                "t_end": 0.05,
            },
        )
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["simulate", "--config", ok, "--out", str(blocker / "sub")]) == EXIT_IO

    def test_out_flag_wins(self, tmp_path):
        ok = write_config(
            tmp_path,
            {
                "params": {"preset": "ch"},
                "profile": {"shape": "bump", "width": 2.0},
                "grid": {"n": 128, "length": 40 * math.pi},
                "t_end": 0.05,
            },
        )
        out = str(tmp_path / "explicit")
        assert main(["simulate", "--config", ok, "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "manifest.json"))


BOX = DEFAULT_CONFIG["grid"]["length"]


class TestRunFuzz:
    """Whole runs of configs near the validity edges: every run exits with a
    documented code other than 5 (a fault of kabc), prints no traceback and
    at most one stderr line when it fails, and leaves a manifest wherever it
    made its output directory."""

    # |gamma| near 0, near the case floor 1e-12 and near the bound 1e140
    GAMMAS = (0.0, 5e-324, 1e-300, 1e-12, -1e-12, 1e140, -1e140, math.nextafter(1e140, math.inf))
    CASE_GAMMAS = (1e-12, math.nextafter(1e-12, 0.0), 1e-13, 1.0, 1e140, math.nextafter(1e140, math.inf))
    # boxes from the default down past the smallest one parse admits (below
    # 7.57e-49 at n = 512, 1.06e-50 at n = 8)
    LENGTHS = (BOX, 1e-8, 1e-13, 7.6e-49, 1e-160)
    K5 = {"k": 5, "a": 0.5, "b": 1, "c": 1}
    # the arguments of an @example row, which overrides some of them
    BASE = dict(subcommand="simulate", n=64, length=BOX, profile={"shape": "peakon", "gamma": 1.0}, case_gamma=1.0,
                dt_max=1e-2, t_end=0.05, output_stride=1, levels=1, amplitude=0.1, params={"preset": "ch"})

    @settings(max_examples=30, deadline=None)
    @given(
        subcommand=st.sampled_from(["simulate", "peakon-verify", "mms", "lagrangian"]),
        n=st.sampled_from([8, 10, 16, 64]),
        length=st.sampled_from(LENGTHS),
        profile=st.one_of(st.builds(lambda g: {"shape": "peakon", "gamma": g}, st.sampled_from(GAMMAS)),
                          # a bump's width is drawn as ulps from L/4, the widest allowed on the drawn box
                          st.builds(lambda u: {"shape": "bump", "quarter_ulps": u}, st.sampled_from([-1, 0, 1]))),
        case_gamma=st.sampled_from(CASE_GAMMAS),
        dt_max=st.sampled_from([5e-324, 1e-3, 1e-2, 1e300]),
        t_end=st.sampled_from([math.nextafter(1e-12, math.inf), 1e-6, 0.05]),
        output_stride=st.sampled_from([1, 10**9, 2**70]),
        levels=st.sampled_from([1, 12]),
        amplitude=st.sampled_from([0.1, 1e150, -1e300, 5e-324]),
        params=st.sampled_from([{"preset": "ch"}, K5]),
    )
    @example(**dict(BASE, subcommand="peakon-verify", n=256, case_gamma=1e-13))
    # an mms forcing whose N(u0) is not finite, and a level whose error is exactly 0
    @example(**dict(BASE, subcommand="mms", n=32, amplitude=-1e300))
    @example(**dict(BASE, subcommand="mms", amplitude=1e60, params=K5))
    @example(**dict(BASE, subcommand="mms", n=8, t_end=1e-6, levels=2, amplitude=5e-324))
    # a Novikov mms start whose CFL speed overflows (a zero first step) or is finite but huge
    @example(**dict(BASE, subcommand="mms", n=16, amplitude=1e200, params={"preset": "novikov"}))
    @example(**dict(BASE, subcommand="mms", n=16, amplitude=1e150, params={"preset": "novikov"}))
    # peakon cases on tiny boxes: a flat start, and one whose first CFL step is above the step cap
    @example(**dict(BASE, subcommand="peakon-verify", n=512, length=1e-13, t_end=1e-9))
    @example(**dict(BASE, subcommand="peakon-verify", length=1e-10, t_end=1e-9))
    # boxes whose H^3 weight overflows, one below a normal double, and one
    # just above the smallest admitted at n = 512
    @example(**dict(BASE, subcommand="peakon-verify", n=512, length=1e-160, t_end=1e-9))
    @example(**dict(BASE, subcommand="lagrangian", n=512, length=1e-160))
    @example(**dict(BASE, subcommand="simulate", n=8, length=5e-324))
    @example(**dict(BASE, subcommand="simulate", n=512, length=7.6e-49))
    @example(**dict(BASE, subcommand="lagrangian", n=512, length=7.6e-49))
    def test_run_exits_with_a_documented_code(self, subcommand, n, length, profile, case_gamma, dt_max, t_end,
                                              output_stride, levels, amplitude, params):
        # each run sets the keys it reads, so that one rejected value does
        # not stop every run; the t_end drawn is the run's own
        t_end_key = {"peakon-verify": "peakon_verify.t_end", "mms": "mms.t_end"}.get(subcommand, "t_end")
        overrides = {"params": params, "grid.n": n, "grid.length": length, "dt_max": dt_max, t_end_key: t_end,
                     "output_stride": output_stride}
        if subcommand in ("simulate", "lagrangian"):
            if profile["shape"] == "bump":
                ulps = profile["quarter_ulps"]
                profile = {"shape": "bump", "width": math.nextafter(length / 4, ulps * math.inf) if ulps else length / 4}
            overrides["profile"] = profile
        if subcommand == "simulate":
            # the default fit window spans too few grid spacings below
            # n = 128; at n = 64 this one spans 17.6 and ends at the seam's bound
            overrides["fit.window"] = [0.1 * length, 0.375 * length]
        if subcommand == "peakon-verify":
            overrides["peakon_verify.cases"] = [{"preset": "ch", "gamma": case_gamma}]
        if subcommand == "mms":
            # one period, so that every n drawn passes the mms box rule, and
            # a dt0 no longer than the t_end drawn, which parse requires
            overrides.update({"mms.levels": levels, "grid.length": 2 * math.pi, "mms.dt0": t_end,
                              "mms.amplitude": amplitude})
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            argv = [subcommand, "--out", out]
            for key, value in overrides.items():
                argv += ["--set", f"{key}={json.dumps(value)}"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_BLOWUP, EXIT_CONFIG, EXIT_IO)
            assert "Traceback" not in err.getvalue()
            if code != EXIT_OK:
                assert len(err.getvalue().splitlines()) <= 1
            if os.path.exists(out):
                assert manifest_of(out)["result"]["exit"] == code
            if code == EXIT_BLOWUP:  # a stopped run writes what it reached
                assert manifest_of(out)["result"]["blew_up"] is True
                assert os.path.exists(os.path.join(out, "summary.csv"))


class TestReadme:
    @staticmethod
    def config_table():
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        return readme.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]

    def test_config_table_lists_every_top_level_key(self):
        listed = []
        for row in self.config_table().splitlines():
            if row.startswith("| `"):
                listed += re.findall(r"`([^`]+)`", row.split("|")[1])
        assert sorted(listed) == sorted(DEFAULT_CONFIG)

    def test_config_table_names_every_dotted_key(self):
        table = self.config_table()
        assert [key for key in _KEYS if f"`{key}`" not in table] == []

    def test_config_table_names_only_existing_keys(self):
        # a backticked block.leaf in the table is a key, unless it names an
        # artifact file
        blocks = {key.split(".")[0] for key in _KEYS if "." in key}
        named = [span for span in re.findall(r"`([a-z_]+\.[a-z_]+)`", self.config_table())
                 if span.split(".")[0] in blocks and not span.endswith((".csv", ".json"))]
        assert named and [key for key in named if key not in _KEYS] == []

    def test_profile_row_names_exactly_the_shape_keys(self):
        # the check above sees no key inside a block: the profile row names
        # each shape with the one key it reads, and no other profile key
        prefix = "| `profile` |"
        row = next(r for r in self.config_table().splitlines() if r.startswith(prefix))[len(prefix):]
        shapes = {shape: key for shape, (key, _, _) in _PROFILE_SHAPES.items()}
        assert dict(re.findall(r"`([a-z_]+)` \(`([a-z_]+)`", row)) == shapes
        assert set(re.findall(r"`([a-z_]+)`", row)) <= {"shape", *shapes, *shapes.values()}

    def test_config_table_names_only_existing_presets(self):
        listed = re.search(r"`preset` one of `([^`]+)`", self.config_table()).group(1).split(", ")
        assert set(_FIXED_PRESETS) <= set(listed)
        for name in listed:
            try:
                preset(name)
            except TypeError:  # a parameterized preset, called without its parameters
                pass

    def test_experiment_commands_parse(self):
        # each kabc command of the experiments block resolves as written
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Experiments from the command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("kabc ")]
        assert len(commands) == 5
        for command in commands:
            _, subcommand, *rest = shlex.split(command)
            assert rest[::2] == ["--set"] * (len(rest) // 2) and len(rest) % 2 == 0, command
            parse_config(None, rest[1::2], subcommand)

    def test_synopsis_names_exactly_the_flags(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        synopsis = readme.split("## Command line", 1)[1].split("```", 2)[1]
        assert re.search(r"kabc (\S+)", synopsis).group(1).split("|") == list(SUBCOMMANDS)
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        flags = set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"}
        assert set(re.findall(r"--[a-z]+", synopsis)) == flags

    def test_artifact_bullets_name_exactly_the_subcommands(self):
        # with the synopsis check above, a runner added or deleted cannot be
        # missing from, or linger in, the docs
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("Artifacts per subcommand", 1)[1].split("\nIdentical configurations", 1)[0]
        assert re.findall(r"^- `([a-z-]+)`:", section, re.M) == list(SUBCOMMANDS)
