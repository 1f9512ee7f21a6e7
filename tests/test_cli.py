import concurrent.futures
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
from hypothesis import given, settings, strategies as st

from kabc.cli import (
    CSV_BLOCK_ROWS,
    DEFAULT_CONFIG,
    ConfigError,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    SUBCOMMANDS,
    RunSpec,
    _KEYS,
    _PROFILE_SHAPES,
    _RUNNERS,
    _write_csv,
    build_profile,
    compute_lagrangian,
    main,
    parse_config,
    read_snapshot,
    run,
    write_snapshot,
)
from kabc.params import _FIXED_PRESETS, preset
from kabc.spectral import Field, Grid


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def manifest_of(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


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
        ],
        ids=["fit-window", "unknown-key", "non-mapping", "values-not-list", "key-not-string"],
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
            ({"preset": "ch", "gamma": 0}, "gamma must be finite and > 0"),
            ({"preset": "ch", "gamma": -1}, "gamma must be finite and > 0"),
            ({"preset": "ch", "gamma": 1e153}, "gamma must be finite and > 0 and at most 1e+140"),
        ],
        ids=["unknown-preset", "extra-key", "gamma-zero", "gamma-negative", "gamma-above-bound"],
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


def test_gamma_ceiling_is_inclusive():
    # 1e153 and -1e141 are rows of the tests above
    cases = '[{"preset": "ch", "gamma": 1e140}]'
    spec = parse_config(None, ["profile.gamma=-1e140", f"peakon_verify.cases={cases}"], "simulate")
    assert spec.profile[1] == -1e140 and spec.peakon_cases[0][2] == 1e140


def test_mms_levels_ceiling_is_inclusive():
    # 13 is a row of the test above
    assert _KEYS["mms.levels"][1](12, "mms.levels") == 12


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
        # this k = 3 peakon goes non-finite near t = 0.033, after about 2,400
        # steps; each run that steps one trajectory names the blow-up in its
        # manifest, with no numpy warning.  Its partial output holds finite
        # states only (the invariant_residual column is NaN by design: these
        # parameters are off the a = 0, c = (3k - b)/2 subfamily)
        for subcommand, partial, finite in (("simulate", "final.csv", ["x", "u"]),
                                            ("lagrangian", "particles.csv", ["seed", "t", "eta", "eta_x", "m_along"])):
            out = str(tmp_path / subcommand)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert run(parse_config(path, [], subcommand, out)) == EXIT_BLOWUP
            header, *rows = (line.split(",") for line in open(os.path.join(out, partial)).read().splitlines())
            table = np.array(rows, dtype=float)
            assert len(table) and np.all(np.isfinite(table[:, [header.index(name) for name in finite]]))
            result = manifest_of(out)["result"]
            assert result["exit"] == EXIT_BLOWUP and result["blew_up"] is True
            t = float(re.fullmatch(r"non-finite field after t = (\S+)", result["error"]).group(1))
            assert 0.0 <= t < 1.0

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
        run(parse_config(path, [], "simulate", out))
        snaps = sorted(p for p in os.listdir(out) if p.startswith("snap_"))
        assert len(snaps) >= 3
        first = read_snapshot(os.path.join(out, snaps[0]), grid=Grid(128, 40 * math.pi))
        assert first.grid.n == 128

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
        assert rows[0] == "dt,final_max_error,observed_order"
        orders = [float(r.split(",")[2]) for r in rows[2:]]
        assert all(abs(o - 4.0) < 0.5 for o in orders)

    def test_mms_level_cut_by_cfl_exits_3(self, tmp_path, capsys):
        # CH at amplitude 3 steps at the CFL step (0.018 to 0.033), not at
        # the level dt 0.1: its dt column and orders would be false
        out = tmp_path / "mms"
        argv = ["mms", "--out", str(out), "--set", 'params.preset="ch"', "--set", "grid.length=6.283185307179586",
                "--set", "grid.n=64", "--set", "mms.amplitude=3", "--set", "mms.dt0=0.1", "--set", "mms.levels=3"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("kabc: configuration error: mms.dt0")
        assert "CFL step" in err and "Traceback" not in err
        assert "mms.dt0" in manifest_of(out)["result"]["error"]
        assert not (out / "mms.csv").exists()

    def test_mms_level_blowup_exits_2(self, tmp_path, capsys):
        # CH at amplitude 1 and dt 0.09 goes non-finite near t = 54.5; the
        # collapsing steps before it must not read as a CFL cut (exit 3)
        out = tmp_path / "mms"
        argv = ["mms", "--out", str(out), "--set", 'params={"preset":"ch"}', "--set", "grid.n=64",
                "--set", "grid.length=6.283185307179586", "--set", "mms.amplitude=1", "--set", "mms.dt0=0.09",
                "--set", "mms.levels=1", "--set", "mms.t_end=60"]
        assert main(argv) == EXIT_BLOWUP
        assert capsys.readouterr().err == ""
        result = manifest_of(out)["result"]
        assert result["exit"] == EXIT_BLOWUP
        t = float(re.fullmatch(r"mms level 0 \(dt 0\.09\): non-finite field after t = (\S+)", result["error"]).group(1))
        assert 50.0 < t < 60.0
        assert not (out / "mms.csv").exists()

    def test_peakon_case_blowup_exits_2_and_keeps_its_row(self, tmp_path):
        # the k = 3 case goes non-finite near t = 0.16 (its crest would read
        # a speed of 2666 against 8); the other case still runs
        out = tmp_path / "pk"
        cases = [{"k": 3, "a": 0, "b": 0, "c": 0, "gamma": 2.0}, {"preset": "ch", "gamma": 1.0}]
        argv = ["peakon-verify", "--out", str(out), "--set", "grid.n=256",
                "--set", f"peakon_verify.cases={json.dumps(cases)}", "--set", "peakon_verify.t_end=0.5"]
        assert main(argv) == EXIT_BLOWUP
        rows = [line.split(",") for line in (out / "speeds.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["custom", "ch"]
        assert float(rows[0][2]) == 8.0
        assert math.isnan(float(rows[0][3])) and math.isnan(float(rows[0][4]))
        assert math.isfinite(float(rows[1][4]))
        summary = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert summary[0] == "2" and math.isnan(float(summary[1]))
        result = manifest_of(out)["result"]
        assert result["exit"] == EXIT_BLOWUP and math.isnan(result["worst_rel_err"])
        assert re.fullmatch(r"case 0: non-finite field after t = \S+", result["error"])
        assert len(result["softbound"]) == 2

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
    def test_particles_rows_seed_fastest(self, preset):
        # the array table equals, bitwise, the rows of a (time, seed) loop
        # with the seed fastest; forq is off the a = 0 subfamily (NaN residuals)
        from kabc import lagrangian
        from kabc.dynamics import simulate

        seeds = np.array([2.5, 2.75, 3.0, 3.25, 3.5])
        spec = parse_config(
            None,
            [f'params.preset="{preset}"', "grid.n=128", f"grid.length={2 * math.pi!r}",
             'profile={"shape": "bump", "width": 1.0}', "t_end=0.05", f"lagrangian.seeds={seeds.tolist()}"],
            "lagrangian",
        )
        code, tables, _ = compute_lagrangian(spec)
        assert code == EXIT_OK
        header, table = tables["particles.csv"]
        assert header == ("seed", "t", "eta", "eta_x", "m_along", "invariant_residual")

        states = []
        simulate(spec.sim, build_profile(spec), lambda rec, u: states.append((rec.t, u)))
        ps = [lagrangian.release(seeds, *states[0])]
        for t, u in states[1:]:
            ps.append(lagrangian.advect(ps[-1], t, u, spec.sim.params.k))
        m_along = np.array([lagrangian.momentum_along(u, p.eta) for (_, u), p in zip(states, ps)])
        stretch = np.array([p.etax for p in ps])
        try:
            res = lagrangian.invariant_residuals(stretch, m_along, spec.sim.params)
        except ValueError:
            res = np.full_like(m_along, math.nan)
        rows = []
        for j, p in enumerate(ps):
            for s in range(len(seeds)):
                rows.append((seeds[s], p.t, p.eta[s], p.etax[s], m_along[j][s], res[j][s]))
        assert table.dtype == np.float64 and table.shape == (len(rows), 6)
        assert table.tobytes() == np.array(rows).tobytes()
        assert np.all(np.isnan(table[:, 5])) == (preset == "forq")

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
def test_runners_read_only_the_resolved_values(subcommand, overrides):
    # the raw config is the manifest's record: emptying it after parse_config
    # must not change what the runner computes
    def tables_of(spec):
        _, tables, _ = _RUNNERS[subcommand](spec)
        return {name: (header, rows.tobytes() if isinstance(rows, np.ndarray) else repr(rows))
                for name, (header, rows) in tables.items()}

    expected = tables_of(parse_config(None, overrides, subcommand))
    spec = parse_config(None, overrides, subcommand)
    spec.config.clear()
    assert tables_of(spec) == expected


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
            (["simulate", "--set", "sobolev_s=3"], "unknown config keys: sobolev_s"),
            (["simulate", "--set", 'fit.side="right"'], "unknown config keys: fit.side"),
            (["peakon-verify", "--set", "peakon_verify.moll_width=0.1"],
             "unknown config keys: peakon_verify.moll_width"),
            (["simulate", "--set", 'profile={"shape": "peakon", "gamma": 1, "moll_width": 0.1}'],
             "unknown config keys: profile.moll_width"),
        ],
        ids=["n_seeds", "fit-theta", "bfam", "workers-flag", "removed-subcommand", "cfl_safety", "sobolev_s",
             "fit-side", "peakon_verify-moll_width", "profile-moll_width"],
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
        # run would never end, so it stops before its first step
        out = tmp_path / "out"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        argv = [sys.executable, "-m", "kabc.cli", "simulate", "--set", "grid.n=256", "--set", "profile.gamma=-1e140",
                "--set", "t_end=0.01", "--out", str(out)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("kabc: configuration error: t_end 0.01 at the first CFL step ")
        assert "Traceback" not in proc.stderr
        assert re.search(r"needs about \S+e\+\d+ steps, above the cap of 1e\+07$", manifest_of(out)["result"]["error"])
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
