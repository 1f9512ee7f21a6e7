"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run with -s to see them).  Criteria 3 to 8 run their experiment through
the CLI's own parse_config and compute_* functions; heavy runs are shared
through module-scoped fixtures.  Criterion 10 re-inspects the growth-bound
record of every run the other criteria made.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from kabc import cli
from kabc.cli import parse_config, run, write_snapshot
from kabc.dynamics import SimConfig, simulate
from kabc.exact import bump_values
from kabc.params import preset
from kabc.spectral import Field, Grid, get_ops
from oracles import local_form_residual, rhs

BOX = 40 * math.pi


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}"
    print("\n" + line)
    assert ok, line


def band_limited(grid, max_mode, seed, amp=0.25):
    rng = np.random.default_rng(seed)
    coef = np.zeros(grid.n // 2 + 1, dtype=complex)
    coef[1 : max_mode + 1] = rng.normal(size=max_mode) + 1j * rng.normal(size=max_mode)
    v = np.fft.irfft(coef, grid.n)
    return Field(grid, v * (amp / np.max(np.abs(v))))


SOFTBOUNDS = []  # (label, growth-bound record) of every run, for criterion 10


def spec_of(subcommand, **config):
    """The RunSpec that `kabc <subcommand>` resolves from these config keys."""
    return parse_config(None, [f"{key}={json.dumps(val)}" for key, val in config.items()], subcommand)


def profile_file(tmp_path_factory, u0):
    """A `file` profile block holding u0 (snapshots round-trip bitwise)."""
    path = tmp_path_factory.mktemp("profile") / "u0.csv"
    write_snapshot(u0, path)
    return {"shape": "file", "path": str(path)}


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def peakon_runs():
    cases = [("ch", 1.0, 1.0), ("dp", 1.0, 1.0), ("novikov", math.sqrt(2.0), 2.0), ("forq", 1.0, 2.0 / 3.0)]
    block = {"cases": [{"preset": name, "gamma": gamma} for name, gamma, _ in cases], "t_end": 5.0}
    # the 15.82*pi box a peakon needs (its tail is below 1e-16 at a
    # half-width of 37), at the grid spacing of n = 8192 on BOX; n = 2^3 3^4 5
    # pads to the FFT-friendly 4860 and 6480
    spec = spec_of("peakon-verify", grid={"n": 3240, "length": 3240 * BOX / 8192}, output_stride=8,
                   peakon_verify=block)
    t0 = time.perf_counter()
    _, tables, extras = cli.compute_peakon_verify(spec)
    elapsed = time.perf_counter() - t0
    SOFTBOUNDS.extend((f"peakon-{name}", sb) for (name, _, _), sb in zip(cases, extras["softbound"]))
    speeds = {name: (expect, row[3]) for (name, _, expect), row in zip(cases, tables["speeds.csv"][1])}
    return speeds, elapsed


@pytest.fixture(scope="module")
def h1_runs(tmp_path_factory):
    grid = Grid(512, BOX)
    x = grid.nodes
    profile = profile_file(tmp_path_factory, Field(grid, 0.5 * np.sin(x) * bump_values(x - grid.length / 2, 10.0)))
    violator = {"k": 2, "a": 0.0, "b": 1.0, "c": 1.0}
    cases = [("novikov", {"preset": "novikov"}), ("forq", {"preset": "forq"}), ("violator", violator)]
    box = {"n": 512, "length": BOX}
    out = {}
    t0 = time.perf_counter()
    for label, params in cases:
        spec = spec_of("simulate", params=params, grid=box, profile=profile, t_end=1.0, dt_max=5e-3)
        _, tables, extras = cli.compute_simulate(spec)
        SOFTBOUNDS.append((f"h1-{label}", extras["softbound"]))
        out[label] = tables["summary.csv"][1][0][3]  # h1_drift
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def persistence_runs():
    profile = {"shape": "exp_tail", "theta": 0.5}
    grid = {"n": 2048, "length": BOX}
    out = {}
    t0 = time.perf_counter()
    for name in ("ch", "novikov"):
        spec = spec_of("simulate", params={"preset": name}, grid=grid, profile=profile, t_end=1.0, output_stride=10)
        _, tables, extras = cli.compute_simulate(spec)
        SOFTBOUNDS.append((f"persistence-{name}", extras["softbound"]))
        header, (row,) = tables["summary.csv"]
        rows = tables["diagnostics.csv"][1]
        out[name] = (dict(zip(header, row)), min(min(r[7] for r in rows), min(r[9] for r in rows)))  # r2, r2_ux
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bump_run():
    profile = {"shape": "bump", "width": 2.0}
    grid = {"n": 2048, "length": BOX}
    spec = spec_of("simulate", grid=grid, profile=profile, t_end=0.1, dt_max=5e-3, fit={"window": [5.0, 11.0]})
    t0 = time.perf_counter()
    _, tables, extras = cli.compute_simulate(spec)
    elapsed = time.perf_counter() - t0
    SOFTBOUNDS.append(("bump-radiation", extras["softbound"]))
    x, u = tables["final.csv"][1].T
    return (tables["diagnostics.csv"][1][-1], x, u), elapsed  # the final snapshot's fit row


@pytest.fixture(scope="module")
def lagrangian_runs(tmp_path_factory):
    def residual(n, dtm):
        grid = Grid(n, 2 * math.pi)
        x = grid.nodes
        seeds = np.linspace(0.0, grid.length, 16, endpoint=False) + 0.1
        spec = spec_of(
            "lagrangian", params={"preset": "novikov"}, grid={"n": n, "length": grid.length},
            profile=profile_file(tmp_path_factory, Field(grid, 0.3 * np.sin(x) + 0.1 * np.cos(2 * x) + 0.05)),
            t_end=0.5, dt_max=dtm, lagrangian={"seeds": seeds.tolist()},
        )
        _, _, extras = cli.compute_lagrangian(replace(spec, out_dir=str(tmp_path_factory.mktemp("lagrangian"))))
        SOFTBOUNDS.append((f"lagrangian-n{n}", extras["softbound"]))
        return extras["max_invariant_residual"]

    t0 = time.perf_counter()
    res = {n: residual(n, dtm) for n, dtm in ((256, 5e-3), (512, 2.5e-3), (1024, 1.25e-3))}
    return res, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_spectral_kernels():
    t0 = time.perf_counter()
    worst = {"roundtrip": 0.0, "parseval": 0.0, "helmholtz_id": 0.0, "green_dx_id": 0.0, "self_adjoint": 0.0}
    for n in (64, 256):
        grid = Grid(n, 2 * math.pi)
        ops = get_ops(grid)
        for seed in range(5):
            f = band_limited(grid, n // 3, seed)
            g = band_limited(grid, n // 3, seed + 100)
            scale = max(1.0, float(np.max(np.abs(f.values))))

            rt = np.fft.irfft(f.hat, n)
            worst["roundtrip"] = max(worst["roundtrip"], np.max(np.abs(rt - f.values)) / scale)

            phys = float(np.sum(f.values**2) * grid.dx)
            cnt = np.full(n // 2 + 1, 2.0)
            cnt[0] = cnt[-1] = 1.0
            spec = float(np.sum(cnt * np.abs(f.hat) ** 2) * grid.length / n**2)
            worst["parseval"] = max(worst["parseval"], abs(phys - spec) / max(phys, 1.0))

            hf = ops.apply(f.values, ops.helmholtz)
            w = Field(grid, hf)
            back = w.values - ops.deriv(w.hat, 2)
            worst["helmholtz_id"] = max(worst["helmholtz_id"], np.max(np.abs(back - f.values)) / scale)

            lhs = ops.deriv(np.fft.rfft(ops.apply(f.values, ops.green_dx)), 1)
            rhs_ = hf - f.values
            worst["green_dx_id"] = max(worst["green_dx_id"], np.max(np.abs(lhs - rhs_)) / scale)

            hg = ops.apply(g.values, ops.helmholtz)
            sa = abs(float(np.sum(hf * g.values) * grid.dx) - float(np.sum(f.values * hg) * grid.dx))
            worst["self_adjoint"] = max(worst["self_adjoint"], sa / scale)
    elapsed = time.perf_counter() - t0
    ok = (
        worst["roundtrip"] < 1e-12
        and worst["parseval"] < 1e-12
        and worst["helmholtz_id"] < 1e-10
        and worst["green_dx_id"] < 1e-10
        and worst["self_adjoint"] < 1e-12
        and elapsed < 5.0
    )
    report(1, "spectral kernel suite", ok, f"worst={worst} elapsed={elapsed:.2f}s")


def test_criterion_2_local_nonlocal_equivalence():
    t0 = time.perf_counter()
    grid = Grid(256, 2 * math.pi)
    worst = 0.0
    for name in ("ch", "dp", "novikov", "forq"):
        p = preset(name)
        for seed in range(20):
            u = band_limited(grid, grid.n // 6, seed)
            res = local_form_residual(u, rhs(u, p), p)
            worst = max(worst, float(np.max(np.abs(res.values))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report(2, "local/nonlocal equivalence", ok, f"max residual={worst:.3e} elapsed={elapsed:.1f}s")


def test_criterion_3_mms_convergence():
    t0 = time.perf_counter()
    detail = []
    ok = True
    for name in ("novikov", "forq"):
        mms = {"amplitude": 0.1, "dt0": 1.0 / 16, "levels": 5, "t_end": 1.0}  # dt halved 4 times
        spec = spec_of("mms", params={"preset": name}, grid={"n": 128, "length": 2 * math.pi}, mms=mms)
        _, tables, _ = cli.compute_mms(spec)
        rows = tables["mms.csv"][1]
        errors = [r[1] for r in rows]
        orders = [r[2] for r in rows[1:]]
        ok = ok and all(abs(o - 4.0) <= 0.2 for o in orders) and errors[-1] <= 1e-8
        detail.append(f"{name}: orders={[f'{o:.2f}' for o in orders]} finest={errors[-1]:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(3, "manufactured-solution temporal order", ok, "; ".join(detail) + f" elapsed={elapsed:.1f}s")


def test_criterion_4_peakon_speeds(peakon_runs):
    runs, elapsed = peakon_runs
    detail = []
    ok = True
    for name, (expect, speed) in runs.items():
        rel = abs(speed - expect) / abs(expect)
        ok = ok and rel <= 0.02
        detail.append(f"{name}: {speed:.4f} vs {expect:.4f} ({rel:.2%})")
    ok = ok and elapsed < 300.0
    report(4, "peakon wave speeds", ok, "; ".join(detail) + f" elapsed={elapsed:.1f}s")


def test_criterion_5_h1_conservation_dichotomy(h1_runs):
    drifts, elapsed = h1_runs
    ok = (
        drifts["novikov"] <= 1e-7
        and drifts["forq"] <= 1e-7
        and drifts["violator"] >= 1e-4
        and elapsed < 120.0
    )
    report(
        5,
        "H1 conservation dichotomy",
        ok,
        f"novikov={drifts['novikov']:.2e} forq={drifts['forq']:.2e} "
        f"violator={drifts['violator']:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_6_tail_persistence(persistence_runs):
    reports, elapsed = persistence_runs
    ok = True
    detail = []
    for name, (summary, r2_min) in reports.items():
        theta_min = min(summary["min_theta_u"], summary["min_theta_ux"])
        floor = summary["any_floor_hit"]
        ok = ok and theta_min >= 0.45 and r2_min >= 0.995 and not floor
        detail.append(f"{name}: min theta={theta_min:.3f} min r2={r2_min:.4f} floor={floor}")
    ok = ok and elapsed < 120.0
    report(6, "exponential tail persistence", ok, "; ".join(detail) + f" elapsed={elapsed:.1f}s")


def test_criterion_7_compact_data_radiates_tail(bump_run):
    (final_fit, x, u), elapsed = bump_run
    theta_hat, r2 = final_fit[5], final_fit[7]  # theta_hat_u, r2 columns of diagnostics.csv
    window = (5.0, 11.0)
    d = x - BOX / 2
    sel = (d >= window[0]) & (d <= window[1])
    amp = float(np.max(np.abs(u[sel])))
    ok = abs(theta_hat - 1.0) <= 0.1 and amp > 1e-12 and elapsed < 60.0
    report(
        7,
        "compact data radiates an e^{-x} tail",
        ok,
        f"theta_hat={theta_hat:.4f} r2={r2:.5f} tail_amp={amp:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_8_characteristic_conservation(lagrangian_runs):
    res, elapsed = lagrangian_runs
    ok = (
        res[512] <= 1e-4
        and res[512] <= res[256] / 2.0
        and res[1024] <= res[512] / 2.0
        and elapsed < 120.0
    )
    report(
        8,
        "momentum conservation along characteristics",
        ok,
        f"residuals n256={res[256]:.2e} n512={res[512]:.2e} n1024={res[1024]:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_9_scaling_symmetry():
    t0 = time.perf_counter()
    p = preset("novikov")
    lam, k, t_end = 2.0, 2, 0.5
    grid = Grid(128, 2 * math.pi)
    u0 = Field(grid, 0.25 * np.sin(grid.nodes) + 0.1 * np.cos(2 * grid.nodes))
    cfg_a = SimConfig(params=p, grid=grid, t_end=t_end, dt_max=2e-3, output_stride=10**9)
    cfg_b = SimConfig(params=p, grid=grid, t_end=t_end / lam**k, dt_max=2e-3 / lam**k, output_stride=10**9)
    ta = simulate(cfg_a, u0)
    tb = simulate(cfg_b, Field(grid, lam * u0.values))
    SOFTBOUNDS.extend([("scaling-base", ta.softbound()), ("scaling-rescaled", tb.softbound())])
    va = lam * ta.final.values
    vb = tb.final.values
    rel = float(np.max(np.abs(va - vb)) / np.max(np.abs(vb)))
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-6 and elapsed < 60.0
    report(9, "scaling symmetry", ok, f"rel diff={rel:.2e} elapsed={elapsed:.1f}s")


def test_criterion_10_growth_bound_recorded(tmp_path):
    # warn-only: the heuristic H^s growth bound 2^{1+1/k} ||u0|| must be
    # recorded for every run above; exceedances are reported, not failed
    assert SOFTBOUNDS, "no growth-bound records were collected"
    exceeded = []
    for label, sb in SOFTBOUNDS:
        assert sb["bound"] == sb["bound_factor"] * sb["hs0"]
        assert sb["sup_hs"] >= 0.0  # record exists
        if sb["exceeded_t"] is not None:
            exceeded.append(f"{label} at t={sb['exceeded_t']:.3f}")
        else:
            assert sb["hs0"] == 0.0 or sb["sup_hs"] <= sb["bound"]

    # the cli manifest must carry the same record
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"preset": "novikov"},
        "profile": {"shape": "exp_tail", "theta": 0.5},
        "grid": {"n": 256, "length": BOX},
        "t_end": 0.1,
    }))
    out = tmp_path / "out"
    assert run(parse_config(str(cfg), [], "simulate", str(out))) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    sb = manifest["result"]["softbound"]
    ok = {"hs0", "sup_hs", "bound_factor", "bound", "exceeded_t"} <= set(sb)
    detail = f"{len(SOFTBOUNDS)} runs checked"
    if exceeded:
        detail += "; WARN exceeded: " + ", ".join(exceeded)
    report(10, "H^s growth bound recorded (warn-only)", ok, detail)
