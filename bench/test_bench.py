"""Tests of the benchmark itself, at smoke sizes of each workload.

    python -m pytest -q bench/test_bench.py

Run from the repository root.  Each test spawns real kabc child processes,
so the file takes about half a minute.
"""

import dataclasses
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SMOKE = {w.name: w for w in wl.SMOKE}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _session(workload, tmp_path):
    return run.Session(ROOT, str(tmp_path), workload, seed=7)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMOKE))
def test_printed_metrics_match_benchmark_json(name, trace, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, workloads=wl.SMOKE) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    group = _spec()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in group}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_counters_repeat_exactly(name, tmp_path):
    session = _session(SMOKE[name], tmp_path)
    _, first = session.traced()
    _, second = session.traced()
    assert session.failures == []
    for counter in run.COUNTERS + ("dynamics.rhs_per_step", "spectral.fft_per_rhs"):
        assert first[counter] == second[counter], counter


def _one_case(preset):
    case = next(c for c in wl.PEAKON_CASES if c[0] == preset)
    return dataclasses.replace(SMOKE["peakon-2048"], cases=(case,))


@pytest.mark.parametrize(
    "workload, fft_per_rhs, rhs_per_step",
    [
        (_one_case("ch"), 9, 4),
        (_one_case("dp"), 9, 4),
        (_one_case("novikov"), 10, 4),
        (_one_case("forq"), 10, 4),
        (SMOKE["mms-32"], 10, 8),  # the forcing evaluates the RHS again at every stage
        (SMOKE["lagrangian-256"], 10, 4),
    ],
    ids=["ch", "dp", "novikov", "forq", "mms", "lagrangian"],
)
def test_counters_match_the_code(workload, fft_per_rhs, rhs_per_step, tmp_path):
    _, layer = _session(workload, tmp_path).traced()
    assert layer["spectral.fft_per_rhs"] == fft_per_rhs
    assert layer["dynamics.rhs_per_step"] == rhs_per_step


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "mms-32", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv, workloads=wl.SMOKE) != 0
    assert capsys.readouterr().out == ""
