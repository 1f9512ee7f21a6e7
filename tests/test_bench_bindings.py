"""The benchmark reads kabc's bindings by name.

``bench/tracer.py trace`` wraps kabc's module functions and ``cli._RUNNERS``
from outside, and ``bench/run.py``'s ``layer_metrics`` looks the wrapped
names up in its report, so a renamed or removed binding fails every
benchmark run.  This runs the benchmark's own traced run at smoke size
(small enough for the test suite) and checks that it yields every
per-layer metric that ``BENCHMARK.json`` lists, with the deterministic
step, RHS and FFT counts pinned exactly, so a change in the work a run does
shows up here.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH_DIR)
    try:
        import run
        import workloads
    finally:
        sys.path.remove(BENCH_DIR)
    return run, workloads


# (dynamics.steps, dynamics.rhs_calls, spectral.fft_calls,
# lagrangian.interp_calls) of each smoke run; the tracer counts transform
# calls, and every smoke size stacks the RHS rows into 2 calls
# (dynamics.STACK_MAX_M); the particles interpolate once at release and 4
# times per stored state after it
SMOKE_COUNTS = {"peakon-2048": (242, 968, 2482, 0), "mms-32": (30, 121, 333, 0), "lagrangian-256": (20, 80, 245, 81)}


@pytest.mark.parametrize("name", sorted(SMOKE_COUNTS))
def test_traced_smoke_run_yields_every_layer_metric(bench, name, tmp_path):
    run, workloads = bench
    workload = next(w for w in workloads.SMOKE if w.name == name)
    session = run.Session(ROOT, str(tmp_path), workload, seed=7)
    _, layer = session.traced()  # spawns tracer.py trace, then run.layer_metrics
    assert session.failures == []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    # trace.overhead_s compares traced and untraced wall times across runs
    assert listed - {"trace.overhead_s"} <= set(layer)
    keys = ("dynamics.steps", "dynamics.rhs_calls", "spectral.fft_calls", "lagrangian.interp_calls")
    counts = tuple(layer[key] for key in keys)
    assert counts == SMOKE_COUNTS[name]
