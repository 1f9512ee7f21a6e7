"""kabc benchmark runner.

    python3 bench/run.py --workload peakon-8192|mms-128|lagrangian-1024|all
                         --seed N --seconds S --trace 0|1

Run from the repository root.  Every kabc run is a fresh child process
(``python -m kabc.cli <subcommand>`` with ``PYTHONPATH=src``), one at a
time, with BLAS and OpenMP threads set to 1.  A run of the benchmark:

1. writes the workload's inputs (made from ``--seed``) to a scratch
   directory under ``.bench_work/``;
2. makes one traced kabc run (see ``tracer.py``): it warms the caches,
   gives the deterministic counters, and its artifacts are checked in full
   against the exact references;
3. for ``--seconds`` seconds (at least ``MIN_CYCLES`` cycles), repeats a
   cycle of one set-up probe and one untraced kabc run, plus one traced run
   with ``--trace 1``.  Every run's numeric artifacts must be
   byte-identical to the checked ones; any run that exits non-zero, misses
   an artifact, or fails the check counts as failed.

It prints one line per metric (value, unit, sample count) and, last, one
JSON object: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  Exit
status is 0 when a result was printed, whether or not every run passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads as wl
from tracer import RHS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(BENCH_DIR, "tracer.py")
MIN_CYCLES = 3
CHILD_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Counters that must repeat exactly from one traced run to the next.
COUNTERS = ("dynamics.steps", "dynamics.rhs_calls", "spectral.fft_calls", "spectral.fft_in_rhs")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a failed run)."""


class Child:
    """One finished child process: exit code, wall time from spawn to exit,
    and the child's own peak resident set size."""

    def __init__(self, cmd, env, cwd, err_path):
        with open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                        proc.kill()
                finally:
                    os.close(pidfd)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        self.wall_s = time.monotonic() - start
        self.start = start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.err_path = err_path

    def stderr_tail(self) -> str:
        with open(self.err_path, errors="replace") as fh:
            return fh.read()[-500:]


class Session:
    """The child processes of one benchmark run, and their bookkeeping."""

    def __init__(self, root, work, workload, seed):
        self.root, self.work, self.workload = root, work, workload
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.update({v: "1" for v in THREAD_VARS})
        self.args = [workload.subcommand, "--config", wl.write_config(workload, work, seed)]
        self.attempted = 0
        self.failures = []
        self.reference = None  # digests of the checked artifacts
        self.check = None
        self.counters = None

    def _path(self, name):
        return os.path.join(self.work, name)

    def _fresh(self, name):
        """Path of a child's output, with what a previous child left there removed."""
        path = self._path(name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
        return path

    def _problem(self, child, out):
        """Why one kabc run failed, or None: exit code, missing artifacts, the
        check of the first run's artifacts, or a later run's that differ."""
        if child.code != 0:
            return f"exit code {child.code}: {child.stderr_tail()}"
        missing = [n for n in self.workload.artifacts if not os.path.isfile(os.path.join(out, n))]
        if missing:
            return f"missing artifacts {missing}"
        digests = wl.artifact_digests(out)
        if self.reference is None:
            self.check = self.workload.check(out)
            self.reference = digests
            return None if self.check.ok else self.check.detail
        if digests != self.reference:
            return "numeric artifacts differ from the checked run's"
        return None

    def _record(self, what, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
            print(f"FAILED {what}: {problem}", file=sys.stderr)

    def probe(self) -> float:
        stamp = self._fresh("run_entry")
        cmd = [sys.executable, TRACER, "probe", stamp, *self.args, "--out", self._fresh("out_probe")]
        child = Child(cmd, self.env, self.root, self._path("probe.err"))
        if child.code != 0 or not os.path.isfile(stamp):
            raise BenchError(f"set-up probe failed (exit {child.code}): {child.stderr_tail()}")
        with open(stamp) as fh:
            return float(fh.read()) - child.start

    def untraced(self):
        out = self._fresh("out")
        cmd = [sys.executable, "-m", "kabc.cli", *self.args, "--out", out]
        child = Child(cmd, self.env, self.root, self._path("untraced.err"))
        self._record("untraced run", self._problem(child, out))
        return child

    def traced(self):
        """One traced run; its per-layer metrics, or None if it left no trace.
        It fails, besides as any run does, if a layer the workload exercises
        records no span or a counter differs from the first traced run's."""
        out, report_path = self._fresh("out_traced"), self._fresh("trace.json")
        cmd = [sys.executable, TRACER, "trace", report_path, *self.args, "--out", out]
        child = Child(cmd, self.env, self.root, self._path("traced.err"))
        problem = self._problem(child, out)
        layer = None
        if os.path.isfile(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
            layer = layer_metrics(report, out)
            seen = {name.split(".", 1)[0] for name, count in report["calls"].items() if count}
            unseen = sorted(set(self.workload.layers) - seen)
            counters = {name: layer[name] for name in COUNTERS}
            self.counters = self.counters or counters
            if unseen:
                problem = problem or f"no span recorded in layers {unseen}"
            if counters != self.counters:
                problem = problem or f"counters changed: {self.counters} -> {counters}"
        self._record("traced run", problem)
        return child, layer


def layer_metrics(report, out_dir) -> dict:
    """Per-layer metrics from one traced run's aggregated spans."""
    calls, self_s, incl = report["calls"], report["self_s"], report["incl_s"]
    fft, rhs = report["fft"], RHS
    steps = calls["dynamics.rk4_step"]
    files = [os.path.join(out_dir, n) for n in os.listdir(out_dir)]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "spectral.fft_calls": fft["calls"],
        "spectral.fft_in_rhs": fft["in_rhs"],
        "spectral.fft_per_rhs": ratio(fft["in_rhs"], calls[rhs]),
        "spectral.fft_s": fft["s"],
        "spectral.fft_gflop_computed": fft["flop"] / 1e9,
        "spectral.fft_gflops": ratio(fft["flop"] / 1e9, fft["s"]),
        "spectral.fft_mb_computed": fft["bytes"] / 1e6,
        "spectral.upsample_self_s": self_s["spectral.SpectralOps.upsample"],
        "spectral.reduce_hat_self_s": self_s["spectral.SpectralOps.reduce_hat"],
        "dynamics.steps": steps,
        "dynamics.rhs_calls": calls[rhs],
        "dynamics.rhs_per_step": ratio(calls[rhs], steps),
        "dynamics.rhs_s": incl[rhs],
        "dynamics.rhs_self_s": self_s[rhs],
        "dynamics.cfl_s": incl["dynamics.cfl_dt"],
        "dynamics.step_loop_self_s": self_s["dynamics.simulate"] + self_s["dynamics.rk4_step"],
        "dynamics.forcing_s": incl.get("dynamics.forcing", 0.0),
        "diagnostics.sobolev_calls": calls["diagnostics.sobolev_norm"],
        "diagnostics.sobolev_s": incl["diagnostics.sobolev_norm"],
        "diagnostics.crest_s": incl["diagnostics.crest"],
        "lagrangian.advect_s": incl["lagrangian.advect"],
        "lagrangian.interp_calls": calls["lagrangian.cubic_interp_periodic"],
        "lagrangian.interp_s": incl["lagrangian.cubic_interp_periodic"],
        "lagrangian.momentum_calls": calls["lagrangian.momentum"],
        "lagrangian.check_s": incl["lagrangian.conservation_check"],
        "exact.profile_s": incl["exact"],
        "cli.parse_config_s": incl["cli.parse_config"],
        "cli.self_s": report["cli_self_in_run_s"],
        "cli.artifact_bytes": sum(os.path.getsize(f) for f in files),
        "cli.artifact_files": len(files),
    }
    return metrics


def environment(workload) -> dict:
    def cache_size(index):
        try:
            with open(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size") as fh:
                return fh.read().strip()
        except OSError:
            return "unknown"

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": cache_size(2),
        "l3": cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: "1" for v in THREAD_VARS},
        "rhs_working_set_bytes_computed": workload.working_set_bytes(),
        "memory_bandwidth": "not claimed",
        "seed_used": workload.uses_seed,
    }


def measure(workload, seed, seconds, trace, root) -> dict:
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(root, ".bench_work"))
    try:
        session = Session(root, work, workload, seed)
        _, reference = session.traced()
        if reference is None:
            raise BenchError("the first traced run failed: " + "; ".join(session.failures))
        walls, rss, setups, traced_walls, layers = [], [], [], [], []
        start, cycles = time.monotonic(), 0
        while cycles < MIN_CYCLES or time.monotonic() - start < seconds:
            setups.append(session.probe())
            child = session.untraced()
            walls.append(child.wall_s)
            rss.append(child.rss_mb)
            if trace:
                child, layer = session.traced()
                traced_walls.append(child.wall_s)
                if layer is not None:
                    layers.append(layer)
            cycles += 1
        samples = {"runs": len(walls), "probes": len(setups), "traced": len(traced_walls)}
        if trace:
            metrics = per_layer(layers or [reference], walls, traced_walls)
            counts = {name: len(layers) for name in metrics}
            counts["trace.overhead_s"] = min(len(walls), len(traced_walls))
        else:
            wall_s, setup_s = statistics.median(walls), statistics.median(setups)
            metrics = {
                "wall_s": wall_s,
                "setup_s": setup_s,
                "steps_per_s": reference["dynamics.steps"] / (wall_s - setup_s),
                "peak_rss_mb": statistics.median(rss),
                "accuracy_err": session.check.accuracy_err,
            }
            # accuracy_err: one check, shared by every run whose artifacts matched it
            counts = {"wall_s": len(walls), "setup_s": len(setups), "steps_per_s": len(walls),
                      "peak_rss_mb": len(rss), "accuracy_err": session.attempted - len(session.failures)}
        return {
            "attempted": session.attempted,
            "failed": len(session.failures),
            "metrics": metrics,
            "samples": samples,
            "counts": counts,
            "check": session.check.detail,
            "wall_range": (min(walls), max(walls)),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def per_layer(layers, walls, traced_walls) -> dict:
    """Counters from the first traced run, times as medians over all."""
    out = {}
    for name in layers[0]:
        if name.endswith("_s") or name.endswith("gflops"):
            out[name] = statistics.median(layer[name] for layer in layers)
        else:
            out[name] = layers[0][name]
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return out


def load_spec(root) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(workload, result, spec, trace) -> dict:
    """Print one line per metric and return the JSON result object."""
    group = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    n = result["samples"]
    print(f"workload {workload.name}: {result['check']}")
    print(f"samples: {n['runs']} untraced runs, {n['probes']} set-up probes, {n['traced']} traced runs")
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:32s} {value:>16.6g} {unit:8s} n={result['counts'][name]}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':32s} {rate:>16.6g} 1  ({result['failed']} failed of {result['attempted']} runs)")
    lo, hi = result["wall_range"]
    print(f"  wall_s range {lo:.4f} .. {hi:.4f} s over {n['runs']} runs")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None, workloads=wl.FULL) -> int:
    by_name = {w.name: w for w in workloads}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*by_name, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kabc", "cli.py")):
        print("bench: no kabc sources under src/kabc; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    spec = load_spec(root)
    names = list(by_name) if args.workload == "all" else [args.workload]
    for name in names:
        workload = by_name[name]
        print("env " + json.dumps(environment(workload)))
        if not workload.uses_seed:
            print(f"seed {args.seed} ignored: {name} starts from closed-form data")
        try:
            result = measure(workload, args.seed, args.seconds, args.trace, root)
        except BenchError as err:
            print(f"bench: {err}", file=sys.stderr)
            return 1
        print(json.dumps(report(workload, result, spec, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
