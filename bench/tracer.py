"""Child process for the benchmark: a setup probe or a traced kabc run.

    python bench/tracer.py probe STAMP_FILE <kabc arguments...>
    python bench/tracer.py trace TRACE_FILE <kabc arguments...>

Both modes import ``kabc.cli`` and call ``cli.main`` with the given
arguments, which is what ``python -m kabc.cli`` does.

``probe`` writes ``time.monotonic()`` at the moment ``cli.run`` is entered
and exits 0 without running the experiment: the parent subtracts its own
spawn time to get the set-up time (interpreter start, ``import kabc`` and
``cli.parse_config``).

``trace`` wraps, from outside, every binding through which kabc reaches one
of its layers (module functions and their ``from``-import copies, the
``cli._RUNNERS`` table, the methods of ``RhsOperator`` and ``SpectralOps``
and ``numpy.fft.rfft``/``irfft``), runs the experiment, and writes the
aggregated spans as JSON.  Spans are aggregated as they close instead of
being stored one by one: a step of the mms workload closes about a hundred.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

# kabc modules measured as layers; params costs nothing measurable.
LAYERS = ("spectral", "dynamics", "diagnostics", "lagrangian", "exact", "cli")

# Bindings whose inclusive time is reported together: nested calls inside
# the group are not counted twice.
GROUPS = {
    "diagnostics.crest_track": "diagnostics.crest",
    "diagnostics.crest_positions": "diagnostics.crest",
}

RHS = "dynamics.RhsOperator.__call__"
CLASS_METHODS = {
    "dynamics": {"RhsOperator": ("__call__",)},
    "spectral": {"SpectralOps": ("upsample", "reduce_hat", "product", "deriv", "apply")},
}


class Tracer:
    """Stack of open spans plus per-name, per-group and per-layer totals.

    A span's self time is its duration minus the durations of the spans it
    directly encloses.  Inclusive time of a group (or layer) counts only
    its outermost spans, so re-entrant calls are not counted twice.
    """

    def __init__(self):
        self.stack = []  # open spans: [start, time covered by children]
        self.calls = {}
        self.self_s = {}
        self.incl_s = {}  # by group and by layer
        self.depth = {}
        self.cli_self_in_run = 0.0
        self.fft = {"calls": 0, "in_rhs": 0, "s": 0.0, "bytes": 0, "sizes": {}}

    def wrap(self, name, layer, fn):
        group = GROUPS.get(name, name)
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        for key in (group, layer):
            self.incl_s.setdefault(key, 0.0)
            self.depth.setdefault(key, 0)
        depth, incl, calls, self_s = self.depth, self.incl_s, self.calls, self.self_s
        stack, clock = self.stack, time.perf_counter
        in_cli = layer == "cli"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            depth[group] += 1
            depth[layer] += 1
            frame[0] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                own = dur - frame[1]
                self_s[name] += own
                if in_cli and depth.get("cli.run", 0):
                    self.cli_self_in_run += own
                depth[group] -= 1
                if not depth[group]:
                    incl[group] += dur
                depth[layer] -= 1
                if not depth[layer]:
                    incl[layer] += dur

        return traced

    def wrap_fft(self, fn, size_of):
        """numpy.fft kernel boundary: time, calls, transform sizes, bytes."""
        stack, clock, fft, depth = self.stack, time.perf_counter, self.fft, self.depth
        sizes = fft["sizes"]

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            start = clock()
            out = fn(a, *args, **kwargs)
            dur = clock() - start
            if stack:
                stack[-1][1] += dur
            fft["calls"] += 1
            fft["s"] += dur
            if depth.get(RHS, 0):
                fft["in_rhs"] += 1
            n = size_of(a, out)
            sizes[n] = sizes.get(n, 0) + 1
            fft["bytes"] += getattr(a, "nbytes", 0) + out.nbytes
            return out

        return traced

    def report(self) -> dict:
        fft = dict(self.fft)
        # 2.5 N log2 N per real transform of length N (computed, not counted)
        fft["flop"] = sum(c * 2.5 * n * math.log2(n) for n, c in fft["sizes"].items())
        fft["sizes"] = {str(n): c for n, c in sorted(fft["sizes"].items())}
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "incl_s": self.incl_s,
            "cli_self_in_run_s": self.cli_self_in_run,
            "fft": fft,
        }


def _is_kabc_callable(obj, modules) -> bool:
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) in modules
    )


def install(tracer: Tracer) -> None:
    """Replace every traced binding in place."""
    import numpy as np

    modules = {f"kabc.{name}": importlib.import_module(f"kabc.{name}") for name in LAYERS}
    cli = modules["kabc.cli"]
    wrapped = {}  # id(original) -> wrapper, so every copy of a binding shares one span name

    def wrapper_for(obj):
        if id(obj) not in wrapped:
            layer = obj.__module__.rsplit(".", 1)[-1]
            name = f"{layer}.{obj.__name__}"
            fn = _forcing_factory(tracer, obj) if name == "dynamics.mms_forcing" else obj
            wrapped[id(obj)] = tracer.wrap(name, layer, fn)
        return wrapped[id(obj)]

    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            # cli.main is the process boundary; its span would only repeat cli.run
            if attr.startswith("_") or obj is cli.main or not _is_kabc_callable(obj, modules):
                continue
            setattr(mod, attr, wrapper_for(obj))
    for key, runner in list(cli._RUNNERS.items()):
        cli._RUNNERS[key] = wrapper_for(runner)
    for layer, classes in CLASS_METHODS.items():
        mod = modules[f"kabc.{layer}"]
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}.{meth}"
                setattr(cls, meth, tracer.wrap(name, layer, vars(cls)[meth]))
    np.fft.rfft = tracer.wrap_fft(np.fft.rfft, lambda a, out: np.shape(a)[-1])
    np.fft.irfft = tracer.wrap_fft(np.fft.irfft, lambda a, out: out.shape[-1])


def _forcing_factory(tracer, mms_forcing):
    """mms_forcing returns a closure that the solver calls at every stage;
    wrap the closure it returns so forcing time gets its own span."""

    @functools.wraps(mms_forcing)
    def factory(*args, **kwargs):
        return tracer.wrap("dynamics.forcing", "dynamics", mms_forcing(*args, **kwargs))

    return factory


def _stop_at_run_entry(cli, path):
    def run(spec):
        stamp = time.monotonic()
        with open(path, "w") as fh:
            fh.write(repr(stamp))
        raise SystemExit(0)

    cli.run = run


def main(argv) -> int:
    if len(argv) < 3 or argv[0] not in ("probe", "trace"):
        print("usage: tracer.py probe|trace OUT_FILE <kabc arguments...>", file=sys.stderr)
        return 2
    mode, out_file, kabc_args = argv[0], argv[1], argv[2:]
    from kabc import cli

    if mode == "probe":
        _stop_at_run_entry(cli, out_file)
        return cli.main(kabc_args)
    tracer = Tracer()
    install(tracer)
    code = cli.main(kabc_args)
    with open(out_file, "w") as fh:
        json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
