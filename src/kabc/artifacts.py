"""Every file a run writes: the CSV bytes, the writer process, landing and
the manifest.  Numeric artifacts are reproducible bit-for-bit.

A numeric table, a 2-D float array or keyed blocks (``_Keyed``), is written
in blocks of rows with ``%.17g``: the bytes of ``_fmt``, which writes any
other rows value by value.  ``CsvWriter`` forks a process that writes the
tables that grow with a run while it steps: a snapshot as its (n, 2) array,
and ``particles.csv`` in keyed blocks of the states the run hands it one at
a time.  Every file is written as ``<name>.part``: ``clear`` lands a run's
tables at once or removes them all, and the manifest lands once whole.
"""

import json
import math
import os
import pickle
import re
import signal
import sys
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from . import __version__, params as params_mod
from .config import RunSpec
from .spectral import Field, Grid

# Every file a run writes, and its .part: clear removes these, and nothing else
ARTIFACT_NAME = re.compile(
    r"(manifest\.json|(diagnostics|final|summary|speeds|mms|particles|aggregate|snap_\d{6,})\.csv)(\.part)?")


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v).lower() if isinstance(v, bool) else str(v)


# Rows per formatting call of an array table, and the rows of a particles.csv
# block, rounded up to whole states.  The run waits while its writer formats
# the last block, so that block is kept small: on a 2-vCPU x86 host (numpy
# 2.4), in 9 in-process lagrangian-1024 runs the wait in CsvWriter.__exit__
# read 1.9-2.3 ms at 1,024 rows against 5.2-5.8 ms at 4,096, while snapshots
# formatted as fast at both (best of 7: 0.44, 3.5 and 43 ms at n = 1,024,
# 8,192 and 100,000)
CSV_BLOCK_ROWS = 1024


class _Keyed(NamedTuple):
    """A block of particles.csv rows: for each state i, then each key (a
    seed), the row (key, times[i], *body row), the body's rows in that order
    (key fastest).  CsvWriter.send_state sizes it; one %-call formats it."""

    keys: np.ndarray  # (n_keys,)
    times: list  # a float per state
    body: np.ndarray  # (len(times) * n_keys, n_body)


def _write_rows(fh, header, rows) -> None:
    """Write a header line (none when header is None) and the rows, in
    _fmt's bytes: a 2-D float array CSV_BLOCK_ROWS rows per %-call with
    "%.17g", a _Keyed block in one %-call whose template holds each key and
    each state's time, formatted once, and any other rows value by value."""
    if header is not None:
        fh.write(",".join(header) + "\n")
    if isinstance(rows, np.ndarray):
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start : start + CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))
    elif isinstance(rows, _Keyed):
        heads = ["%.17g," % v for v in rows.keys.tolist()]  # no "%" in a formatted float
        line = ",".join(["%.17g"] * rows.body.shape[1]) + "\n"
        tails = ["%.17g,%s" % (t, line) for t in rows.times]
        fh.write("".join([tail.join(heads) + tail for tail in tails]) % tuple(rows.body.ravel().tolist()))
    else:
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        _write_rows(fh, header, rows)


def snapshot_table(f: Field):
    """(header, rows) of a snapshot CSV, rows the (n, 2) array of nodes and values."""
    return ("x", "u"), np.column_stack((f.grid.nodes, f.values))


def write_snapshot(f: Field, path) -> None:
    """CSV with header x,u at full double precision (17 significant digits);
    round-trips bitwise through read_snapshot."""
    write_csv(path, *snapshot_table(f))


def read_snapshot(path, grid: Grid) -> Field:
    """Read a snapshot CSV; it must match grid exactly (row count and node
    positions)."""
    with open(path) as fh:
        lines = [ln.strip().split(",") for ln in fh if ln.strip()]
    if lines[:1] != [["x", "u"]]:
        raise ValueError(f"malformed snapshot file {path}: expected 'x,u' header")
    if any(len(r) != 2 for r in lines[1:]):
        raise ValueError(f"malformed snapshot file {path}: expected 2 columns")
    try:
        xs, values = np.array(lines[1:], dtype=float).reshape(-1, 2).T
    except ValueError:
        raise ValueError(f"malformed snapshot file {path}: non-numeric row") from None
    if len(xs) != grid.n:
        raise ValueError(f"grid mismatch: file has {len(xs)} rows, grid needs {grid.n}")
    if not np.all(np.abs(xs - grid.nodes) <= 1e-12 * grid.length):  # NaN fails too
        raise ValueError("grid mismatch: node positions differ")
    return Field(grid, values)


def _write_parts(messages, reply) -> None:
    """The writer process: writes the (path, header, rows) messages it
    unpickles from the file messages with _write_rows; a message with a
    header starts the file path.  It runs until a None (done) or EOF (the
    run stopped it).  A failure is written to reply as its text, and the
    process exits 1."""
    fh = None
    try:
        for path, header, rows in iter(lambda: pickle.load(messages), None):
            if header is not None:
                if fh is not None:
                    fh.close()
                fh = open(path, "w")
            _write_rows(fh, header, rows)
        if fh is not None:
            fh.close()
    except EOFError:  # the run went away, and removes the parts
        pass
    except Exception as err:  # an I/O error, say a full disk
        reply.write(str(err).encode())
        sys.exit(1)


class CsvWriter:
    """CSV files that a forked writer process formats and writes while the
    run steps, so the run's own process only makes the rows.

    send(name, header, rows) hands it rows of the file name in out_dir, in
    order; the first rows sent for a name start that file (one file at a
    time).  send_state queues a state's rows of a keyed file.  The process
    starts at the first send and writes each file as <name>.part.  Leaving
    the with-block sends what is queued, closes the pipe and reaps the
    process; a writer that failed raises OSError, with its error.
    """

    def __init__(self, out_dir: str):
        self.out_dir, self.name, self.pid, self.code = out_dir, None, None, None
        self.keyed, self.times = None, []  # send_state's file, and the times of its states not sent yet

    def __enter__(self):
        return self

    def send(self, name: str, header, rows) -> None:
        if self.pid is None:
            # a fork shares the imported modules; the writer only unpickles
            # and writes files, so it takes no lock another thread may hold
            (messages, pipe), (self.reply, reply) = os.pipe(), os.pipe()
            self.pipe = os.fdopen(pipe, "wb", buffering=0)  # a blocking pipe takes all of each write
            try:
                self.pid = os.fork()
            except OSError:  # no writer, so __exit__ has nothing to close: close the pipes here
                self.pipe.close()
                for fd in (messages, self.reply, reply):
                    os.close(fd)
                raise
            if self.pid == 0:  # the writer; os._exit runs none of the run's exit handlers
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)  # a Ctrl-C to the group is the run's
                    self.pipe.close()  # so that the run's end is its EOF
                    _write_parts(os.fdopen(messages, "rb"), os.fdopen(reply, "wb", buffering=0))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(messages)
            os.close(reply)
        if name == self.name:
            header = None  # the file has it
        self.name = name
        self._send((os.path.join(self.out_dir, name + ".part"), header, rows))

    def send_state(self, name: str, header, keys, t, *columns) -> None:
        """Queue one state's rows of the file name, (key, t, *columns at the
        key) for each of keys, which every state of the file shares, and send
        each _Keyed block of CSV_BLOCK_ROWS rows, rounded up to whole states."""
        if self.keyed is None:  # the file, and its block's rows
            states = math.ceil(CSV_BLOCK_ROWS / len(keys))
            self.keyed = name, header, keys, np.empty((states * len(keys), len(columns)))
        block, start = self.keyed[3], len(self.times) * len(keys)
        for j, column in enumerate(columns):
            block[start : start + len(keys), j] = column
        self.times.append(t)
        if start + len(keys) == len(block):
            self._send_keyed()

    def _send_keyed(self) -> None:
        name, header, keys, block = self.keyed
        self.send(name, header, _Keyed(keys, self.times, block[: len(self.times) * len(keys)]))
        self.times = []

    def _send(self, message) -> None:
        try:
            pickle.dump(message, self.pipe, pickle.HIGHEST_PROTOCOL)
        except BrokenPipeError:  # the writer has stopped
            raise OSError(self._failure()) from None

    def _reap(self) -> int:
        """The writer's exit code, once it has ended."""
        if self.code is None:
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code

    def _failure(self) -> str:
        """Why the writer stopped: its error text, or its exit code."""
        code, text = self._reap(), os.read(self.reply, 1 << 16).decode()
        return f"CSV writer: {text}" if text else f"CSV writer exited with code {code}"

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None and self.times:
                self._send_keyed()
            if exc_type is None and self.pid is not None:
                self._send(None)
                if self._reap():
                    raise OSError(self._failure())
        finally:
            if self.pid is not None:
                self.pipe.close()  # a writer stopped mid-run reads EOF and ends
                self._reap()
                os.close(self.reply)


def clear(out_dir, keep, land=False) -> None:
    """Remove each file in out_dir that a run writes, all but keep; with
    land, rename each <name>.part of them to name instead, and keep the rest."""
    with os.scandir(out_dir) as entries:
        paths = [entry.path for entry in entries
                 if ARTIFACT_NAME.fullmatch(entry.name) and not entry.is_dir() and os.path.realpath(entry) != keep]
    for path in paths:
        if not land:
            os.remove(path)
        elif path.endswith(".part"):
            os.replace(path, path[: -len(".part")])


def _json_safe(value):
    """value with every non-finite float, at any depth of dicts, lists and
    tuples, made None, so the manifest is strict JSON (null, not NaN)."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_manifest(spec: RunSpec, started, wall_s, result: dict) -> None:
    """manifest.json, landed from its .part once whole (a failed write leaves the .part for clear)."""
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
        manifest.update(params=asdict(p), h1_conserved=params_mod.h1_conserved(p),
                        periodic_peakon_admissible=params_mod.periodic_peakon_admissible(p))
    path = os.path.join(spec.out_dir, "manifest.json")
    with open(path + ".part", "w") as fh:
        json.dump(_json_safe(manifest), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    os.replace(path + ".part", path)
