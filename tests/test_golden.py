"""Every numeric CSV of a fixed set of small runs, pinned by its sha256.

The digests in tests/golden.json were recorded from these configs, with the
numpy version named there.  A change that keeps the arithmetic keeps every
byte of every CSV, so this test fails on any change to the numbers a run
writes (a constant, an operation order, a format) that its author did not
mean to make.  A change that alters the arithmetic on purpose rewrites the
corpus, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and lists the moved digests, with the reason, in CHANGES.md: it prints each
run and CSV whose digest it changed, added or removed.  A different
numpy may round its transforms differently, so a mismatch names the version
the corpus was recorded with; it is never skipped, since a skip would hide
what the test exists to catch.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from kabc.cli import parse_config, run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# name -> (subcommand, --set overrides): every subcommand, a stride with
# snapshots, the per-row transform path (m = 12288 > STACK_MAX_M), a forced
# run, particles under an a = 0 and an a != 0 member, a k = 3, a != 0 member
# (6 rows per RHS call), a two-point sweep with its aggregate.csv, and two
# runs whose steps the CFL rule sizes until the step stops advancing t (exit
# 2), one streaming particles.csv and one its snapshots
CONFIGS = {
    "simulate-snapshots": ("simulate", ["grid.n=256", "t_end=0.2", "write_snapshots=true", "output_stride=5"]),
    "simulate-per-row": ("simulate", ["grid.n=8192", "t_end=0.02"]),
    "simulate-k3": ("simulate", ['params={"k": 3, "a": 0.5, "b": 1, "c": 2}', "grid.n=256", "t_end=0.1"]),
    "peakon-verify": ("peakon-verify", ["grid.n=512", "peakon_verify.t_end=0.5"]),
    "mms": ("mms", []),
    "lagrangian-ch": ("lagrangian", ["grid.n=256", "t_end=0.2"]),
    "lagrangian-forq": ("lagrangian", ['params={"preset": "forq"}', "grid.n=256", "t_end=0.2"]),
    "sweep": ("sweep", ['sweep.axes=[{"key": "profile.gamma", "values": [0.5, 1.0]}]', "sweep.workers=1",
                        "grid.n=128", "t_end=0.1"]),
    "lagrangian-stop": ("lagrangian", ['params={"k": 3, "a": 0, "b": 0, "c": 0}', "grid.n=256", "t_end=3",
                                       "profile.gamma=2"]),
    "simulate-stop-snapshots": ("simulate", ['params={"k": 3, "a": 0, "b": 0, "c": 0}', "grid.n=256", "t_end=3",
                                             "profile.gamma=2", "write_snapshots=true", "output_stride=10"]),
}


def digests(subcommand, overrides, out_dir) -> dict:
    """Exit code and the sha256 of every CSV the run writes, a sweep's
    sub-runs' too, by path relative to out_dir."""
    code = run(parse_config(None, overrides, subcommand, str(out_dir)))
    found = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            if name.endswith(".csv"):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return {"exit": code, "csv": dict(sorted(found.items()))}


def _corpus() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_corpus_covers_every_config():
    assert sorted(_corpus()["runs"]) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_bytes_match_the_corpus(name, tmp_path):
    corpus = _corpus()
    got = digests(*CONFIGS[name], tmp_path / name)
    assert got == corpus["runs"][name], (
        f"{name}: CSV digests differ from tests/golden.json, recorded with numpy {corpus['numpy']} "
        f"(this is numpy {np.__version__})")


def changes(old: dict, new: dict) -> list:
    """A line for each run added, removed or given another exit code from
    the corpus runs old to new, and for each CSV whose digest changed, was
    added or was removed."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        was, now = old.get(name, {}), new.get(name, {})
        if not was or not now:
            lines.append(f"{name}: {'removed' if was else 'added'}, exit {(was or now)['exit']}")
        elif was["exit"] != now["exit"]:
            lines.append(f"{name}: exit {was['exit']} -> {now['exit']}")
        before, after = was.get("csv", {}), now.get("csv", {})
        for csv in sorted(before.keys() | after.keys()):
            if before.get(csv) != after.get(csv):
                how = "added" if csv not in before else "removed" if csv not in after else "changed"
                lines.append(f"{name}/{csv}: {how}")
    return lines


def test_changes_names_each_moved_run_and_digest():
    old = {"kept": {"exit": 0, "csv": {"a.csv": "1"}}, "gone": {"exit": 0, "csv": {"a.csv": "1"}},
           "moved": {"exit": 0, "csv": {"a.csv": "1", "b.csv": "2", "c.csv": "3"}}}
    new = {"kept": old["kept"], "new": {"exit": 2, "csv": {"a.csv": "1"}},
           "moved": {"exit": 2, "csv": {"a.csv": "1", "b.csv": "9", "d.csv": "4"}}}
    assert changes(old, new) == ["gone: removed, exit 0", "gone/a.csv: removed",
                                 "moved: exit 0 -> 2", "moved/b.csv: changed", "moved/c.csv: removed",
                                 "moved/d.csv: added", "new: added, exit 2", "new/a.csv: added"]


def record(scratch) -> list:
    """Rewrite the corpus from CONFIGS, and return what changed (changes)."""
    old = _corpus()["runs"] if os.path.exists(GOLDEN) else {}
    runs = {name: digests(sub, overrides, os.path.join(scratch, name)) for name, (sub, overrides) in CONFIGS.items()}
    with open(GOLDEN, "w") as fh:
        json.dump({"numpy": np.__version__, "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return changes(old, runs)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        moved = record(scratch)
    print("\n".join(moved) if moved else "no digest changed")
    sys.exit(0)
