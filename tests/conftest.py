"""Hypothesis draws the same examples on every run: a failure seen once is
seen again, and the suite's count and time do not vary between runs.  Each
test's own @settings still sets its number of examples.

No test leaves a child process behind: a CSV writer or a sweep worker that
outlives its run, running or unreaped, fails the test that started it."""

import os

import pytest
from hypothesis import settings

settings.register_profile("kabc", derandomize=True, database=None)
settings.load_profile("kabc")


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps an exited child
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process outlived the test: {f'pid {pid} exited unreaped' if pid else 'one still runs'}")
