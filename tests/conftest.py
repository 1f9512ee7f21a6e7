"""Hypothesis draws the same examples on every run: a failure seen once is
seen again, and the suite's count and time do not vary between runs.  Each
test's own @settings still sets its number of examples."""

from hypothesis import settings

settings.register_profile("kabc", derandomize=True, database=None)
settings.load_profile("kabc")
