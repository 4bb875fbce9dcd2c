"""Hypothesis runs the same examples on every run, whatever the local
example database holds, and no example is timed out."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
