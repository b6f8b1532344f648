"""Suite-wide Hypothesis profile: each property test draws the same
examples on every run and neither reads nor writes an example database,
so a failure reproduces.  A test's own `settings` keep these two values."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
