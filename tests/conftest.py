"""Hypothesis runs derandomized, without deadlines or an example database,
so that every run of the property tests checks the same examples."""

from hypothesis import settings

settings.register_profile("ncprism", derandomize=True, deadline=None, database=None)
settings.load_profile("ncprism")
