"""Hypothesis runs derandomized, without deadlines or an example database,
so that every run of the property tests checks the same examples.

Hypothesis imports ``libcst`` to report a failing example, and that import
warns ``DeprecationWarning`` from inside pytest's report hook; under
``-W error`` the warning would end the run with an internal error and no
falsifying example. Importing it here once, with that warning ignored, keeps
``-W error`` strict for everything else. Without libcst there is nothing to
import and no warning."""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

settings.register_profile("ncprism", derandomize=True, deadline=None, database=None)
settings.load_profile("ncprism")
