"""Hypothesis profiles: `HYPOTHESIS_PROFILE=ci` derandomizes every property test, so a CI run is reproducible."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
