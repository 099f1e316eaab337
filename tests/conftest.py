"""Hypothesis settings shared by every property test in the suite.

derandomize=True draws the same examples on every run, so a property test
passes or fails reproducibly; deadline=None keeps a slow example on a host
whose speed drifts from counting as a failure.
"""

from hypothesis import settings

settings.register_profile("spectraledge", deadline=None, derandomize=True)
settings.load_profile("spectraledge")
