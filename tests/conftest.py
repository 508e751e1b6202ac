"""Suite-wide settings: hypothesis draws the same examples on every run.

``derandomize=True`` seeds each property from a hash of its test function
and keeps no example database, so a tier-1 run does not depend on earlier
runs or on chance.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
