"""Test-session settings.

``ci`` is the hypothesis profile continuous integration runs under
(``pytest --hypothesis-profile=ci``): every property test draws the same
examples on every run, so a failure there can be replayed locally with the
same flag.  Without the flag hypothesis keeps its default, randomized
profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, deadline=None)
