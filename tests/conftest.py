"""Hypothesis draws the same examples on every run: the profile loaded here
derandomizes every test, with each test's own ``max_examples``.  Another
profile can still be chosen with pytest's ``--hypothesis-profile``."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
