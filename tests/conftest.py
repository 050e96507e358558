"""Hypothesis runs derandomized: every example is drawn from a fixed seed, so a
test verdict depends only on the code under test."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
