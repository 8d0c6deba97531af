"""Test-wide settings: one hypothesis profile, loaded for every run.

Property tests take a fixed number of examples and have no per-example
deadline, so a slow shared machine cannot fail them on timing alone.
"""

from hypothesis import settings

settings.register_profile("bbwt", deadline=None, max_examples=200)
settings.load_profile("bbwt")
