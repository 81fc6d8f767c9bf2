"""Hypothesis profiles. ``HYPOTHESIS_PROFILE=ci`` prints the blob that
replays a failing example (``@reproduce_failure``), so a float.hex
property failure seen in CI can be rerun locally; example counts and
deadlines stay those of each test."""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
