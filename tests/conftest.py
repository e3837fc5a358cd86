"""Suite-wide test settings."""

from hypothesis import settings

# Hypothesis draws the same examples on every run and keeps no example
# database, so a failing run reproduces on the next one and on any machine.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
