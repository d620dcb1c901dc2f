import os
import sys

from hypothesis import settings

# prefer the in-tree sources (and in-place built extension) over any install
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# the same examples on every run, and no example database written to disk
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
