import os
import resource
import subprocess
import sys

import pytest
from hypothesis import settings

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# prefer the in-tree sources (and in-place built extension) over any install
sys.path.insert(0, SRC)

# the same examples on every run, and no example database written to disk
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def cli_child():
    """Run one CLI request in a child process capped at 10 s of wall time
    and 1 GiB of address space; returns (exit code, stdout, stderr).  A
    request that hangs fails its test instead of stalling the suite, and
    one that balloons dies in the child."""
    def run(args):
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "reflexff.cli", *args],
                capture_output=True, text=True, timeout=10,
                preexec_fn=cap, env={**os.environ, "PYTHONPATH": path})
        except subprocess.TimeoutExpired:
            pytest.fail(f"reflexff {' '.join(args)} ran past 10 s")
        return done.returncode, done.stdout, done.stderr
    return run
