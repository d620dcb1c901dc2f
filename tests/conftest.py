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


def _run_child(argv, stdout_closed=False, stderr_closed=False):
    """Run ``python *argv`` in a child process capped at 10 s of wall time
    and 1 GiB of address space; returns (exit code, stdout, stderr).  A
    child that hangs fails its test instead of stalling the suite, and one
    that balloons dies.  With ``stdout_closed`` (``stderr_closed``) the
    child starts with fd 1 (fd 2) closed, as a shell's ``>&-`` (``2>&-``)
    leaves it."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        if stdout_closed:
            os.close(1)
        if stderr_closed:
            os.close(2)

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, timeout=10,
            preexec_fn=cap, env={**os.environ, "PYTHONPATH": path})
    except subprocess.TimeoutExpired:
        pytest.fail(f"python {' '.join(argv)} ran past 10 s")
    return done.returncode, done.stdout, done.stderr


@pytest.fixture
def cli_child():
    """Run one CLI request in a capped child process (``_run_child``)."""
    def run(args, stdout_closed=False, stderr_closed=False):
        return _run_child(["-m", "reflexff.cli", *args], stdout_closed,
                          stderr_closed)
    return run


@pytest.fixture
def python_child():
    """Run Python source ``code`` in a capped child process (``_run_child``)."""
    return lambda code: _run_child(["-c", code])
