"""Run the tier-1 suite on every pyenv interpreter.  Opt-in; not part of tier-1.

Only the interpreter that runs this script needs the test packages.  Their
pure-Python distributions (pytest, pluggy, iniconfig, packaging, pygments,
hypothesis, attrs and sortedcontainers) are linked into one temporary
directory, which follows src/ on every interpreter's PYTHONPATH.  Nothing is
downloaded or installed, and no bytecode or pytest cache is written.

    python tools/tier1_interpreters.py [PYENV_ROOT]

PYENV_ROOT defaults to $PYENV_ROOT, then ~/.pyenv.  The script prints one
line per interpreter: the suite's summary line, or why it could not run
(older than requires-python, or a test package that does not import there).
It exits 1 when a tier-1 run fails, and 0 otherwise.
"""

import glob
import importlib.metadata
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGES = ("pytest", "pluggy", "iniconfig", "packaging", "pygments",
            "hypothesis", "attrs", "sortedcontainers")
OLDEST = (3, 10)  # requires-python in pyproject.toml
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def link_packages(into):
    """Link each distribution's top-level modules and dist-info into ``into``."""
    for name in PACKAGES:
        dist = importlib.metadata.distribution(name)
        tops = {f.parts[0] for f in dist.files} - {"..", "__pycache__"}
        for top in sorted(tops):
            os.symlink(dist.locate_file(top), os.path.join(into, top))


def run(python, args, env, timeout=600):
    """(exit code, last nonblank output line) of ``python *args``."""
    try:
        done = subprocess.run([python, *args], cwd=ROOT, env=env, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout} s"
    lines = (done.stdout + done.stderr).split("\n")
    return done.returncode, next((s for s in reversed(lines) if s.strip()), "")


def main(argv):
    root = (argv[0] if argv else os.environ.get("PYENV_ROOT")
            or os.path.expanduser("~/.pyenv"))
    found = []
    for python in glob.glob(os.path.join(root, "versions", "*", "bin", "python")):
        # a probe that Python 2 runs too, so that it can be named
        code, line = run(python, ["-c", "import sys; sys.stdout.write("
                                  "'%d %d %d' % sys.version_info[:3])"],
                         os.environ, timeout=60)
        if code != 0:
            print(f"{python}: not run: no version: {line}")
            continue
        found.append((tuple(map(int, line.split())), python))
    if not found:
        print(f"no interpreter under {root}/versions")
        return 0
    failed = False
    with tempfile.TemporaryDirectory() as links:
        link_packages(links)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"), links])}
        for version, python in sorted(found):
            name = ".".join(map(str, version))
            if version < OLDEST:
                print(f"{name}: not run: older than requires-python >= 3.10")
                continue
            code, line = run(python, ["-c", "import pytest, hypothesis"], env, 60)
            if code != 0:
                print(f"{name}: not run: the test packages do not import: {line}")
                continue
            code, line = run(python, TIER1, env)
            failed |= code != 0
            print(f"{name}: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
