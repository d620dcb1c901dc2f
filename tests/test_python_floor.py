"""The Python floor in pyproject.toml is the one the code needs.
``census.proof_trace`` (every ``trace`` request) reads
``sys.int_info.default_max_str_digits`` and ``cli._profile_int`` calls
``sys.get_int_max_str_digits()``; both came with the int/str digit limit,
first released in 3.10.7.  tools/tier1_interpreters.py skips the
interpreters below the same floor."""

import importlib.util
import os
import re
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_requires_python_is_the_oldest_tier1_interpreter():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        floor = re.search(r'^requires-python = ">=([\d.]+)"$', fh.read(), re.M).group(1)
    spec = importlib.util.spec_from_file_location(
        "tier1_interpreters", os.path.join(ROOT, "tools", "tier1_interpreters.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tuple(map(int, floor.split("."))) == tool.OLDEST >= (3, 10, 7)


def test_the_interpreter_has_the_digit_limit_api():
    # census.proof_trace and cli._profile_int read these
    assert sys.version_info[:3] >= (3, 10, 7)
    assert type(sys.int_info.default_max_str_digits) is int
    assert type(sys.get_int_max_str_digits()) is int
