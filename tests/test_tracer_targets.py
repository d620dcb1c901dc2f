"""Every name the benchmark tracer wraps stays bound where it looks for it.

``perfbench/tracer.py`` replaces functions at their module globals and
methods at their class attributes, and stops a traced run when one is gone.
Some of those names are bound only for the tracer, so nothing else in the
suite would notice their loss.
"""

import importlib.util
import os
import sys


def test_every_tracer_target_is_bound(monkeypatch):
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracer)
    targets = tracer._FUNCTIONS + tracer._METHODS
    assert targets
    lost = [f"{owner.__name__}.{attr}" for _, owner, attr in targets
            if vars(owner).get(attr) is None]
    assert lost == []
