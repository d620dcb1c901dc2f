"""The benchmark tracer still finds and counts what it measures.

``perfbench/tracer.py`` replaces functions at their module globals and
methods at their class attributes, and stops a traced run when one is gone.
Some of those names are bound only for the tracer, so nothing else in the
suite would notice their loss.
"""

import importlib.util
import os
import sys

from reflexff import field_make, opspace
from reflexff.search import SearchParams, exhaustive_verify


def _load_tracer(monkeypatch):
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_is_bound(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    targets = tracer._FUNCTIONS + tracer._METHODS
    assert targets
    lost = [f"{owner.__name__}.{attr}" for _, owner, attr in targets
            if vars(owner).get(attr) is None]
    assert lost == []


def test_tracer_counts_kernel_work(monkeypatch):
    # empty memos, so the search reduces ranks as a fresh process would
    monkeypatch.setattr(opspace, "_closure_memos", {})
    monkeypatch.setattr(opspace, "_rank_memos", {})
    t = _load_tracer(monkeypatch).Tracer()
    t.install()
    try:
        exhaustive_verify(SearchParams(field=field_make(2), dim_u=2, dim_v=2, n=2))
    finally:
        t.uninstall()
    figures = t.take(1.0, 1.0, 0.0)
    assert figures["kernels.row_reduce.calls"] > 0
    assert figures["kernels.row_reduce.cells"] > 0
    assert 0 < figures["kernels.row_reduce.pivot_frac"] <= 1
