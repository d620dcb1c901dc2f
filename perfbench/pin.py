#!/usr/bin/env python3
"""Rewrite the pinned canonical outputs in perfbench/expected/.

Run from the root of a reflexff checkout:  python3 perfbench/pin.py
Only a change that deliberately alters report bytes should need this.
"""

import json
import os
import sys

sys.path.insert(0, "src")
import reflexff  # noqa: E402
import reflexff.cli  # noqa: E402

import reports_load  # noqa: E402
import search_load  # noqa: E402

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")


def main():
    for name, (q, dim_v, dim_u, n) in search_load.SLICES.items():
        params = reflexff.SearchParams(field=reflexff.field_from_order(q), dim_u=dim_u,
                                       dim_v=dim_v, n=n, guard=search_load.GUARD)
        report = reflexff.exhaustive_verify(params)
        with open(os.path.join(EXPECTED, name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(reflexff.dumps(report.to_dict()))
    digests = {}
    for req in reports_load.build(reflexff, reports_load.PINNED_SEED):
        code, text = reports_load.execute(reflexff.cli, req.argv)
        if code != 0:
            raise SystemExit(f"{req.key} exited {code}")
        digests[req.key] = reports_load.digest(text)
    path = os.path.join(EXPECTED, f"reports-seed{reports_load.PINNED_SEED}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
