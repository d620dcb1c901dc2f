#!/usr/bin/env python3
"""reflexff benchmark: one run of one workload.

Usage, from the root of a reflexff checkout:

    python3 perfbench/run.py --yardstick-ms 3.4 --workload exhaustive-gf2 \
        --seed 1 --seconds 25 --trace 0

Workloads: exhaustive-gf2, exhaustive-gf3, reports (see README.md here).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run instead.  The line before it holds diagnostics:
raw timings, yardstick probes and the run's metadata.

Every gated timing is yardstick-normalized: raw seconds x (the reference
time of one yardstick pass, ``--yardstick-ms``) / (the mean pass time
sampled with the call).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

WORKLOADS = ("exhaustive-gf2", "exhaustive-gf3", "reports")
SETUP_CHILDREN = 21


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--yardstick-ms", type=float, required=True, dest="yardstick_ms",
                    help="reference time of one yardstick pass")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "reflexff", "__init__.py")):
        print("run from the root of a reflexff checkout (src/reflexff not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    import reflexff

    import measure
    import reports_load
    import search_load
    from tracer import Tracer

    reference_s = args.yardstick_ms / 1000
    if args.workload == "reports":
        fields = reports_load.fields(reflexff)
    else:
        fields = search_load.fields(args.workload)
    setup_s, field_make_s, setup_raw = measure.setup_seconds(
        fields, reference_s, SETUP_CHILDREN)

    sampler = measure.Sampler(reference_s)
    tracer = Tracer() if args.trace else None
    if args.workload == "reports":
        state, metrics, raw = reports_load.run(
            reflexff, args.seed, args.seconds, sampler, tracer)
    else:
        state, metrics, raw = search_load.run(
            reflexff, args.workload, args.seconds, sampler, tracer)

    if tracer is None:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = measure.peak_rss_mb()
    else:
        metrics["machine.yardstick_ms"] = sampler.yardstick_ms()
        metrics["field.field_make.self_s"] = field_make_s
        os.makedirs(".perfbench", exist_ok=True)
        tracer.write(os.path.join(".perfbench", f"spans-{args.workload}.bin"))
    raw["setup_s.median"] = statistics.median(setup_raw)
    raw["yardstick_ms.median"] = sampler.yardstick_ms()
    raw["yardstick_ms"] = [y * 1000 for y in sampler.probes]
    diagnostics = {"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, **measure.metadata(reflexff), "raw": raw}
    print(json.dumps({"diagnostics": diagnostics}))
    units = _units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match the BENCHMARK.json list")
    result = {
        "correct": state.failed == 0 and state.attempted > 0,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0


def _units(trace):
    """name -> unit of the metrics BENCHMARK.json lists for this mode."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
