"""Child process for the set-up metric: import reflexff and build fields.

Usage: python3 perfbench/setup_probe.py REFERENCE_S P,K [P,K ...]
(from a checkout root).  Prints one JSON object with the raw and the
yardstick-normalized seconds taken, and the normalized seconds of the
``field_make`` calls alone: in a fresh process they build the tables,
where in a long-lived one they mostly hit the field cache.

Only ``yardstick`` and modules the interpreter loads anyway are imported
before the timed part, so the modules reflexff pulls in are paid for
inside it, as they are by every CLI invocation.  The work takes tens of
milliseconds, so the yardstick samples every 20 ms while it runs, as
``measure.Sampler`` does for longer calls.
"""

import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import yardstick  # noqa: E402

INTERVAL = 0.02


def main():
    reference_s = float(sys.argv[1])
    fields = [tuple(int(x) for x in arg.split(",")) for arg in sys.argv[2:]]
    samples, spent = [], [0.0]

    def tick(signum, frame):
        t0 = time.perf_counter()
        samples.append(yardstick.run())
        spent[0] += time.perf_counter() - t0

    yardstick.run()  # warm-up
    samples.append(yardstick.run())
    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    t0 = time.perf_counter()
    sys.path.insert(0, "src")
    import reflexff

    t1, spent1 = time.perf_counter(), spent[0]
    for p, k in fields:
        reflexff.field_make(p, k)
    t2 = time.perf_counter()
    raw = t2 - t0 - spent[0]
    field_make = t2 - t1 - (spent[0] - spent1)
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    samples.append(yardstick.run())

    import json

    scale = reference_s * len(samples) / sum(samples)
    print(json.dumps({"raw_s": raw, "normalized_s": raw * scale,
                      "field_make_s": field_make * scale}))


if __name__ == "__main__":
    main()
