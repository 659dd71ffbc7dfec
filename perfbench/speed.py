"""How fast the machine runs right now, and times scaled to one fixed speed.

On a shared virtual machine the processor's speed moves by 30-60 % within
seconds and stays moved for minutes, so the same code gives times that
differ by more than a regression bound from one run to the next.  The
benchmark therefore times a fixed piece of work, ``reference()``, between
requests, in the same process and thread, and scales every measured time to
the speed at which ``reference()`` takes ``REFERENCE_S``::

    scaled time = measured time * REFERENCE_S / (reference time nearby)

``reference()`` mixes the kinds of work glrkit's requests do (Python
arithmetic, dicts and sorting, string formatting, JSON, small numpy arrays)
and never calls glrkit, so a change to glrkit changes the scaled times and
not the reference.  The measured times are reported next to the scaled ones.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

# The speed every time is scaled to: reference() takes this long.  About the
# median reference time on the 2-vCPU machine the baseline was measured on.
REFERENCE_S = 2.0e-3

# Between requests, reference() runs again once this much time has passed.
EVERY_S = 0.05

# A request's speed is the median of the reference timings from this many
# before the last one preceding it to this many after that one.
BEFORE, AFTER = 2, 3

# After set-up, reference() runs for this long to tell the set-up's speed.
SETUP_SAMPLE_S = 0.2


def reference():
    acc = 0
    for i in range(3000):
        acc += (i * i) % 7
    table = {str(i): i for i in range(400)}
    rows = sorted(table.items(), key=lambda kv: -kv[1])
    text = json.dumps({"rows": rows[:200], "x": [math.sqrt(i) for i in range(200)]})
    json.loads(text)
    ",".join(f"{i:.6g}" for i in range(300)).split(",")
    a = np.linspace(0.01, 0.99, 256)
    for _ in range(40):
        b = np.log(a) * 3.0 + np.log1p(-a) * 5.0
        a = np.clip(a + 1e-9 * b.max(), 0.01, 0.99)
    return acc


def sample() -> float:
    """Seconds one reference() takes now."""
    started = time.perf_counter()
    reference()
    return time.perf_counter() - started


def sample_for(seconds: float) -> float:
    """Median reference time over ``seconds`` of repeated samples."""
    samples = []
    end = time.perf_counter() + seconds
    while not samples or time.perf_counter() < end:
        samples.append(sample())
    return statistics.median(samples)


def factors(reference_s: list[float], indices: list[int]) -> list[float]:
    """Scale factor per request, given the index of the last reference timing
    taken before it."""
    return [REFERENCE_S / statistics.median(reference_s[max(0, i - BEFORE): i + AFTER + 1])
            for i in indices]
