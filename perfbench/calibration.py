"""A fixed probe of how fast the machine runs Python code right now.

The benchmark runs on a shared host whose speed drifts: the same code runs
up to twice as slow for stretches of seconds to minutes, and process CPU time
drifts with wall time, so CPU time does not help.  The workers therefore run
this probe between ops and during set-up.  run.py scales every timing by
REFERENCE_S / (the probe's median time near it), which reports times at the
speed the probe had when REFERENCE_S was fixed.  The probe shares nothing with
the package and never changes, so a change to the program moves the scaled
times as it moves the raw ones, while drift of the host moves both the probe
and the op and cancels.  The raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

# The probe's median time on the reference machine (2 shared vCPUs,
# Python 3.11) at its usual speed.
REFERENCE_S = 0.0014

_ROUNDS = 3000


def _kernel() -> int:
    """Interpreter work of the kind the package does: ints, tuples, a dict, a list."""
    acc = 7
    seen: dict[tuple[int, int], int] = {}
    out = []
    for i in range(_ROUNDS):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        key = (acc & 63, i & 7)
        seen[key] = seen.get(key, 0) + 1
        if acc & 1:
            out.append(key)
    return len(seen) + len(out)


def probe() -> float:
    """Seconds one run of the fixed kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def speed(samples: list[float]) -> float:
    """REFERENCE_S over the median of probe samples: below 1 while the host runs slow."""
    return REFERENCE_S / statistics.median(samples)
