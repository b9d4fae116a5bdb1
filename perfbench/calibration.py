"""A fixed chunk of work that measures the host's current speed.

The host's speed drifts: this chunk ran up to 1.7x slower from one 10-s
window to the next.  The benchmark times it between the program's calls
and quotes every duration at the speed where the chunk takes NOMINAL_S,
its time on the tuning machine when the host was not contended.  The chunk
runs only pure Python and numpy (through ``reference``), never xxzsteer,
so a change to the program moves the scaled figures as much as the raw
ones.
"""

from __future__ import annotations

import time

import reference

NOMINAL_S = 0.010
_LOOP = 20000
_POINTS = tuple((1.0 + 0.1 * i, 0.5, 0.3, 1.0) for i in range(10))


def chunk_seconds() -> float:
    """Run the chunk once and return how long it took."""
    t0 = time.perf_counter()
    total = 0
    for k in range(_LOOP):
        total += k * k % 7
    for params in _POINTS:
        reference.measures(*params)
    return time.perf_counter() - t0
