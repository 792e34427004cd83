"""Fixed reference workloads that track the speed of the machine.

On a shared host the same code runs up to twice as fast in one minute as in
the next. The benchmark times a reference around each op and scales the
op's wall time to the reference speed: the speed at which the reference
takes its nominal time. A change to the program leaves the references
alone, so its gains show in full; a slow phase of the host slows both and
cancels out.

In-process ops use a pure-Python reference that mixes the two kinds of work
the program does: integer arithmetic in a loop, and building, slicing,
parsing and joining strings. The two slow down by different amounts in a
slow phase, and the program sits between them. A command run as a cold
process is start-up plus in-process work, so it is scaled by the geometric
mean of this reference and a bare interpreter start, nominally START_S.
"""

from __future__ import annotations

import random
from time import perf_counter

REFERENCE_S = 0.010
START_S = 0.050
_BLOB = random.Random(0).randbytes(4096)


def _arithmetic() -> int:
    total = 0
    for i in range(60000):
        total += i * i % 7
    return total


def _strings() -> int:
    bits = "".join(format(b, "08b") for b in _BLOB)
    values = [int(bits[i : i + 12], 2) for i in range(0, len(bits), 12)]
    table = {v: str(v) for v in values}
    return len(",".join(table.values()))


def reference_seconds() -> float:
    """Fastest of three runs of the reference workload."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _arithmetic()
        _strings()
        best = min(best, perf_counter() - t0)
    return best


def speed_scale() -> float:
    """Factor that turns a wall time measured now into reference-speed seconds."""
    return REFERENCE_S / reference_seconds()
