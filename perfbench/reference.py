"""Fixed reference work that measures how fast the machine runs right now.

On the machine this benchmark was built on, the same operation takes up to
twice as long in some episodes as in others, and an episode can last from
seconds to minutes. Process CPU time follows wall time through them, and
steal time stays near zero, so the cores themselves run slower. A median of
raw wall times then moves with the episode the run falls into. Timing this
reference work next to each operation measures the episode's speed, and
run.py reports each operation's wall time divided by the adjacent reference
time, scaled by ``REF_S``. Nothing here touches the program, so a change to
the program moves the ratio, and a change of the machine's speed moves both
parts of it.

A workload that runs its operation on two threads is normalised by two
copies of the reference work run at once on two threads: when one core
slows down, the slower thread holds up both the operation and the copies.
Set-up, which is single-threaded, is normalised by a single copy.

The work mixes the three kinds of work the workloads do: pure-Python
arithmetic (the bound engine and the selftest harness), small numpy calls
(Jacobi rounds at d <= 40), and dense rank-one updates of a 400 x 400
matrix (``deflate_step`` in the clustering sweep).
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Nominal duration of one reference_work() call: op_s and setup_s read as
# seconds on a machine where reference_work() takes exactly this long.
REF_S = 0.04

_SMALL = np.arange(32 * 32, dtype=float).reshape(32, 32) / 1024.0
_BIG = np.arange(400 * 400, dtype=float).reshape(400, 400) / 160000.0
_VEC = np.full(400, 0.05)


def python_loop() -> int:
    """The reference work's pure-Python part; noise_floor.py times it alone."""
    total = 0
    for i in range(200_000):
        total += i * i
    return total


def reference_work() -> float:
    acc = float(python_loop() % 7)
    for i in range(5000):
        acc += float((_SMALL @ _SMALL[:, i % 32]).sum())
    for _ in range(8):
        b = _BIG - 0.5 * np.outer(_VEC, _VEC)
        acc += float(((b + b.T) / 2.0)[0, 0])
    return acc


@functools.cache
def _helpers(count: int) -> ThreadPoolExecutor:
    # kept for the whole process: a fresh thread per call would take a fresh
    # malloc arena and make peak_rss_mb wander
    return ThreadPoolExecutor(count)


def reference_seconds(threads: int = 1) -> float:
    """Wall time of ``threads`` reference_work() calls run at once, one on
    this thread and the others on helper threads, divided by ``threads``."""
    start = time.perf_counter()
    others = [_helpers(threads - 1).submit(reference_work) for _ in range(threads - 1)]
    reference_work()
    for other in others:
        other.result()
    return (time.perf_counter() - start) / threads
