"""Run-to-run noise floor of the machine: a fixed pure-Python loop.

    python3 perfbench/noise_floor.py

Each of ``RUNS`` windows of ``SECONDS`` counts how many times the pure-Python
part of the reference work (reference.python_loop) completes and prints
iterations per second. The loop touches no program code, so the spread
across windows is what the machine alone adds to any raw wall time; the
spread of single iterations within a window shows how far the machine's
speed moves within seconds.
"""

from __future__ import annotations

import statistics
import time

from reference import python_loop

RUNS = 4
SECONDS = 10.0


def window(seconds: float) -> tuple[float, list[float]]:
    walls = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t = time.perf_counter()
        python_loop()
        walls.append(time.perf_counter() - t)
    return len(walls) / (time.perf_counter() - start), walls


def main() -> None:
    rates = []
    for _ in range(RUNS):
        rate, walls = window(SECONDS)
        rates.append(rate)
        print(f"{rate:.2f} iterations/s; single iterations {min(walls) * 1e3:.1f}-{max(walls) * 1e3:.1f} ms")
    med = statistics.median(rates)
    print(f"median {med:.2f}/s, range {(max(rates) - min(rates)) / med:.1%} of the median")


if __name__ == "__main__":
    main()
