"""Host-speed calibration: a fixed kernel timed in a fresh interpreter.

  python3 perfbench/calibrate.py

Prints the kernel's time in seconds. The runner starts this process before
the first repeat of a workload and after every repeat, and divides the
run's median wall time by the mean calibration time. On a shared host the
speed of a workload drifts by up to 45% from one minute to the next, and
this kernel drifts with it (see README.md), so the ratio is steadier than
the wall time. The kernel imports nothing from the package under test,
so a change to the program cannot move it. It mimics the simulator's array
work: blocks of 500 x 240 doubles, with exponential draws, cumulative sums,
masked powers and row dot products. It tracks the drift of the analytic
workload too, better than a loop of scalar Python arithmetic does.
"""

from __future__ import annotations

import time

import numpy as np

ROUNDS = 100


def kernel() -> None:
    rng = np.random.default_rng(1)
    for _ in range(ROUNDS):
        pos = np.cumsum(4.0 + rng.exponential(16.0, size=(500, 240)), axis=1)
        dist = np.abs(pos - 1500.0)
        outside = dist > 150.0
        gains = np.zeros_like(dist)
        np.place(gains, outside, dist[outside] ** -3.0)
        np.einsum("ij,ij->i", gains, rng.exponential(1.0, size=dist.shape))


if __name__ == "__main__":
    start = time.perf_counter()
    kernel()
    print(repr(time.perf_counter() - start))
