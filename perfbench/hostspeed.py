"""How fast the host runs right now, measured by a fixed piece of work.

On a shared host the speed of a core drifts by tens of percent over
seconds to minutes, as other tenants come and go, and it moves wall and
CPU time alike. The benchmark therefore times `kernel` next to every
measured command and rescales the commands' times by the kernel's: a time
divided by the kernel times around it and multiplied by `REFERENCE_S`
reads in seconds of a host on which the kernel takes `REFERENCE_S`.

The kernel is a mix like the program's hot path: small numpy arrays in a
Cox-style Newton loop, and interpreter-bound row loops. It uses nothing
of phasetip and runs with the garbage collector off, so neither a change
to the program nor the objects the program keeps alive change its time.
"""

from __future__ import annotations

import gc
import resource
import time

import numpy as np

REFERENCE_S = 1.0        # seconds; the kernel takes 0.6 to 1.0 s on a 2-vCPU Xeon host
ROWS = 500
ROUNDS = 1300


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def kernel(rounds: int = ROUNDS) -> float:
    rng = np.random.default_rng(12345)
    time_ = rng.exponential(1.0, ROWS)
    x = rng.integers(0, 2, ROWS).astype(float)
    event = (rng.random(ROWS) < 0.7).astype(float)
    order = np.argsort(-time_, kind="stable")
    total = 0.0
    for _ in range(rounds):
        beta = 0.0
        for _ in range(8):
            xs, ds = x[order], event[order]
            weight = np.exp(beta * xs)
            mean = np.cumsum(weight * xs) / np.cumsum(weight)
            beta += np.sum(ds * (xs - mean)) / np.sum(ds * (mean - mean * mean))
        rows = [(i, float(time_[i]), int(event[i])) for i in range(ROWS)]
        for _, t, d in rows:
            total += t * 0.5 if d else -t
        total += beta + sum({f"r{i}": i for i in range(200)}.values())
    return total


def measure() -> tuple[float, float]:
    """Wall and CPU seconds of one kernel run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), cpu_seconds()
        kernel()
        return time.perf_counter() - t0, cpu_seconds() - c0
    finally:
        if enabled:
            gc.enable()


def around(probes) -> list[float]:
    """Mean of the kernel times just before and after each measured command;
    `probes` holds one more kernel time than there were commands."""
    return [(before + after) / 2 for before, after in zip(probes, probes[1:])]


def rescale(times, kernel_times) -> float:
    """The mean of `times` in seconds of the reference host: their sum over
    the sum of the kernel times around them, times REFERENCE_S. A ratio of
    sums spreads less from run to run than the median of per-command
    ratios, because the host speed also moves within a command, where the
    kernel cannot see it."""
    return REFERENCE_S * sum(times) / sum(kernel_times)
