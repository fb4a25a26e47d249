"""Scale timings to a fixed machine speed, so that runs on a shared host agree.

On a shared 2-core host the speed of a core changes by up to 1.7x as other
tenants load the host: sometimes for a fraction of a second, sometimes for
tens of seconds at a stretch.  CPU time changes with wall time, so neither
steadies the result, and a longer run only averages over the speeds it met.

So every timed command is bracketed by a fixed reference loop that does not
touch bellmeter: small numpy operations, Python float arithmetic and string
formatting and parsing, the same mix the workloads spend their time on.  A
timing is scaled by NOMINAL_S over the mean of the two reference times around
it.  A value is then the time the command would have taken on a machine where
the reference loop takes NOMINAL_S; slow and fast stretches cancel, and a
change to bellmeter moves the value as it moves the raw time.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

# the reference loop's median time on a 2-vCPU Xeon at 2.1 GHz, over 20 minutes of runs;
# long enough to average over the host's sub-second speed flips
NOMINAL_S = 0.07
REFERENCE_STEPS = 12500

_ROTATION = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def pin_to_one_cpu() -> int:
    """Keep this process and every process it starts on one CPU; return that CPU.

    The two CPUs of a shared host change speed independently of each other, so
    a reference time taken on one CPU says nothing about a command that ran on
    the other.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_s() -> float:
    """Seconds one pass of the fixed reference loop takes now."""
    start = perf_counter()
    state = np.array([1.0 + 0.0j, 0.0j])
    total = 0.0
    cells = []
    for step in range(REFERENCE_STEPS):
        state = _ROTATION @ state
        total += float(np.abs(state[0]) ** 2) + step % 7
        cells.append(f"{total:.17g}\t{step}")
    parsed = sum(float(cell.split("\t")[0]) for cell in cells)
    elapsed = perf_counter() - start
    if not parsed > 0.0:
        raise AssertionError("reference loop lost its result")
    return elapsed


def scaled(elapsed: float, before: float, after: float) -> float:
    """`elapsed` seconds at the reference speed, given reference times just before and after."""
    return elapsed * NOMINAL_S / (0.5 * (before + after))
