"""Host-speed calibration for the benchmark.

On a shared 2-CPU VM the host's speed is not steady: the same iteration
takes from 1x to 2x the CPU time within a minute.  So the benchmark times a
fixed calibration unit before the first iteration and after every
iteration, outside the iteration's timing, and reports iteration times in
units of it (``cal``).  The unit mixes the three kinds of work the
workloads spend their time on, because the host slows them by different
amounts: interpreter arithmetic, as in ``hesim``'s per-op bookkeeping; hash
tables of small sets, as ``packing.giant_step_coverage`` builds; and numpy
arithmetic on 64 KB slot vectors, as ``hesim`` and ``engine`` do.  Each
part takes about 0.03 s, and the tables stay under 1 MB so that the unit
adds little to a workload's peak RSS.  The unit is frozen here; it does not
call hegcn, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one unit takes on the reference host, a 2-CPU VM in a quiet spell.
#: ``setup_s`` must read in seconds, so set-up times are scaled to that host.
REF_UNIT_S = 0.07
SLOTS = 8192
_VEC = np.random.default_rng(0).standard_normal(SLOTS)
# |weights| < 1 keeps the recurrence bounded, away from inf, NaN and subnormals
_WEIGHTS = np.random.default_rng(1).uniform(-0.9, 0.9, SLOTS)


def _interpreter() -> None:
    acc = 0
    for k in range(300_000):
        acc += k * k


def _tables() -> None:
    table: dict[int, set[int]] = {}
    for k in range(120_000):
        q = (k * 7919) % 2_000
        members = table.get(q)
        if members is None:
            table[q] = members = set()
        members.add(k & 3)


def _vectors() -> None:
    acc = _VEC
    for _ in range(1300):
        acc = np.roll(acc, 3) * _WEIGHTS + _VEC


def calibrate(seconds: float) -> float:
    """Mean seconds of one calibration unit, repeated for at least ``seconds``."""
    reps, start = 0, time.perf_counter()
    while reps < 1 or time.perf_counter() - start < seconds:
        _interpreter()
        _tables()
        _vectors()
        reps += 1
    return (time.perf_counter() - start) / reps
