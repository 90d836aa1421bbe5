"""Machine speed from a fixed reference workload, used to normalise timings.

On a shared virtual machine the speed of one CPU-bound Python thread moves
by up to two times in phases of seconds to minutes, as neighbours come and
go on the same cores. No statistic inside one run removes a phase that
lasts longer than the run. So every gated timing is scaled by the speed of
this reference, measured just before and just after the timed work::

    normalised = measured * REFERENCE_S / sqrt(ref_before * ref_after)

which is the time the work would take on a machine that runs the reference
in ``REFERENCE_S``. The reference is pure-Python code of the kinds the
program runs: integer arithmetic, dict updates, string formatting,
generators with method calls, allocation and sorting. Each kernel is timed
``REPS`` times and the median kept; the reference is the geometric mean of
the kernel medians, which tracked the program's own speed more closely
than any single kernel. The garbage collector is off while the kernels
run, so the program's heap size does not leak into the reference. Nothing
here imports the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter

#: Reference time of the nominal machine that normalised timings refer to,
#: close to this reference's time in a quiet phase on a 2-vCPU VM with
#: Python 3.11.
REFERENCE_S = 0.25e-3
#: Timings of each kernel per sample; the median is kept.
REPS = 5


def _int_arith():
    acc = 0
    for i in range(4000):
        acc = (acc * 31 + (i ^ (i >> 3))) & 0xFFFFFFFF
    return acc


def _dict_update():
    d = {}
    for i in range(2000):
        k = i & 63
        d[k] = d.get(k, 0) + i
    return d


def _str_format():
    return ",".join([f"{i}:{i * 0.5:.3f}" for i in range(800)])


def _bits(x):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class _Table:
    def __init__(self):
        self.tab = {(i, j): (i * 7 + j) % 11 / 10 for i in range(16) for j in range(16)}

    def look(self, i, j):
        return self.tab.get((i, j) if i < j else (j, i), 0.0)


_TABLE = _Table()


def _gen_calls():
    best = 0.0
    for a in (0x0F0F, 0x3333, 0x5555, 0xAAAA, 0xF0F0, 0x00FF):
        for i in _bits(a):
            for j in _bits(a ^ 0xFFFF):
                best = max(best, _TABLE.look(i, j))
    return best


def _alloc_sort():
    xs = [(i, str(i), [i]) for i in range(600)]
    xs.sort(key=lambda t: t[1])
    return len(xs)


KERNELS = (_int_arith, _dict_update, _str_format, _gen_calls, _alloc_sort)


def sample() -> float:
    """Seconds of the reference now: geometric mean of the kernel medians."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        logs = []
        for kernel in KERNELS:
            times = []
            for _ in range(REPS):
                t0 = perf_counter()
                kernel()
                times.append(perf_counter() - t0)
            logs.append(math.log(statistics.median(times)))
    finally:
        if enabled:
            gc.enable()
    return math.exp(statistics.fmean(logs))


def scale(before: float, after: float) -> float:
    """Factor from measured to normalised time, for work between two samples."""
    return REFERENCE_S / math.sqrt(before * after)


def timed(fn):
    """Run ``fn()``; its result, measured seconds and normalised seconds."""
    before = sample()
    t0 = perf_counter()
    result = fn()
    elapsed = perf_counter() - t0
    return result, elapsed, elapsed * scale(before, sample())
