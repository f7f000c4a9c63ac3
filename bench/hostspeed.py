"""Host-speed probes: two short fixed kernels timed after every operation.

The 2-vCPU machine the baseline was taken on runs identical work at
speeds up to 2x apart, in phases lasting from under a second to over a
minute, and the slowdown depends on the kind of work: interpreter-bound
code (small numpy calls, Python objects) slows by up to 2x, big-integer
word operations by about 10%.  A whole 20 s run can fall in one slow
phase, so no statistic over the run's raw latencies escapes it.

Each kernel is a fixed piece of the benchmark's own code, of the same
kind as one class of the program's work.  An operation's latency is
rescaled to the kernel's reference time:

    latency * REFERENCE_S[kernel] / kernel time around the operation

where "around" is the mean of the kernel timings just before and just
after the operation.  The ratio of an operation to the kernel around it
moves by a few percent between runs in different phases, while the raw
median moves by up to 2x.  REFERENCE_S holds the kernels' fastest times
on the baseline machine (2 vCPUs, Intel Xeon 2.1 GHz, Python 3.11.7,
numpy 2.4.6); it only sets the scale, so that a rescaled latency reads
as seconds on that machine at its fast speed.
"""

from __future__ import annotations

import time

import numpy as np

from workloads import _rref

_MATRIX = np.random.default_rng(12345).integers(0, 2, size=(24, 24), dtype=np.uint8)


def _interp() -> None:
    """Small-array GF(2) elimination and dict updates, like gf2/affine/cli work."""
    for _ in range(4):
        _rref(_MATRIX)
        counts: dict[int, int] = {}
        for i in range(1500):
            counts[i % 97] = counts.get(i % 97, 0) + i


def _bigint() -> None:
    """Broadcast-mask construction on 2^15-bit integers, like HT counting."""
    m = 15
    full = (1 << (1 << m)) - 1
    acc = 0
    for j in range(m):
        block = 1 << (1 << j)
        acc ^= (full // (block + 1)) << (1 << j)


KERNELS = {"interp": _interp, "bigint": _bigint}
REFERENCE_S = {"interp": 1.30e-3, "bigint": 1.25e-3}


def _time_kernels() -> dict[str, float]:
    out = {}
    for name, fn in KERNELS.items():
        start = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - start
    return out


class HostSpeed:
    """Kernel timings of one run; ``probe()`` right after each operation."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {name: [] for name in KERNELS}
        _time_kernels()  # warm-up: first calls pay for lazy set-up
        self._last = self._record()
        self.around: dict[str, float] = dict(self._last)

    def _record(self) -> dict[str, float]:
        now = _time_kernels()
        for name, seconds in now.items():
            self.samples[name].append(seconds)
        return now

    def probe(self) -> dict[str, float]:
        """Time the kernels; returns (and keeps in ``around``) the mean of
        this timing and the previous one, for the operation between them."""
        now = self._record()
        self.around = {k: (self._last[k] + now[k]) / 2 for k in now}
        self._last = now
        return self.around

    @staticmethod
    def rescale(seconds: float, around: dict[str, float], kernel: str) -> float:
        return seconds * REFERENCE_S[kernel] / around[kernel]

    def summary(self) -> dict:
        return {name: {"timings": len(v), "fastest_s": min(v),
                       "median_s": float(np.median(v)), "timings_s": v}
                for name, v in self.samples.items()}
