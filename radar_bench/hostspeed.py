"""How fast the host runs at each moment of a run, from a probe of the benchmark's own.

The benchmark's host is a share of a machine whose other tenants come and
go: the same work runs up to ~1.6x slower from one second to the next,
and how much of a run falls into slow seconds differs from run to run.
A run therefore also times a fixed probe every :data:`PROBE_EVERY_S`
seconds: a mix of the work the workloads spend their time in (an int8
gather and row reduction like the signature kernel's, single-threaded
float32 matrix products like a forward pass, and interpreter-bound Python
like the engine's bookkeeping).  Each timed sample of the run is divided
by the host's speed factor around it (the median over the probes from
:data:`WINDOW_S` seconds before it started to :data:`WINDOW_S` seconds
after it ended), so that the time metrics read as on the reference host.  The probe runs no code of the
program under test, so a change to the program moves the scaled samples
exactly as it moves the measured ones.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

#: Median seconds of each part of the probe on the reference host
#: (2 vCPUs of an Intel Xeon, Python 3.11, NumPy with one BLAS thread).
REFERENCE_S = {"gather": 0.022, "matmul": 0.0044, "python": 0.0015}
#: Seconds between probes, and how far from a sample the probes that
#: scale it may lie.  The host's speed holds for a few hundred
#: milliseconds: probes 0.2 s apart correlate at ~0.6, 0.8 s apart at ~0.3.
PROBE_EVERY_S = 0.25
WINDOW_S = 0.5


class HostProbe:
    """One call runs the probe once and returns each part's seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # 4 MiB of weights, larger than a core's share of the cache.
        self.weights = rng.integers(-128, 128, size=(1 << 18, 16), dtype=np.int8)
        self.rows = rng.permutation(self.weights.shape[0])
        self.left = rng.standard_normal((64, 576)).astype(np.float32)
        self.right = rng.standard_normal((576, 1024)).astype(np.float32)

    def __call__(self) -> Dict[str, float]:
        started = time.perf_counter()
        self.weights[self.rows].sum(axis=1, dtype=np.int32)
        gathered = time.perf_counter()
        for _ in range(4):
            self.left @ self.right
        multiplied = time.perf_counter()
        table: Dict[int, int] = {}
        for index in range(10000):
            table[index & 255] = table.get(index & 255, 0) + index
        ended = time.perf_counter()
        return {"gather": gathered - started, "matmul": multiplied - gathered, "python": ended - multiplied}


def speed_factor(parts: Dict[str, float]) -> float:
    """How much longer than on the reference host one probe took.

    The geometric mean over the probe's parts of their time ÷ the
    reference time; above 1 the host ran slower than the reference.
    """
    logs = [math.log(parts[part] / reference) for part, reference in REFERENCE_S.items()]
    return math.exp(sum(logs) / len(logs))


class HostSpeed:
    """The probes of one run, and the speed factor around any moment of it.

    A workload loop calls :meth:`after` between steps, like
    :class:`radar_bench.workloads.Probes`; it probes when a probe is due
    and the loop is idle.
    """

    def __init__(self) -> None:
        self.probe = HostProbe()
        #: Midpoint (``time.perf_counter()``) and speed factor of each probe.
        self.moments: List[float] = []
        self.factors: List[float] = []
        self.parts: List[Dict[str, float]] = []
        self.last = -math.inf

    def due(self) -> bool:
        return time.perf_counter() - self.last >= PROBE_EVERY_S

    def after(self, step: int, idle: bool = True) -> None:
        if idle and self.due():
            self.sample()

    def sample(self) -> float:
        """Run one probe; return the seconds it took."""
        started = time.perf_counter()
        parts = self.probe()
        self.last = time.perf_counter()
        self.moments.append((started + self.last) / 2)
        self.factors.append(speed_factor(parts))
        self.parts.append(parts)
        return self.last - started

    def factor_over(self, start: float, end: float) -> float:
        """Median factor of the probes from ``WINDOW_S`` before ``start`` to
        ``WINDOW_S`` after ``end``, or of the nearest probe when none is
        that close."""
        low = bisect.bisect_left(self.moments, start - WINDOW_S)
        high = bisect.bisect_right(self.moments, end + WINDOW_S)
        if low == high:
            middle = (start + end) / 2
            nearest = min(
                (index for index in (low - 1, low) if 0 <= index < len(self.moments)),
                key=lambda index: abs(self.moments[index] - middle),
            )
            return self.factors[nearest]
        return statistics.median(self.factors[low:high])

    def scale(self, seconds: Sequence[float], ends: Sequence[float]) -> List[float]:
        """``seconds`` as on the reference host; ``ends[i]`` is when the
        ``i``-th sample ended."""
        return [value / self.factor_over(end - value, end) for value, end in zip(seconds, ends)]

    def summary(self) -> Dict[str, object]:
        """Probe count, median factor and median seconds of each part."""
        return {
            "probes": len(self.factors),
            "median_factor": statistics.median(self.factors),
            "median_part_s": {
                part: statistics.median(parts[part] for parts in self.parts) for part in REFERENCE_S
            },
        }


class AsMeasured:
    """The identity scaling: the samples as measured."""

    @staticmethod
    def scale(seconds: Sequence[float], ends: Sequence[float]) -> List[float]:
        return list(seconds)


AS_MEASURED = AsMeasured()
