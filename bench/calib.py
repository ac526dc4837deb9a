"""Machine-speed calibration: a fixed reference kernel timed between ops.

The benchmark runs on shared machines whose speed drifts by a third or more
for tens of seconds at a time, and a fixed piece of code runs at the
machine's current speed like motkit does. So the harness times this kernel
every ``EVERY_S`` seconds during a run and divides every measured time by
the machine's speed around it (``Calibration.factor``): the reported times
are seconds at the speed this kernel had when the benchmark was written.

The kernel imports nothing from motkit, so no change to the program can
change it; it mixes what motkit's ops do: plain Python loops over dicts and
tuples, small numpy arrays in Python loops (the frozen assignment solver of
``wl_sort``, 7x7 Kalman-sized products), sweeps over larger arrays (one of
them a softmax over DFL-sized float32 maps), and a deepcopy of nested
containers. Its parts are timed separately and the speed
factor is the geometric mean of each part's time over its reference time.
"""

from __future__ import annotations

import copy
import math
import time

import numpy as np

from wl_sort import assignment_steps

EVERY_S = 0.08
# Calibration samples whose median is the speed factor of one interval.
WINDOW = 32


def _python(n: int = 4000) -> float:
    table: dict[int, tuple[int, float]] = {}
    total = 0.0
    for k in range(n):
        key = (k * 7919) & 1023
        prev = table.get(key, (0, 0.0))
        table[key] = (prev[0] + 1, prev[1] + k * 0.5)
        total += prev[1]
    return total + sum(v for _, v in sorted(table.values()))


class Calibration:
    """The reference kernel, its samples, and the speed factor they give."""

    # Seconds per call of each part on the 2-vCPU Xeon the benchmark was
    # written on (median of a quiet minute); only their ratios matter.
    REFERENCE_S = {
        "python": 1.60e-3,
        "small_arrays": 1.28e-3,
        "large_array": 0.51e-3,
        "assignment": 1.79e-3,
        "deepcopy": 1.64e-3,
        "softmax": 1.35e-3,
    }

    def __init__(self):
        rng = np.random.default_rng(0xCA1)
        self.cost = -rng.random((24, 24))
        self.f = np.eye(7) + np.triu(rng.random((7, 7)) * 0.1, 1)
        self.big = rng.random(60_000)
        self.maps = rng.normal(0.0, 1.0, (4, 16, 80, 80)).astype(np.float32)
        self.bins = np.arange(16, dtype=np.float32).reshape(1, 16, 1, 1)
        self.nested = {
            i: {"box": (float(i), i * 0.5, i + 3.0, i * 2.0), "hist": list(range(i % 16))}
            for i in range(150)
        }
        self.parts = {
            "python": _python,
            "small_arrays": self._small_arrays,
            "large_array": self._large_array,
            "assignment": lambda: assignment_steps(self.cost),
            "deepcopy": lambda: copy.deepcopy(self.nested),
            "softmax": self._softmax,
        }
        self.times: list[float] = []
        self.factors: list[float] = []
        self._next = 0.0
        self._medians: np.ndarray | None = None

    def _small_arrays(self) -> None:
        p = np.eye(7)
        for _ in range(120):
            p = self.f @ p @ self.f.T + 0.01 * p
            p = p / p.max()

    def _large_array(self) -> float:
        total = 0.0
        for _ in range(2):
            total += float(np.exp(-self.big).sum() + np.sqrt(self.big).dot(self.big))
        return total

    def _softmax(self) -> float:
        p = np.exp(self.maps - self.maps.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        return float((p * self.bins).sum())

    def sample(self) -> float:
        """Run the kernel once; returns and records its speed factor (1.0
        at the reference speed, 1.5 when the machine is 1.5x slower)."""
        t_start = time.perf_counter()
        log_sum = 0.0
        for name, part in self.parts.items():
            t0 = time.perf_counter()
            part()
            log_sum += math.log((time.perf_counter() - t0) / self.REFERENCE_S[name])
        factor = math.exp(log_sum / len(self.parts))
        self.times.append((t_start + time.perf_counter()) / 2)
        self.factors.append(factor)
        self._medians = None
        self._next = time.perf_counter() + EVERY_S
        return factor

    def maybe_sample(self) -> None:
        """Sample when EVERY_S has passed since the last sample."""
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self, t0, t1) -> np.ndarray:
        """Speed factor around intervals [t0, t1] (scalars or arrays): the
        median of the WINDOW samples centred nearest each interval's middle."""
        if self._medians is None:
            f = np.asarray(self.factors)
            k = min(WINDOW, len(f))
            windows = np.lib.stride_tricks.sliding_window_view(f, k)
            self._medians = np.median(windows, axis=1)
        mid = (np.asarray(t0, dtype=float) + np.asarray(t1, dtype=float)) / 2
        k = min(WINDOW, len(self.factors))
        start = np.searchsorted(np.asarray(self.times), mid) - k // 2
        return self._medians[np.clip(start, 0, len(self._medians) - 1)]
