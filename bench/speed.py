"""CPU-speed probe: times at a fixed reference speed on a host whose speed drifts.

On a shared host the CPU a process gets runs faster or slower for seconds
to minutes at a time, as other tenants load the same cores, by as much as
1.6x. Wall times taken in one run of a few tens of seconds then depend more
on when the run happened than on the program. The probe measures the drift
while the program runs and takes it out:

- a timer (SIGALRM every INTERVAL_S of wall time) interrupts the program
  between bytecodes and runs `kernel`, a fixed amount of pure-Python work
  much like the library's own (integer bit operations, dict stores, float
  arithmetic), and records how long it took;
- between two samples the CPU is taken to run at the speed of the sample
  before, so the work done in [a, b] is the integral of dt / cost, leaving
  out the probe's own time (about 1% of the wall time);
- `seconds(a, b)` converts that work back to seconds at the reference speed,
  at which one kernel takes REFERENCE_KERNEL_S.

The kernel does not call the library, so a faster library reads faster.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.02
KERNEL_ITERATIONS = 400
# One kernel's duration at the reference speed: the median kernel time on
# a 2-vCPU Intel Xeon VM (Python 3.11) while the library ran on it.
REFERENCE_KERNEL_S = 2.0e-4

_MASK = (1 << 61) - 1
_SCRATCH: dict[int, int] = {}   # reused, so the kernel allocates no container


def kernel() -> int:
    """A fixed amount of pure-Python work."""
    acc, f = 0, 0.0
    scratch = _SCRATCH
    for i in range(KERNEL_ITERATIONS):
        x = (i * 2654435761) & _MASK
        acc += (x & (x >> 3)).bit_count()
        scratch[x & 255] = acc
        f = f * 0.999 + i
    return acc


class SpeedProbe:
    """Samples the kernel's cost while active; see the module docstring.

    Use as a context manager around the measured code; `seconds(a, b)` for
    perf_counter() readings a < b taken inside it.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.costs: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.costs.append(end - start)

    def __enter__(self) -> SpeedProbe:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def work(self, a: float, b: float) -> float:
        """Kernels' worth of CPU work done in [a, b], probe time left out."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        if i > 0:
            cost, cur = self.costs[i - 1], max(a, self.ends[i - 1])
        else:
            cost, cur = self.costs[0], a
        total = 0.0
        for k in range(i, j):
            total += max(0.0, self.starts[k] - cur) / cost
            cost, cur = self.costs[k], min(self.ends[k], b)
        return total + max(0.0, b - cur) / cost

    def seconds(self, a: float, b: float) -> float:
        """Time of [a, b] at the reference speed."""
        return self.work(a, b) * REFERENCE_KERNEL_S

    def median_cost(self) -> float:
        return sorted(self.costs)[len(self.costs) // 2]
