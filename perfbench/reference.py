"""A fixed reference kernel, timed between tasks to read the machine's speed.

The host slows this guest down by up to half, for spells of under a second
up to whole minutes, and a slow spell slows every kind of code at once.
Dividing a task's CPU time by the reference kernel's, timed in the same
process during the same pass, cancels most of it.  The kernel uses no
``freewick`` code, so no change to the program can move it; it mixes what
the workloads do: an interpreted integer loop, small numpy calls, a sort
of Python objects and arithmetic on a freshly allocated array larger than
the L2 cache.  Code of different kinds slows by different amounts in a
slow spell (interpreted code more than large-array arithmetic), so the
division evens out most of the noise, not all of it.
"""

from __future__ import annotations

import time

import numpy as np

EVERY_S = 0.5  # CPU time of tasks between two timings of the kernel

_A = np.arange(36.0).reshape(6, 6)
_B = _A.T.copy()
_PAIRS = [[i, str(i)] for i in range(20_000)]
_BIG = np.linspace(0.0, 1.0, 1 << 19)  # 4 MB


def kernel() -> int:
    total = 0
    for i in range(400_000):
        total += i * i % 7
    for _ in range(4_000):
        total += int(np.tensordot(_A, _B, 1).sum()) & 1
    for _ in range(8):
        ordered = sorted(_PAIRS, key=lambda pair: pair[1])
        total += sum(pair[0] & 1 for pair in ordered)
    for _ in range(48):
        total += int(np.multiply(_BIG, 1.0001).sum()) & 1
    return total


class Reference:
    """Times the kernel at the start, when ``due`` and at the end of a pass."""

    def __init__(self):
        kernel()  # warm-up, not recorded
        self.samples: list[float] = []
        self.spent = 0.0  # CPU time taken by the kernel, warm-up excluded
        self.sample()

    def sample(self) -> None:
        start = time.process_time()
        kernel()
        took = time.process_time() - start
        self.samples.append(took)
        self.spent += took
        self.last = time.process_time()

    def due(self) -> None:
        """Time the kernel if the tasks ran ``EVERY_S`` since the last timing."""
        if time.process_time() - self.last >= EVERY_S:
            self.sample()
