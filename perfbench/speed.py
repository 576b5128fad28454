"""Host speed, read while an invocation runs, from a fixed probe kernel.

On a shared virtual machine a vCPU's speed drifts by tens of percent
from one minute to the next, because its host core also runs other
guests.  The CPU time of identical work moves with it, so neither the
wall nor the CPU time of an invocation is steady from run to run: the
same diagnose invocation took 2.6 s in one minute and 4.4 s in another.

While an invocation runs, one probe thread per CPU the invocation may
use, pinned to that CPU, times a fixed pure-Python kernel by its own
thread CPU time, about 0.5 ms every ``PERIOD_S``.  The kernel calls
nothing of smallmass, so its time moves with the host and not with the
program.  ``Speedometer.factor()`` is ``REFERENCE_KERNEL_S`` over the
mean kernel time: an invocation's times multiplied by it read as seconds
on a host where the kernel takes ``REFERENCE_KERNEL_S``.  On a 2-vCPU
VM the factor cut the spread of single diagnose invocation times,
(q3 - q1) / median, from 0.33 to 0.07.

The probes take about 2% of the invocation's CPUs on every commit alike.
"""

from __future__ import annotations

import os
import threading
import time

PERIOD_S = 0.025
# The kernel's thread CPU time on a 2-vCPU Xeon (Sapphire Rapids) KVM guest
# at its fast state; it only sets the unit of the scaled times.
REFERENCE_KERNEL_S = 4.5e-4


def kernel() -> int:
    total = 0
    for i in range(5000):
        total += i * i
    return total


class Speedometer:
    """Probe threads on ``cpus`` for the duration of a ``with`` block."""

    def __init__(self, cpus):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._probe, args=(cpu,), daemon=True)
                         for cpu in sorted(cpus)]

    def _probe(self, cpu):
        os.sched_setaffinity(threading.get_native_id(), {cpu})
        while True:
            start = time.thread_time()
            kernel()
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self):
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for t in self._threads:
            t.join()

    def factor(self) -> float:
        return REFERENCE_KERNEL_S * len(self.samples) / sum(self.samples)
