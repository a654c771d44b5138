"""Host speed, sampled inside every benchmark process while it works.

On a shared host the same fixed work runs at different speeds from one
minute to the next: neighbours load the physical cores, so wall and CPU
seconds move together, by up to a factor of 1.7 for tens of seconds.
A run of one or two minutes cannot average that out.  So while a
repetition works, every ``INTERVAL_S`` of a process's CPU time SIGPROF
interrupts it and it runs :func:`kernel`, a fixed mix of interpreter and
numpy work, and appends the kernel's wall and CPU seconds to
``<dir>/<pid>.txt``.  Forked pool workers re-arm the timer, so they
sample their own CPUs.  :func:`reference_seconds` scales a measured time
by how much slower than ``KERNEL_REFERENCE_S`` the kernel ran beside it,
on average: wall seconds by the kernel's wall seconds, which include
the time the host or the other processes kept it off its CPU, and CPU
seconds by its CPU seconds, which do not.  The kernel does the same work
on every commit, so a change to the program moves the scaled time and a
change in host speed does not.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

# Scaled times read in seconds of a host on which the kernel takes this
# long: about its median on the host of BASELINE.md.
KERNEL_REFERENCE_S = 0.015
# CPU seconds of a process between two samples; the kernel costs about
# 3% of the work.
INTERVAL_S = 0.5


# The kernel's arrays, allocated once: fresh ones would page-fault on
# every sample, and the host's page-fault cost is not what is sampled.
_START = np.linspace(0.0, 1.0, 20_000)
_ORDER = (np.arange(20_000) * 7919) % 20_000
_ARRAYS = np.empty((3, 20_000))


def kernel() -> float:
    """About 15 ms of work: gathers and ufuncs on arrays that fit in
    cache, then a dictionary loop, as the program mixes them."""
    values, shifted, scratch = _ARRAYS
    np.copyto(values, _START)
    for _ in range(12):
        np.take(values, _ORDER, out=scratch)
        scratch *= 1.0001
        scratch += 0.5
        np.maximum(scratch, values, out=shifted)
        np.negative(shifted, out=scratch)
        np.exp(scratch, out=scratch)
        np.sqrt(shifted, out=values)
        values += scratch
        np.minimum(values, 1.0, out=values)
    table = {}
    for i in range(60_000):
        key = (i * 31) % 1021
        table[key] = table.get(key, 0) + i
    return float(values.sum()) + len(table)


class Sampler:
    """Samples the kernel from SIGPROF in this process and its forks.

    With a ``recorder`` (a traced run) each sample is also a span, so the
    self time of the layer it interrupted leaves it out; a sample that
    lands while the recorder updates its stack records no span.
    """

    def __init__(self, out_dir: Path, recorder=None):
        self.out_dir = Path(out_dir)
        self.recorder = recorder
        self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        os.register_at_fork(after_in_child=self._arm)
        self._arm()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def _sample(self, signum, frame) -> None:
        if self.busy:
            return
        self.busy = True
        try:
            span = (self.recorder.begin("calibrate")
                    if self.recorder and not self.recorder.updating
                    else None)
            # The thread's CPU clock: while ITIMER_PROF is armed, the
            # process's CPU clock advances only at scheduler ticks.
            wall, cpu = time.perf_counter(), time.thread_time()
            kernel()
            wall = time.perf_counter() - wall
            cpu = time.thread_time() - cpu
            if span is not None:
                self.recorder.end(span)
            with open(self.out_dir / f"{os.getpid()}.txt", "a") as stream:
                stream.write(f"{wall!r} {cpu!r}\n")
        finally:
            self.busy = False


def load(out_dir: Path) -> Tuple[List[float], List[float]]:
    """Every process's kernel wall seconds and CPU seconds."""
    samples = [line.split() for path in sorted(Path(out_dir).glob("*.txt"))
               for line in path.read_text().splitlines()]
    return ([float(wall) for wall, _ in samples],
            [float(cpu) for _, cpu in samples])


def reference_seconds(seconds: float, kernel_s: Sequence[float]) -> float:
    """``seconds`` at the speed at which the kernel takes
    ``KERNEL_REFERENCE_S``, given the kernel's times beside them."""
    if not kernel_s:
        raise ValueError("no kernel samples to scale by")
    return seconds * KERNEL_REFERENCE_S / statistics.fmean(kernel_s)
