"""How fast the machine runs right now, from a fixed pure-Python computation.

The benchmark's hosts are shared, and their speed drifts: on a 2-vCPU host
this reference loop took between 0.54 and 0.95 of a second (at 15 times its
size here) in consecutive runs. So the benchmark times `reference()` around
the work it measures and scales the work's time by the speed measured around
it: `scale(seconds, ref)` is the time the work would have taken had
`reference()` run in NOMINAL_S. The in-process worker times it between
cycles of operations; around a child process a `Sampler` times it in a
thread while the child runs. The reference is a plain interpreter loop that
allocates nothing the garbage collector tracks, so it does not depend on the
program's state, and it never changes: a change to the program moves the
scaled times, a change of machine speed mostly does not. `baseline.json`
records scaled and measured figures of the same runs."""

from __future__ import annotations

import statistics
import threading
from time import perf_counter

NOMINAL_S = 0.020  # reference() on an unloaded 2 GHz x86-64 vCPU, CPython 3.11
SAMPLER_INTERVAL_S = 0.5


def reference():
    total = 0
    for i in range(180000):
        total += i * i % 7
    return total


def sample():
    """Seconds one reference() takes now."""
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def scale(seconds, ref):
    """`seconds` measured while reference() took `ref`, at nominal speed."""
    return seconds * NOMINAL_S / ref


class Sampler:
    """reference() timed now, then every SAMPLER_INTERVAL_S in a thread, until stop().

    Used around a child process, which the calling thread cannot time
    reference() during: the thread runs beside the child, on the other CPU of
    a 2-CPU host, and keeps it busy less than 5% of the time.
    """

    def __init__(self):
        self.samples = [sample()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(SAMPLER_INTERVAL_S):
            self.samples.append(sample())

    def stop(self):
        """Stop sampling; return the mean reference time over the whole span."""
        self._stop.set()
        self._thread.join()
        self.samples.append(sample())
        return statistics.mean(self.samples)
