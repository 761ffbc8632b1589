"""A clock that reads host seconds at a fixed reference speed.

The 2-vCPU VM the benchmark was built on slows each vCPU on its own,
with no steal time and CPU time equal to wall time, by up to 1.9x in
stretches of one to several seconds: a fixed pure-Python loop reads
0.029 s in one stretch and 0.055 s in the next, and two copies pinned
to the two vCPUs do not slow together.  Raw host seconds of two runs
of the same code therefore differ by more than a regression bound.
So the end-to-end times are read from a :class:`Clock` that times
:func:`kernel` every ``PERIOD_S`` of the process's CPU time and scales
the host seconds between two timings by ``REFERENCE_S`` over their
mean.  When the host runs at the speed it had when ``REFERENCE_S`` was
measured, scaled seconds are host seconds.

The kernel uses no code of the program under test, so a change to the
program moves the timed stretches and not the kernel: a program 30%
slower reads 30% slower after scaling.  It mimics the program's hot
path (hash-consing nodes keyed by tuples in dicts, memoised recursion,
small-int arithmetic) so that a slow stretch slows it about as much as
it slows the simulator.
"""

from __future__ import annotations

import gc
import signal
import time

#: Seconds :func:`kernel` typically took on the 2-vCPU VM (Xeon,
#: CPython 3.11).  Only the ratio of two scaled times means anything,
#: so this constant just keeps the scaled figures near host seconds.
REFERENCE_S = 0.0045

#: CPU seconds between two timings of the kernel; the kernel costs
#: about 5% on top.
PERIOD_S = 0.1

#: Depth of the node DAG and how many DAGs one timing builds.
_LEVELS = 12
_BUILDS = 2
_MODULUS = 4093


def kernel() -> int:
    """Build ``_BUILDS`` hash-consed node DAGs; return the node count."""
    table: dict = {}
    memo: dict = {}

    def node(level, low, high):
        if low == high:
            return low
        key = (level, low, high)
        found = table.get(key)
        if found is None:
            found = table[key] = len(table) + 2
        return found

    def build(level, x):
        if level == _LEVELS:
            return x & 1
        key = (level, x)
        found = memo.get(key)
        if found is None:
            found = memo[key] = node(
                level, build(level + 1, (x * 5 + 1) % _MODULUS),
                build(level + 1, (x * 3 + level) % _MODULUS))
        return found

    for start in range(_BUILDS):
        memo.clear()
        build(0, start)
    return len(table)


def timed() -> float:
    """Seconds one :func:`kernel` call takes now.  The cyclic garbage
    collector is off meanwhile: a collection of the program's heap (the
    BDD arena holds millions of objects) would read as a slow host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Host seconds and reference seconds since :meth:`start`.

    A scaling clock times the kernel on :meth:`start`, on every
    :meth:`read` and on every ``SIGPROF`` of a profiling interval timer
    (every ``PERIOD_S`` of CPU time this process spends, so never while
    it waits on a child), and adds the host seconds since the previous
    timing, times ``REFERENCE_S`` over the mean of the two timings, to
    the reference seconds.  The kernel's own time counts in neither.
    A clock made with ``scaling=False`` reads plain host seconds twice
    and never runs the kernel.
    """

    def __init__(self, scaling: bool = True) -> None:
        self.scaling = scaling
        self.host_s = 0.0
        self.scaled_s = 0.0
        self._timing = 0.0
        self._since = 0.0
        self._ticking = False

    def start(self) -> None:
        if not self.scaling:
            return
        kernel()  # warm-up: the first call is slow
        self._timing = timed()
        self._since = time.perf_counter()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if not self.scaling:
            return
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # a SIGPROF already pending must not kill the process
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def read(self) -> tuple:
        """``(host_s, scaled_s)`` now."""
        if not self.scaling:
            now = time.perf_counter()
            return now, now
        self._tick()
        return self.host_s, self.scaled_s

    def _tick(self, *_signal) -> None:
        if self._ticking:  # a SIGPROF inside a read
            return
        self._ticking = True
        stretch = time.perf_counter() - self._since
        timing = timed()
        self.host_s += stretch
        self.scaled_s += stretch * 2.0 * REFERENCE_S / (self._timing + timing)
        self._timing = timing
        self._since = time.perf_counter()
        self._ticking = False
