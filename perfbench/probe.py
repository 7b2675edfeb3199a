"""Reference-second timing: wall time corrected for host speed.

On a shared VM the same pure-Python work can take anywhere from 0.8× to
1.8× its usual wall time, depending on what the neighbours do.  The
probe samples a frozen pure-Python kernel (SHA3 chaining plus a small
dict, GC paused) throughout every timed phase.  Each stretch of program
time between two samples is divided by the kernel time measured at its
end and scaled by :data:`REF_SLICE_S`, the kernel time of the reference
host, giving **reference seconds** (``ref_s``): the time the stretch
would have taken on the reference host.  Parent and change share this
file, so both are normalised identically.

Samples come from an ``ITIMER_REAL`` / ``SIGALRM`` timer, so a long
single call (a genesis commit) is sampled as densely as a loop of short
ones.  The time the handler spends in the kernel is excluded from the
program's clock (:meth:`Probe.work_clock`).

The kernel, its size and :data:`REF_SLICE_S` are frozen: changing any
of them changes every reported ``ref_s`` number.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import statistics
import time
from typing import List, Tuple

#: kernel iterations per sample
KERNEL_ROUNDS = 300
#: kernel time of one sample on the reference host (seconds); a sample
#: taking exactly this long means "reference speed"
REF_SLICE_S = 600e-6
#: sampling period of the interval timer (seconds)
PERIOD_S = 0.02


def kernel() -> bytes:
    """The frozen probe kernel: SHA3 chaining into a small dict.  Its
    working set stays in the L1 cache, so the program's own memory
    footprint does not change the kernel's time."""
    table = {}
    digest = b"perfbench-probe"
    for i in range(KERNEL_ROUNDS):
        digest = hashlib.sha3_256(digest).digest()
        table[digest[:2]] = i
        if len(table) > 32:
            table.clear()
    return digest


def to_ref_seconds(marks: List[Tuple[float, float]], start: float, end: float) -> float:
    """Reference seconds of the program-time interval ``[start, end]``.

    ``marks`` are ``(work_clock, slice_s)`` samples in clock order.  The
    stretch ending at a mark is scaled by that mark's slice time; the
    stretch after the last mark in the interval is scaled by the next
    mark (or, past the end of the list, the last one).  An interval
    without any mark uses the nearest one.
    """
    if end <= start:
        return 0.0
    if not marks:
        raise ValueError("no probe samples: the probe was not running")
    total = 0.0
    prev = start
    for clock, slice_s in marks:
        if clock <= start:
            continue
        cut = min(clock, end)
        total += (cut - prev) * REF_SLICE_S / slice_s
        prev = cut
        if clock >= end:
            break
    if prev < end:
        # tail beyond the last sample: use the closest sample
        slice_s = marks[-1][1]
        for clock, s in marks:
            if clock >= end:
                slice_s = s
                break
        total += (end - prev) * REF_SLICE_S / slice_s
    return total


class Probe:
    """Samples the kernel on a timer and keeps a probe-free clock.

    Use as a context manager around everything the process times::

        with Probe() as probe:
            t0 = probe.work_clock()
            ...
            ref = probe.ref_seconds(t0, probe.work_clock())
    """

    def __init__(self):
        #: (work clock at the sample, kernel seconds) in order
        self.marks: List[Tuple[float, float]] = []
        self._probe_total = 0.0
        self._previous_handler = None

    # -- clock ---------------------------------------------------------

    def work_clock(self) -> float:
        """``perf_counter`` minus the time spent inside the probe."""
        while True:
            spent = self._probe_total
            now = time.perf_counter()
            if self._probe_total == spent:  # no sample landed in between
                return now - spent

    def sample(self) -> float:
        """Run the kernel once, record it, return its time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        slice_s = t1 - t0
        self.marks.append((t0 - self._probe_total, slice_s))
        # everything from t0 to now is probe time (kernel + bookkeeping)
        self._probe_total += time.perf_counter() - t0
        return slice_s

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "Probe":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    # -- results -------------------------------------------------------

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the work-clock interval ``[start, end]``
        (take a :meth:`sample` after ``end`` to close the interval)."""
        return to_ref_seconds(self.marks, start, end)

    def slice_us(self, start: float, end: float) -> float:
        """Median kernel time (µs) of the samples inside an interval."""
        inside = [s for clock, s in self.marks if start <= clock <= end]
        if not inside:
            inside = [self.marks[-1][1]]
        return statistics.median(inside) * 1e6

    @property
    def probe_seconds(self) -> float:
        """Wall time spent inside the probe so far."""
        return self._probe_total
