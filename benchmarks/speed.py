"""Machine-speed probe, so that timings taken on a shared host compare.

On a small virtual machine that shares its physical cores, the speed of
the same Python work drifts by a third over tens of seconds, which
swamps the changes the benchmark exists to detect.  While installed, the
probe interrupts the process every ``INTERVAL_S`` and times a fixed
piece of work (big-int shifts and XORs, dict stores, small numpy calls:
the kinds of work qtanner does) of about a millisecond.  A timed
interval is then reported with the probes' own time taken out and each
stretch between two probes scaled by ``NOMINAL_S / (probe time)``: the
seconds the interval would have taken at the speed at which the probe
takes ``NOMINAL_S``.  The probe code never changes with the program, so it
measures the machine and not the change under test.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
NOMINAL_S = 0.0007  # the probe's time on a quiet 2-vCPU Xeon (Sapphire Rapids) guest
SEED_PROBES = 5

_TABLE = np.arange(1, 8192, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
_MASK = (1 << 208) - 1
_VIEW = [3, 17, 29, 41, 53, 61, 7, 11, 19, 23, 31, 37, 43, 47, 59, 2]
_LOOKUP = {i: (i * 40503) & 0xFFFF for i in range(256)}


def _gather(bits: int, view: list[int]) -> int:
    out = 0
    for p, q in enumerate(view):
        out |= ((bits >> q) & 1) << p
    return out


def probe_work() -> int:
    """Fixed work; allocates no containers, so it never triggers the
    cyclic garbage collector over the program's objects."""
    acc = 0
    x = 0x5DEECE66D
    for i in range(500):  # big-int arithmetic and small numpy calls
        x = ((x << 5) ^ (x >> 3) ^ i) & _MASK
        acc += x.bit_count()
        if not i & 63:
            acc += int(np.searchsorted(_TABLE, np.uint64(x & 0xFFFFFFFFFFFF)))
            acc += int((_TABLE & np.uint64(i)).argmax())
    for i in range(150):  # interpreter-bound: calls, loops, dict lookups, branches
        loc = _gather((i * 2654435761) & 0xFFFFFFFFFFFFFFFF, _VIEW)
        acc += _LOOKUP[loc & 255]
        acc = acc ^ loc if loc & 1 else acc + 1
    return acc


class SpeedProbe:
    """Context manager: runs the probe on a SIGALRM timer while active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration) of each probe
        self._old_handler = None

    def _probe(self, *_):
        t0 = time.perf_counter()
        probe_work()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        for _ in range(SEED_PROBES):
            self._probe()
        self._old_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def nominal_seconds(self, t0: float, t1: float) -> float:
        """The ``perf_counter`` interval [t0, t1] without the probes run
        inside it, each stretch between probes rescaled by the probe that
        starts it (for the first stretch, the last probe before t0)."""
        i = bisect.bisect_left(self.samples, (t0,))
        inside = self.samples[i:bisect.bisect_left(self.samples, (t1,))]
        scale = NOMINAL_S / self.samples[max(i - 1, 0)][1]
        total = 0.0
        cursor = t0
        for start, dur in inside:
            total += (start - cursor) * scale
            cursor = start + dur
            scale = NOMINAL_S / dur
        return total + (t1 - cursor) * scale

    def median_probe_s(self) -> float:
        return statistics.median(d for _, d in self.samples)
