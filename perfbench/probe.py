"""Host-speed probe: scales measured times to a steady reference speed.

A shared virtual host (measured: 2 vCPUs, x86-64) changes speed by up to a
factor of two over minutes as other tenants load the physical cores, while
the work of one pass is fixed.  A fixed integer kernel, timed now and then on the same
core as the work, measures that speed: on an idle core it takes about
`NOMINAL_S`.  A time measured while the kernel averaged `m` seconds is
reported as `time * NOMINAL_S / m`, i.e. in seconds at the idle speed.  On a
quiet host the scaled and the raw times agree; the raw ones are kept in the
run record.

The kernel allocates nothing the cyclic garbage collector tracks, so sampling
it never triggers a collection of the measured program's heap.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Tuple

NOMINAL_S = 0.001
INTERVAL_S = 0.1

_SLOTS = [0] * 97


def probe_once() -> float:
    """Seconds taken by one run of the fixed kernel."""
    s = _SLOTS
    t0 = time.perf_counter()
    for k in range(97):
        s[k] = 1
    for r in range(14):
        for i in range(1, 400):
            k = (i * 7919 + r) % 97
            s[k] = s[k] * 3 + i * 12345678901
    return time.perf_counter() - t0


def scale(samples: List[float]) -> float:
    """Factor that takes a time measured during `samples` to idle speed."""
    return NOMINAL_S / statistics.fmean(samples)


class Sampler:
    """Runs the kernel every INTERVAL_S on a daemon thread while active.

    The thread shares the process, and so its core, with the measured work.
    `samples` holds (start, seconds) pairs.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float]] = [(time.perf_counter(), probe_once())]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            self.samples.append((time.perf_counter(), probe_once()))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append((time.perf_counter(), probe_once()))

    def scale_between(self, t0: float, t1: float) -> float:
        """Scale for an interval; the whole run's when it holds under 3 samples."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        return scale(inside if len(inside) >= 3 else [d for _, d in self.samples])
