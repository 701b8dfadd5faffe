"""Host speed: what machine a run measured on, and how fast it ran a fixed loop.

Wall-clock metrics move with the host as well as with the code.  On a
shared VM the same pass can take 1.0x to 1.6x as long from one minute to
the next, and process CPU time moves with it, so no clock isolates the
code.  Two fixed loops of pure-Python integer and dict work, the same kind
of work as the schedule builders, measure the host instead:

* the calibration loop, timed once per run for the host block, so a slower
  host shows as a slower calibration time next to unchanged work counts;
* the probe, timed over and over *during* each timed region by
  :class:`HostProbe`.  The region's wall time times ``speed()`` is the time
  it would have taken on a reference host whose probe takes
  :data:`REFERENCE_PROBE_S`; the timed metrics are reported on that scale.
"""

from __future__ import annotations

import os
import platform
import signal
import statistics
import time

CALIBRATION_REPEATS = 5
#: loop iterations of one probe
PROBE_ITERATIONS = 500
#: process CPU seconds between two probes (about 1% of the region)
PROBE_INTERVAL_S = 0.01
#: probe time of the reference host (a 2-vCPU Xeon VM)
REFERENCE_PROBE_S = 100e-6


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _calibration_loop() -> float:
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 0xFFF] = i
    if len(table) != 4096:
        raise RuntimeError("calibration loop produced the wrong table")
    return time.perf_counter() - t0


def _probe() -> float:
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 0xFF] = i
    return time.perf_counter() - t0


class HostProbe:
    """Times the probe every :data:`PROBE_INTERVAL_S` of CPU time in a region.

    A ``SIGPROF`` interval timer runs the probe from a signal handler, so the
    samples interleave with the region's own work in the one process.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(_probe())

    def __enter__(self) -> HostProbe:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        if not self.samples:  # a region shorter than one interval
            self.samples.append(_probe())

    def speed(self) -> float:
        """Mean of reference probe time over probe time, across the region.

        Probes come at even steps of CPU time, so the mean weights each
        stretch of the region by its length: wall time times this mean is
        the region's time at reference speed.  The host's speed moves
        within a second, and this mean spreads less than half as much from pass
        to pass as one taken from the median probe time.  A probe stretched
        by a context switch only pulls its term towards 0.
        """
        return statistics.fmean(REFERENCE_PROBE_S / t for t in self.samples)


def calibration_s() -> float:
    """Median time of the fixed calibration loop, in seconds."""
    return statistics.median(_calibration_loop() for _ in range(CALIBRATION_REPEATS))


def host_block(calibration: float) -> dict:
    """CPU model and count, Python and NumPy versions, calibration time."""
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_s": round(calibration, 6),
    }
