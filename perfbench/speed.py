"""The host's speed, sampled while the benchmark runs.

On a shared host the same pure-Python work runs up to half again as long
for tens of seconds at a time, as other tenants load the host's cores.
:class:`HostSpeed` measures that as it happens: a background thread times
a fixed pure-Python loop, the probe, by the thread's own CPU time, every
``period`` seconds.  Waiting for the GIL or for a CPU costs a thread no
CPU time, so a slow probe means a slow core, not a busy program.  The probe
holds the GIL about 1.5 ms per period (about 1.5% of a single-threaded
pass).

The mean probe time over a window divided by :data:`NOMINAL_PROBE_S`, the
probe's time on an unloaded host, is the probe's slowdown there.  The
proof path, which touches far more memory than the probe, slows more: by
that slowdown to the power :data:`SENSITIVITY`, which
:meth:`HostSpeed.slowdown` returns.  A
time measured in the window, divided by it, is the time the same work takes
at nominal host speed.
"""

from __future__ import annotations

import statistics
import threading
import time

PROBE_LOOPS = 20_000

#: the probe's CPU time at full speed on the 2-vCPU virtual machine the
#: baseline was measured on: about the fastest of 700 probes
NOMINAL_PROBE_S = 0.0012

#: a probe slowdown ``s`` slows the proof path by ``s ** SENSITIVITY``:
#: fitted per unit of cold-cores and fault-campaign, on 116 repeats at
#: probe slowdowns 1.08-1.5 against the same units' repeats at 0.95-1.03,
#: the exponents were 1.53-1.78
SENSITIVITY = 1.65


def probe() -> int:
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return total


class HostSpeed:
    def __init__(self, period: float = 0.1) -> None:
        self.period = period
        #: (perf_counter at the probe's end, the probe's CPU seconds)
        self.readings: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        if self._thread.is_alive():
            self._stop.set()
            self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(self.period):
            started = time.thread_time()
            probe()
            self.readings.append((time.perf_counter(), time.thread_time() - started))

    def slowdown(self, start: float, end: float) -> float:
        """The proof path's slowdown over ``[start, end]``, from the probes
        that ended inside it (the one nearest its middle when none did)."""
        readings = list(self.readings)
        inside = [cpu for at, cpu in readings if start <= at <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(readings, key=lambda r: abs(r[0] - middle))[1]]
        return (statistics.fmean(inside) / NOMINAL_PROBE_S) ** SENSITIVITY
