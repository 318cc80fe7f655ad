"""Host-speed sampling: seconds on a drifting host, scaled to a fixed one.

On a small shared virtual machine a core's speed drifts by up to 2x
over seconds to minutes as other tenants load the host, which no median
over one run removes; but the drift slows fixed reference code that
runs at the same moment too.  While a timed region runs,
:class:`HostSpeed` runs a fixed reference slice of interpreter work at
its start, at its end and on every ``SIGALRM`` of an ``INTERVAL_S``
interval timer in between.  Each sample is the host's speed:
``NOMINAL_SLICE_S`` over the slice's thread CPU time (CPU time, so that
another process sharing the core during a slice is not counted).

Nominal seconds are host seconds times the mean speed of the samples:
the time the same work takes on a host that runs the slice in
``NOMINAL_SLICE_S``.  The samples fall at even steps of wall time, so
their mean is the mean speed over the region.  The slices' own wall
time is not part of the region's host seconds.  The ``predict_http``
workload takes its samples from blocks of requests to a reference HTTP
server instead (``echo.py``), as its time goes to round trips more
than to the interpreter.

Only the main thread takes ``SIGALRM``; regions must not nest.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Rows the reference slice builds and folds.
SLICE_ROWS = 1500
#: The slice's thread CPU time on the nominal host (about the median on
#: a 2 GHz Xeon Sapphire Rapids vCPU).
NOMINAL_SLICE_S = 0.75e-3
#: Sampling interval.
INTERVAL_S = 0.05


def reference_slice() -> int:
    """Fixed interpreter work: small-object allocation, dict and float
    operations, as in the simulator's own Python code."""
    rows = [{"key": i & 63, "value": i * 0.5} for i in range(SLICE_ROWS)]
    sums: dict[int, float] = {}
    for row in rows:
        sums[row["key"]] = sums.get(row["key"], 0.0) + row["value"]
    return len(sums)


class HostSpeed:
    """Samples the host's speed between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.slice_wall_s = 0.0

    def _sample(self, *_signal_args) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        reference_slice()
        spent = max(time.thread_time() - cpu, 1e-9)
        self.samples.append(NOMINAL_SLICE_S / spent)
        self.slice_wall_s += time.perf_counter() - wall

    def start(self) -> None:
        self.samples = []
        self.slice_wall_s = 0.0
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def host(self, elapsed_s: float) -> float:
        """Host seconds of a region that took ``elapsed_s`` with the
        slices inside it."""
        return elapsed_s - self.slice_wall_s

    def nominal(self, elapsed_s: float) -> float:
        """Nominal seconds of that region."""
        return self.host(elapsed_s) * statistics.fmean(self.samples)
