"""Host-speed reference for timings taken on a shared, drifting machine.

On a small shared host the effective CPU speed drifts by 20-30 % over tens
of seconds and within a run, which swamps differences between runs.  A
fixed reference that does not touch ``matmoments`` is timed between items
throughout a phase, and each timing is reported at the reference speed:
raw seconds times the reference's nominal time over the median of the
reference samples taken within ``WINDOW_S`` of it (at least
``min_samples`` of them).  A change to the library does not change the
reference, so library regressions still show in full; only the host's
speed is divided out.

Two references match the two shapes of work the benchmark times:

* ``reference_kernel``: Python arithmetic plus small numpy linear algebra
  in process, the mix the library runs (certify, moments);
* ``spawn_reference``: a fresh interpreter that imports ``numpy.linalg``,
  the shape of a ``momentctl`` call without the library (cli, set-up).
"""

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

WINDOW_S = 0.5       # reference samples this close to a timing set its speed

_MATRIX = np.random.default_rng(0).standard_normal((24, 24))
_MATRIX = _MATRIX + _MATRIX.T


def reference_kernel():
    """Seconds taken by a fixed piece of in-process work, about 1 ms."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(12):
        np.linalg.eigvalsh(_MATRIX + i)
        _ = _MATRIX @ _MATRIX
        for k in range(400):
            acc += k * 0.5
    return time.perf_counter() - start


def spawn_reference():
    """Seconds to start an interpreter that imports numpy.linalg and exits, about 0.15 s."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy.linalg"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


class Speed:
    """Reference samples ``(time, seconds)`` taken at most every ``every`` seconds."""

    def __init__(self, kernel=reference_kernel, nominal_s=1e-3, every=0.1, min_samples=7):
        self.kernel, self.nominal_s = kernel, nominal_s
        self.every, self.min_samples = every, min_samples
        self.stamps = []
        self.samples = []
        self._due = 0.0

    @classmethod
    def spawning(cls):
        return cls(spawn_reference, nominal_s=0.15, every=1.0, min_samples=5)

    def tick(self, force=False):
        now = time.perf_counter()
        if force or now >= self._due:
            self.stamps.append(now)
            self.samples.append(self.kernel())
            self._due = time.perf_counter() + self.every

    @property
    def ref_s(self):
        return statistics.median(self.samples)

    def scale(self, start, end):
        """Factor that turns raw seconds timed in [start, end] into seconds at reference speed."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        need = self.min_samples
        if hi - lo < need:
            mid = bisect.bisect_left(self.stamps, 0.5 * (start + end))
            lo = max(0, min(mid - need // 2, len(self.stamps) - need))
            hi = min(len(self.stamps), lo + need)
        return self.nominal_s / statistics.median(self.samples[lo:hi])
