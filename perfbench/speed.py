"""Machine-speed calibration interleaved with the timed requests.

The benchmark runs on a shared host whose speed drifts by tens of percent
over seconds to minutes, far more than any bound worth setting.  So the timed
loop stops between requests, at least every CAL_EVERY_S of request time, to
time a fixed calibration kernel for CAL_SHARE of the request time since the
last stop.  Each request's time is scaled by CAL_REF_S / (mean kernel time
of the calibrations within CAL_WINDOW_S of request time around it): times
are seconds of a machine that runs the kernel in CAL_REF_S.  Raw wall-clock
figures are printed beside them.

The kernel mixes the kinds of work the library does (small numpy arrays,
0-d complex numpy arithmetic, plain Python), so it slows down and speeds up
with it.
"""

import bisect
import itertools
import time

import numpy as np

#: kernel time of the host the benchmark was defined on, at its median speed
CAL_REF_S = 5.6e-3
#: share of the request time spent calibrating
CAL_SHARE = 0.1
#: longest stretch of requests between two calibrations (a longer request
#: is calibrated after it ends)
CAL_EVERY_S = 0.05
#: request time on either side of a request whose calibrations scale it
CAL_WINDOW_S = 2.0

_X = np.linspace(0.0, 1.0, 16)


def kernel_time():
    """Time of three loops of about 2 ms each: small numpy arrays, 0-d
    complex numpy arithmetic and pure Python.  Each alone tracks some
    workloads better than others; together they track all four."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        acc += float(np.sum(_X * i))
    for i in range(150):
        w = np.asarray(float(i + 1))
        eps = 1.0 + 2.0 / (3.0 - w.astype(complex) ** 2 - 0.1j * w)
        k = np.sqrt(4.0 * eps - 1.0)
        k = np.where(k.imag < 0, -k, k)
        acc += float(((eps - k) / (eps + k)).real)
    for i in range(12000):
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - t0


class ScaledLoop:
    """Request times in wall-clock and in calibrated seconds."""

    def __init__(self):
        self.raw = []       # (seconds, ops) per request
        self.raw_s = 0.0    # wall-clock seconds spent in requests
        self._at = []       # request time at each calibration
        self._sum = []      # kernel seconds of each calibration
        self._count = []    # kernel runs of each calibration
        self._calibrate()

    def _calibrate(self):
        since = self.raw_s - (self._at[-1] if self._at else 0.0)
        total, runs = 0.0, 0
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < CAL_SHARE * since:
            total += kernel_time()
            runs += 1
        self._at.append(self.raw_s)
        self._sum.append(total)
        self._count.append(runs)

    def add(self, seconds, ops):
        self.raw.append((seconds, ops))
        self.raw_s += seconds
        if self.raw_s - self._at[-1] >= CAL_EVERY_S:
            self._calibrate()

    def scaled(self):
        """Calibrated seconds of each request."""
        if self.raw_s > self._at[-1]:
            self._calibrate()
        sums = [0.0, *itertools.accumulate(self._sum)]
        counts = [0, *itertools.accumulate(self._count)]
        out, start = [], 0.0
        for seconds, _ in self.raw:
            lo = bisect.bisect_left(self._at, start - CAL_WINDOW_S)
            hi = bisect.bisect_right(self._at, start + seconds + CAL_WINDOW_S)
            kernel = (sums[hi] - sums[lo]) / (counts[hi] - counts[lo])
            out.append(seconds * CAL_REF_S / kernel)
            start += seconds
        return out

    def ops(self):
        return sum(n for _, n in self.raw)

    def ops_per_s(self):
        """Operations per calibrated second."""
        return self.ops() / sum(self.scaled())

    def factor(self):
        """Calibrated over wall-clock seconds, for the whole loop."""
        return sum(self.scaled()) / self.raw_s

    def latencies(self):
        """Calibrated seconds per operation, one value per request."""
        return [s / n for s, (_, n) in zip(self.scaled(), self.raw)]
