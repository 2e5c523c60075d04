"""Machine-speed gauge: a short fixed kernel timed between library calls.

On a shared virtual machine the CPU's speed drifts by +-20% and more over
seconds (measured on a 2-core Xeon VM: 5-second medians of one fixed kernel
ranging 0.20-0.33 s, with no steal time reported), and kernels drift
together: timed side by side, a library evaluation loop and a kernel of the
same small-array mix kept their ratio within 3-5% over 5-second windows
while each alone moved by 38%.  Tracking needs dense samples: with the
kernel timed only every half second the ratio spread 7-8%.

So the benchmark times a ~5 ms numpy/scipy kernel, which calls no library
code, about every 0.1 s, and scales each measured interval by the kernel's
reference time over its mean time around that interval.  Timings are then
in seconds at the reference speed.  Calibration time is removed from the
intervals it interrupts.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np
import scipy.linalg as sla

#: Seconds between calibrations.
INTERVAL_S = 0.1

#: Calibrations this close to an interval also set its speed, seconds.  Short
#: windows track short slow spells: over seven runs of eval_dense the spread
#: of eval_us_p99 was 5% with 0.2 s, 7% with 0.5 s, 9% with 1 s, 15% with 3 s.
WINDOW_S = 0.2

#: Duration of one calibration on the reference machine, seconds.  A fixed
#: constant: timings are in seconds of a machine this fast.
REFERENCE_S = 0.005

_RNG = np.random.default_rng(12345)
_SKEW = _RNG.standard_normal((12, 12))
_SKEW = 0.1 * (_SKEW - _SKEW.T)
_ORTHO = sla.expm(10.0 * _SKEW)
_TALL = _RNG.standard_normal((1000, 10))
_SMALL = _RNG.standard_normal((100, 6))
_EYE = np.eye(6)


def _kernel() -> None:
    # The shapes and mix of the library's hot paths: the 2r x 2r log (r = 6)
    # and an economy QR of 1000 x 10 of a fit, then the small QR, exp and
    # validations of evaluations at St(100, 6).
    sla.logm(_ORTHO)
    np.linalg.qr(_TALL)
    for _ in range(30):
        q, _ = np.linalg.qr(_SMALL)
        np.linalg.norm(q.T @ q - _EYE)
        e = sla.expm(_SKEW)
        u = _SMALL @ e[:6, :6] + q @ e[6:, :6]
        np.all(np.isfinite(u))


class SpeedGauge:
    """Calibration marks, and the scaling of measured intervals by them."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.starts: list[float] = []
        self.ends: list[float] = []
        if enabled:
            _kernel()  # first calls carry one-off set-up cost

    def calibrate(self) -> None:
        if not self.enabled:
            return
        t0 = perf_counter()
        _kernel()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def tick(self) -> None:
        """Calibrate if the last calibration is INTERVAL_S old."""
        if self.enabled and (not self.ends or perf_counter() - self.ends[-1] >= INTERVAL_S):
            self.calibrate()

    def scaled(self, t0: float, t1: float) -> float:
        """The work time in [t0, t1] at reference speed.

        Calibrations inside the interval are subtracted from it.  The speed
        is the mean calibration time over those within WINDOW_S of the
        interval, and at least the nearest one on either side.  Without
        calibrations the raw duration is returned.
        """
        if not self.starts:
            return t1 - t0
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        work = (t1 - t0) - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        first = min(bisect.bisect_left(self.ends, t0 - WINDOW_S), max(lo - 1, 0))
        last = max(bisect.bisect_right(self.starts, t1 + WINDOW_S), min(hi + 1, len(self.starts)))
        durs = [self.ends[i] - self.starts[i] for i in range(first, last)]
        return work * REFERENCE_S / (sum(durs) / len(durs))

    def summary(self) -> dict:
        durs = sorted(e - s for s, e in zip(self.starts, self.ends))
        if not durs:
            return {"calibrations": 0}
        return {
            "calibrations": len(durs),
            "median_s": durs[len(durs) // 2],
            "min_s": durs[0],
            "max_s": durs[-1],
            "reference_s": REFERENCE_S,
        }
