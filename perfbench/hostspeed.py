"""How fast this host runs plain Python right now.

On a shared host the speed of one core drifts by a quarter or more over
seconds to minutes, as other tenants load the machine's cores and
caches; CPU time does not hide that, because the program simply gets
less done per CPU second.  :class:`HostSpeed` times a fixed calibration
loop (plain Python, none of the program's code) between units of
measured work, and scales each unit's CPU seconds to seconds at the
reference speed.  A figure then reads the same in a slow phase of the
host as in a fast one, and a change to the program moves it as it moves
the program's CPU time.

This module imports nothing of the program, so a fresh interpreter can
calibrate before it imports the program.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

#: CPU seconds one calibration takes at the reference speed: about its
#: median on the 2-core Xeon cloud VM the benchmark was tuned on.  Only
#: ratios to it matter.
REFERENCE_S = 0.00135

#: calibrations the speed is the median of: enough that a burst of fast
#: calibrations (up to 1.7x, while the program ran about 10% faster)
#: cannot move it
WINDOW = 25


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def calibrate() -> int:
    """The fixed calibration loop: dict updates, small objects, a keyed
    sort and tuple hashing, the kinds of work the control plane does."""
    d: dict[int, int] = {}
    for i in range(3000):
        k = i % 977
        d[k] = d.get(k, 0) + i
    cells = [_Cell(i % 97, (i * 31) % 101) for i in range(625)]
    cells.sort(key=lambda c: (c.b, c.a))
    return hash(tuple((c.a, c.b) for c in cells)) ^ len(d)


class HostSpeed:
    """A stopwatch of this thread's CPU time in reference seconds.

    The speed is the median of the last ``WINDOW`` calibrations (of the
    five taken at the start, until that many have been taken).  Each
    :meth:`lap` scales the CPU time since the previous lap by the current
    speed, then calibrates again; calibrations themselves are not
    counted.  Create it, and read it, on the thread whose work it times.
    """

    def __init__(self) -> None:
        self._times: deque[float] = deque(maxlen=WINDOW)
        for _ in range(5):
            self._calibrate()
        #: the speed each lap was scaled by
        self.factors: list[float] = []
        self._total_s = 0.0
        self._mark = time.thread_time()

    def _calibrate(self) -> None:
        # Time a second, warm run: a first run after the program's work
        # finds the loop out of cache and reads slower than back-to-back
        # runs do, so timing only warm runs keeps every sample alike.
        calibrate()
        t0 = time.thread_time()
        calibrate()
        self._times.append(time.thread_time() - t0)

    @property
    def factor(self) -> float:
        """Reference seconds per CPU second at the current speed."""
        return REFERENCE_S / statistics.median(self._times)

    def elapsed(self) -> float:
        """Reference seconds counted so far, the running lap included."""
        return self._total_s + (time.thread_time() - self._mark) * self.factor

    def lap(self) -> float:
        """Reference seconds since the previous lap; then recalibrate."""
        factor = self.factor
        took = (time.thread_time() - self._mark) * factor
        self._total_s += took
        self.factors.append(factor)
        self._calibrate()
        self._mark = time.thread_time()
        return took
