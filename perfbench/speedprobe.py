"""Host-speed probe: scale a pass's times to a fixed reference speed.

On a virtual machine that shares its host, the other tenants change how
fast the benchmark's code runs (by up to 2x on a 2-vCPU Xeon VM, in phases
that last from milliseconds to minutes).  A pass cannot avoid that, but
it can measure it where it happens: every ``PERIOD_S`` of wall time a signal handler, in the pass's
own process and on its own vCPU, times a fixed pure-Python loop.  The mean
rate of those loops over an interval is the host's speed during that
interval; an interval's time scaled to the reference speed is

    (wall time - time spent in the probe) * mean probe rate / REFERENCE_RATE

The probe never calls spinz, so a change to spinz cannot change it, and
it costs well under 1% of a pass.  Python runs signal handlers between
bytecodes, so a long call into C (numpy) delays the next probe until it
returns.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

PERIOD_S = 0.01
# Probe loops per second at which scaled times equal wall times: about the
# median rate on a 2-vCPU Xeon VM under Python 3.11.  Only a constant; a
# change of it rescales every run alike.
REFERENCE_RATE = 22_000.0
LOOP = 120
MODULUS = 1 << 200


def _loop() -> int:
    """Multiply-and-reduce on 200-bit ints: interpreter dispatch plus short
    big-int arithmetic, as in spinz's exact kernels.  Of three loops timed
    side by side in the same passes (README, Noise), this one left the
    least spread after scaling on three workloads and 25% more than
    Fraction arithmetic on campaign-conj; a loop on small ints left up to
    1.4 times as much, Fraction arithmetic 3.7 times as much on
    lattice-large."""
    s = 1
    for i in range(1, LOOP):
        s = (s * (i | 1)) % MODULUS + i
    return s


@dataclass(frozen=True)
class Mark:
    count: int = 0
    rate_sum: float = 0.0
    busy_s: float = 0.0


class SpeedProbe:
    def __init__(self):
        self.count = 0
        self.rate_sum = 0.0
        self.busy_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        _loop()
        d = time.perf_counter() - t
        self.count += 1
        self.rate_sum += 1.0 / d
        self.busy_s += d

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> Mark:
        return Mark(self.count, self.rate_sum, self.busy_s)

    def scale(self, wall_s: float, before: Mark, after: Mark) -> tuple[float, float]:
        """The interval's wall time scaled to the reference speed, and the
        host speed over it (mean probe rate over ``REFERENCE_RATE``).  An
        interval too short to hold a probe (a tiny self-test pass) takes
        the speed of the whole process so far, which always holds some:
        importing numpy alone takes many periods."""
        if after.count == before.count:
            before = Mark()
        speed = (after.rate_sum - before.rate_sum) / (after.count - before.count) / REFERENCE_RATE
        return (wall_s - (after.busy_s - before.busy_s)) * speed, speed
