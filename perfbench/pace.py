"""Scale timings on a shared host to a nominal machine speed.

On a host shared with other tenants the speed of one core drifts by up to
2x, over stretches from a fraction of a second to minutes, and process CPU
time drifts with it.  A median of wall times then follows the machine as
much as the program.  A ``Pacer`` takes samples of that speed while the
timed code runs: a profiling timer (``ITIMER_PROF``) interrupts it every
``INTERVAL_S`` of CPU time, and the handler times ``probe()``, a fixed
piece of ``fractions.Fraction`` and dict work that never touches the
package under test.  ``stop`` returns the timed interval less the probes'
own time, scaled by the mean speed over the samples:

    paced seconds = (wall - probe time) * NOMINAL_S * mean(1 / sample)

so a paced time is what the interval would have taken on a machine where
one probe takes ``NOMINAL_S``.  Both commits of a comparison run the same
probe, so the constant cancels out of every ratio.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05    # CPU seconds between samples
EDGE_SAMPLES = 5     # samples after each interval, so a short one has some
NOMINAL_S = 0.0008   # one probe at nominal speed, near its time on 2 cores

_A = [Fraction(k % 7 - 3, k % 5 + 1) for k in range(1, 200)]
_B = Fraction(3, 7)


def probe():
    """A fixed mix of small-Fraction arithmetic and tuple-keyed dict
    updates, the two things the package spends its time on."""
    s, d = Fraction(0), {}
    for k, a in enumerate(_A):
        s = s + a * _B
        d[(k % 17, k % 5)] = s
    return s


class Pacer:
    """One timed interval at a time: ``start()``, then ``stop(wall)``."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.wall = 0.0
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self, wall):
        """Stop sampling; return ``wall`` seconds since ``start()`` less
        the probes' time, at nominal speed."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.wall = wall
        net = wall - self.spent
        for _ in range(EDGE_SAMPLES):
            self._sample()
        return net * NOMINAL_S * statistics.fmean(1 / s for s in self.samples)

    def slowness(self):
        """Median probe time of the last interval over NOMINAL_S."""
        return statistics.median(self.samples) / NOMINAL_S

    def close(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
