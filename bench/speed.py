"""Host-speed probe for the benchmark's timings.

The shared host this benchmark was built on changes speed by up to 2x
within seconds and in phases of minutes, so two runs of the same code can
differ by more than any useful bound.  The probe times a fixed piece of
reference work between the timed operations.  A timing is then reported in
reference seconds: the raw time multiplied by REFERENCE_S / (the probe's
median time around it).  The reference work does not call the package, so
a change to the package moves the reported times exactly as it moves the
raw ones, while a phase of a slow host moves the probe as well and largely
cancels (bench/README.md gives the measured spreads).
"""

import statistics
import time

import numpy as np

# Median time of `reference_work` on the machine of bench/README.md
# (2-core shared VM, CPython 3.11.7, numpy 2.4.6), so reference seconds
# read close to that machine's seconds.  Changing it rescales every
# timing, so it is fixed.
REFERENCE_S = 0.036


class _Point:
    def __init__(self, x):
        self.x = x
        self.v = 0.5

    def step(self, dt):
        self.x += self.v * dt
        return self.x


def reference_work():
    """Fixed work shaped like the package's: dict inserts, numpy calls on
    small arrays, number formatting, method calls on small objects and
    numpy scalar reads, in little memory so that it leaves the workloads'
    peak RSS alone.  A tight integer loop and large-array arithmetic were
    left out: between phases of the host their speed moved unlike the
    workloads'.  Returns a value so nothing is skipped."""
    for _ in range(5):
        table = {}
        for i in range(4000):
            table[f"k{i}"] = i
    small = np.ones(50)
    for _ in range(2700):
        small = np.minimum(small * 1.0000001, 2.0)
    grid = np.linspace(0.0, 1.0, 4000)
    for _ in range(3):
        text = "\n".join(f"{v:.6g}" for v in grid.tolist())
    total = 0.0
    for _ in range(3):
        points = [_Point(float(i)) for i in range(200)]
        for _ in range(100):
            for p in points:
                total += p.step(0.01)
    cells = np.linspace(0.0, 1.0, 1000)
    for _ in range(32):
        for i in range(1000):
            total += float(cells[i]) * 0.5
    return total + len(table) + len(text) + float(small[0])


class SpeedProbe:
    """Times of `reference_work`, in the order they were taken."""

    def __init__(self):
        self.times = []

    def run(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            reference_work()
            self.times.append(time.perf_counter() - t0)

    def factor(self, lo=0, hi=None):
        """REFERENCE_S over the median probe time of `times[lo:hi]`:
        multiply a raw time by it to get reference seconds."""
        return REFERENCE_S / statistics.median(self.times[max(lo, 0):hi])

    def factor_after(self, n):
        """Probe `n` times right after a timed stretch and return the
        factor of the probes around it: these `n` and the `n` before."""
        i = len(self.times)
        self.run(n)
        return self.factor(i - n, i + n)


class NoProbe(SpeedProbe):
    """Takes no probes and leaves every timing raw (factor 1)."""

    def run(self, n=1):
        pass

    def factor(self, lo=0, hi=None):
        return 1.0
