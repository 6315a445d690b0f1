"""A fixed reference computation that measures how fast the machine runs now.

The speed of a shared 2-CPU virtual machine drifts: the same
single-threaded fits ran 1.3–2× slower for minutes at a time, with no
CPU steal on the host counters and no other process in the container,
and the state changes within seconds.  Run-to-run spread of that size
hides any change a bound of 25% is meant to catch.  So every end-to-end
time is also expressed in reference seconds: the raw time divided by the
pass time of this reference measured around it, times
:data:`REFERENCE_SECONDS`, a typical pass time on the 2-CPU x86_64 VM
(Python 3.11) the bounds were set on.

The reference is the benchmark's own code, so no change to the program
moves it.  A pass prices the columns of a fixed 20k×60 float matrix the
way the pricing kernels do: sort each column, scale by the descending
buyer counts, take the argmax, with fresh arrays as the kernels
allocate them.  Interleaved with fits and in-process quotes for seven
minutes on a noisy host, scaling by it cut the spread of 20–30-s medians
of the pure fit from 10–14% to 6–7%, of the FBT fit from 22–25% to
13–15% and of quote pricing from 9–30% to 6–9%.  In-place sorts of a
200k×8 or 400k×8 array, or interpreted dict updates, tracked worse.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: A typical pass time of :meth:`Speed.one_pass` on the VM the bounds were set on.
REFERENCE_SECONDS = 0.015
#: Passes per :meth:`Speed.sample`; the sample is their median.
PASSES = 7


class Speed:
    """Reference samples taken between the timed pieces of a run.

    A piece timed between two samples is scaled by the mean of those two
    samples, so the scale follows the machine's speed through the run.
    """

    def __init__(self) -> None:
        self.matrix = np.random.default_rng(0).random((20_000, 60))
        self.counts = np.arange(len(self.matrix), 0, -1, dtype=np.float64)[:, None]
        self.points: list[float] = []  # median pass time of each sample

    def one_pass(self) -> float:
        """Seconds for one pass of the reference computation."""
        started = time.perf_counter()
        (np.sort(self.matrix, axis=0) * self.counts).argmax(axis=0)
        return time.perf_counter() - started

    def sample(self, passes: int = PASSES) -> float:
        """Take ``passes`` passes; record and return their median."""
        point = statistics.median(self.one_pass() for _ in range(passes))
        self.points.append(point)
        return point

    @staticmethod
    def factor(before: float, after: float) -> float:
        """From seconds timed between samples ``before`` and ``after`` to reference seconds."""
        return 2.0 * REFERENCE_SECONDS / (before + after)

    def describe(self) -> str:
        return (f"reference pass: median {1e3 * statistics.median(self.points):.3f} ms over "
                f"{len(self.points)} samples of {PASSES} passes (range "
                f"{1e3 * min(self.points):.2f}-{1e3 * max(self.points):.2f} ms), "
                f"REFERENCE_SECONDS {1e3 * REFERENCE_SECONDS:g} ms")
