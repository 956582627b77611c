"""Machine-speed probe: times work in seconds at a fixed reference speed.

The benchmark shares a few cores of a host with other tenants, and the speed
of those cores changes under it: the same claim takes 3.6 s in one minute and
5.3 s in the next, in wall and CPU time alike (no time is stolen from the
guest; the cores themselves run slower), and slow phases can last longer
than a run.  A median of wall times over one run cannot average that away.

So the benchmark also measures the machine.  While timed work runs, a
SIGALRM timer interrupts it every PERIOD_S seconds to run one slice of a
fixed calibration kernel: a Python loop, gathers and a row-wise dot product
over random pairs, and a CSR matrix product, the operations the mcland
kernels and solver loops are made of.  Each slice runs the kernel twice and
times only the second pass, so that the caches the timed work left behind do
not change the slice time.  One more slice runs just before and just after
the work.  The work's wall time, less the time its slices took, is scaled by
REF_SLICE_S over the mean slice time in that window:

    ref_s = wall_s * REF_SLICE_S / mean(slice_s)

so a machine that runs everything 1.4x slower reads about the same `ref_s`,
while a program that does 1.4x more work reads 1.4x more.  Over repetitions
of one claim whose wall time varied by up to 1.7x, the log of the wall time
followed the log of the mean slice time with slope 0.9 to 1.0 on every
workload; what it left (sd 2-3%) was a quarter of the wall time's own spread.
A streaming sum over a buffer larger than L2 and small numpy calls tracked
the workloads worse and are left out.  The calibration kernel is the
benchmark's own code and does not change with the program under test.
"""

import signal
import time
from statistics import fmean

PERIOD_S = 0.25
# one timed slice on the reference machine (a shared 2-core x86_64 VM in a
# fast phase); it only sets the scale of reference seconds
REF_SLICE_S = 0.002
PAIRS, D, R = 20_000, 2_000, 2
LOOP = 20_000


class SpeedProbe:
    """Times callables in wall seconds and in reference seconds."""

    def __init__(self):
        import numpy as np  # after run.py has fixed the BLAS threads
        from scipy import sparse

        rng = np.random.default_rng(20161)
        self._np = np
        self._rows = rng.integers(0, D, PAIRS)
        self._cols = rng.integers(0, D, PAIRS)
        self._X = rng.standard_normal((D, R))
        self._A = sparse.csr_matrix(
            (rng.standard_normal(PAIRS), (self._rows, self._cols)), shape=(D, D)
        )
        self.slices = []  # time of every timed pass, in order
        self._spent = 0.0  # time spent in slices during the current call
        for _ in range(20):  # warm first-call paths
            self._slice()
        self.slices.clear()

    def _kernel(self):
        X = self._X
        self._np.einsum("ij,ij->i", X[self._rows], X[self._cols])
        self._A @ X
        acc = 0.0
        for k in range(LOOP):
            acc += k * 0.5
        return acc

    def _slice(self, *_signal_args):
        t0 = time.perf_counter()
        self._kernel()  # bring the probe's data back into cache
        t1 = time.perf_counter()
        self._kernel()
        t2 = time.perf_counter()
        self.slices.append(t2 - t1)
        self._spent += t2 - t0

    def time(self, fn, *args):
        """Run fn(*args); return (result, wall seconds, reference seconds).

        The wall seconds exclude the slices that ran during the call.
        """
        first = len(self.slices)
        self._slice()
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall = t1 - t0 - self._spent
        self._slice()
        return out, wall, wall * REF_SLICE_S / fmean(self.slices[first:])
