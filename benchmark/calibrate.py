"""Measure the host's current speed with a fixed probe, inside the work.

The benchmark's host is a small virtual machine on a shared machine.  Its
speed drifts by a third over seconds to minutes with nothing else running
in it, so wall times of the same code taken minutes apart differ by more
than any useful regression bound.  The worker therefore reports times in
*reference seconds*: wall seconds scaled to a host on which one pass of
the probe takes ``NOMINAL_S``,

    reference seconds = net wall seconds * NOMINAL_S / median probe seconds

where the probe passes are timed *during* the measured work, every
``INTERVAL_S`` of wall time, by a :class:`Sampler`, and "net" means
without the time the probes took.  The drift is fast, so a probe timed
only between units would miss most of it on workloads whose units take
seconds.

The probe is the same code on every commit, so a change to hybridfem
moves only the numerator.  Its parts mirror the kinds of work the
library does: a Python loop over tuples and dicts (mesh and dof-map
building), batched ``einsum`` over cells and quadrature points (element
tensors), COO to CSR assembly, sparse matrix-vector products (Krylov
iterations) and a sparse LU factorization and solve (``splu``).
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

NOMINAL_S = 0.008   # seconds of one probe pass that define a reference second
INTERVAL_S = 0.15   # wall seconds between probe passes


def reference_s(net_wall_s: float, probe_s: float) -> float:
    """Net wall seconds scaled to reference seconds by the median probe
    pass time ``probe_s``."""
    return net_wall_s * NOMINAL_S / probe_s


class Probe:
    """A fixed pass of library-like work; inputs come from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(20180201)
        self.basis = rng.standard_normal((384, 6, 10, 2))   # cells, quad, basis, dim
        self.weights = rng.random(6)
        n = 24
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.matrix = (sp.kron(eye, lap) + sp.kron(lap, eye) + sp.identity(n * n)).tocsc()
        self.vector = rng.standard_normal(n * n)
        self.rows = rng.integers(0, 1000, size=8000)
        self.cols = rng.integers(0, 1000, size=8000)
        self.vals = rng.standard_normal(8000)

    def run(self) -> float:
        """One pass; returns its wall seconds."""
        t = time.perf_counter()
        index: dict = {}
        for j in range(24):
            for i in range(24):
                for key in ((i, j), (j, i)):
                    if key not in index:
                        index[key] = len(index)
        np.einsum("q,cqni,cqmi->cnm", self.weights, self.basis, self.basis)
        sp.coo_matrix((self.vals, (self.rows, self.cols)), shape=(1000, 1000)).tocsr()
        y = self.vector
        for _ in range(30):
            y = self.matrix @ y
            y = y / np.linalg.norm(y)
        spla.splu(self.matrix).solve(self.vector)
        return time.perf_counter() - t


class Sampler:
    """Runs a probe pass every ``INTERVAL_S`` of wall time while active.

    A one-shot ``ITIMER_REAL`` timer is re-armed after each pass, so
    passes never overlap.  The handler runs in the main thread between
    bytecodes, so a pass that falls due inside a long native call runs
    when that call returns.  ``probe_total_s`` is the wall time all
    passes took, which callers subtract from what they measure.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.passes: list[float] = []
        self.probe_total_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        # A garbage collection that the work's allocations make due would
        # otherwise land in the pass now and then, and take 10 times as long.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.passes.append(self.probe.run())
        finally:
            if collecting:
                gc.enable()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.probe_total_s += time.perf_counter() - t

    def net_clock(self) -> float:
        """A clock that stands still while probe passes run."""
        return time.perf_counter() - self.probe_total_s

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
