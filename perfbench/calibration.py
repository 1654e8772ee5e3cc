"""A fixed kernel that measures how fast the host runs at the moment.

On a shared host the speed of a core can change by tens of per cent for
tens of seconds at a time, for every kind of work at once, so a sweep's
wall time says as much about the neighbours as about hessobs.  The kernel
does the three kinds of work a sweep does -- interpreted Python, a sparse
LU solve and batched small symmetric eigenproblems -- with numpy and scipy
alone, so no change to hessobs can move it.  Timed right before and right
after every sweep, it gives the sweep's time in units of the kernel's
time (`cal`), which the host's speed changes cancel out of.
"""

from __future__ import annotations

import time


class Calibration:
    PY_LOOP = 1_500_000  # additions in the interpreted loop
    GRID = 120  # side of the 2d Laplacian whose LU is solved
    EIGS = 20_000  # 3 x 3 symmetric eigenproblems per batch
    REPS = 2  # LU solves and eigen batches per call

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        t = sp.diags([-1.0, 2.2, -1.0], [-1, 0, 1], shape=(self.GRID, self.GRID))
        eye = sp.identity(self.GRID)
        self.a = (sp.kron(t, eye) + sp.kron(eye, t)).tocsc()
        self.b = np.ones(self.GRID**2)
        m = np.random.default_rng(0).standard_normal((self.EIGS, 3, 3))
        self.m = m + m.transpose(0, 2, 1)
        self()  # first calls load what they need; leave that out of the timings

    def __call__(self) -> float:
        """Wall time of one pass of the kernel, in seconds."""
        import numpy as np
        from scipy.sparse.linalg import spsolve

        t0 = time.perf_counter()
        acc = 0
        for i in range(self.PY_LOOP):
            acc += i
        for _ in range(self.REPS):
            spsolve(self.a, self.b)
            np.linalg.eigh(self.m)
        return time.perf_counter() - t0
