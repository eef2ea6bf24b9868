"""Machine-speed probe that the timed loop runs between sessions.

The shared machines this benchmark runs on drift in speed by up to 60% over
tens of seconds, and that drift moves every session in a run alike. The
probe does a fixed amount of the kinds of work smoothdiff does (a banded
LAPACK solve against the identity, a BLAS product, bincount accumulation,
JSON encoding and many tiny solves) with numpy, scipy and the standard
library only, so no change to smoothdiff can alter its cost. Dividing a
session's wall time by the probe time around it, and multiplying by the
probe's REFERENCE_S, gives the session's time at a fixed machine speed.
"""

from __future__ import annotations

import json
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy.linalg

# Probe time of one repetition in one process, by probe size (m, rows), on
# an unloaded 2-core Xeon VM (Python 3.11, numpy 2.4.6, scipy 1.17.1, one
# BLAS thread). They only set the unit: a session that takes 1 s while the
# probe around it takes REFERENCE_S reports 1 s.
REFERENCE_S = {(120, 4000): 0.009, (400, 10000): 0.05}


class Probe:
    """Fixed inputs for the probe, built once per run from a constant seed.

    `processes` is how many processes the measured command keeps busy; the
    probe runs in as many at once.
    """

    def __init__(self, m: int, rows: int, processes: int = 1):
        rng = np.random.default_rng(12345)
        self.m = m
        self.reference_s = REFERENCE_S[m, rows]
        self.processes = processes
        self.band = np.zeros((4, m))
        self.band[3], self.band[2, 1:], self.band[1, 2:], self.band[0, 3:] = 10.0, -1.0, 0.5, 0.1
        self.square = rng.standard_normal((m, m))
        self.start = rng.integers(0, m - 4, rows)
        self.values = rng.random((rows, 4))
        self.nested = rng.standard_normal((60, 60)).tolist()
        self.blocks = [(np.eye(4) * 4.0 + 0.1 * k / m, np.ones(4)) for k in range(m)]

    def once(self) -> None:
        m = self.m
        for _ in range(6):
            scipy.linalg.solveh_banded(self.band, np.eye(m))
            self.square @ self.square
        flat = np.zeros(m * m)
        for a in range(4):
            for b in range(a, 4):
                idx = (self.start + a) * m + self.start + b
                flat += np.bincount(idx, weights=self.values[:, a] * self.values[:, b], minlength=m * m)
        json.dumps(self.nested)
        for block, rhs in self.blocks:
            np.linalg.solve(block, rhs)

    def seconds(self, reps: int) -> float:
        """Wall time of one repetition, averaged over `reps`.

        With more than one process the probe runs in that many forked
        processes at once and the mean of their times is returned. The
        processes have ended when this returns.
        """
        if self.processes == 1:
            return self._seconds(reps)
        # Fork, as the program's own pool does: a spawned worker would spend
        # seconds importing numpy and scipy before every probe.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(self.processes, mp_context=context) as pool:
            return statistics.mean(pool.map(self._seconds, [reps] * self.processes))

    def _seconds(self, reps: int) -> float:
        start = time.perf_counter()
        for _ in range(reps):
            self.once()
        return (time.perf_counter() - start) / reps

    def scale(self, before: float, after: float) -> float:
        """Factor that takes a time measured between two probes to the fixed speed."""
        return 2.0 * self.reference_s / (before + after)
