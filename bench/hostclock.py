"""Host-speed-calibrated timing.

On a shared virtual machine the same code can run up to twice as slow for
seconds to minutes at a time, with CPU time tracking wall time, so raw times
of identical runs spread further than any useful regression bound. The
benchmark therefore reports times in *calibrated seconds*: between the
program's operations it runs a fixed calibration kernel (``calibration``,
written here and calling nothing in pcmopt) and scales each measured
interval by how fast the host ran that kernel just before and just after
it:

    calibrated = raw * CAL_NOMINAL_S / (calibration time around the interval)

so a calibrated second is a second on a host that runs the kernel in
``CAL_NOMINAL_S``. The kernel mimics the program's own mix (sparse assembly
and LU factorisation of a 600-node grid, small-array numpy work, a small
dense solve) so that it slows down with the host in the same way. The scale
cancels when two commits are compared with the same benchmark code; the raw
times and the kernel's times are kept in the result file.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

#: Calibration-kernel time that defines one calibrated second: about its
#: time on an unloaded 2-vCPU Xeon virtual machine.
CAL_NOMINAL_S = 0.016

_NX, _NY = 20, 30
_N = _NX * _NY
_GRID = np.arange(_N).reshape(_NY, _NX)
_EI = np.concatenate([_GRID[:, :-1].ravel(), _GRID[:-1, :].ravel()])
_EJ = np.concatenate([_GRID[:, 1:].ravel(), _GRID[1:, :].ravel()])
_CONV = _GRID[0]
_G0 = 1.0 + (np.arange(_EI.size) % 7) * 0.1
_CAP = 1.0 + (np.arange(_N) % 5) * 0.2
_ROWS = np.concatenate([_EI, _EJ, _EI, _EJ, _CONV, np.arange(_N)])
_COLS = np.concatenate([_EJ, _EI, _EI, _EJ, _CONV, np.arange(_N)])
_PCM = np.arange(_N // 3, _N)
_DENSE = np.random.default_rng(0).uniform(-1.0, 1.0, size=(400, 51))


def calibration(steps: int = 4) -> float:
    """The fixed calibration kernel: a small implicit transient with an
    enthalpy-style correction, refactorised every few solves, plus a dense
    normal-equations solve. Returns a checksum so no work is skipped."""
    T = np.zeros(_N)
    latent = np.zeros(_PCM.size)
    cap = _CAP[_PCM]
    acc = 0.0
    for k in range(steps):
        g = _G0 * (1.0 + 1e-3 * k)
        data = np.concatenate([-g, -g, g, g, np.ones(_CONV.size), _CAP])
        lu = splu(sp.coo_matrix((data, (_ROWS, _COLS)),
                                shape=(_N, _N)).tocsc())
        for _ in range(6):
            T_star = lu.solve(_CAP * T + 1.0)
            excess = cap * (T_star[_PCM] - 0.5)
            new = np.clip(latent + excess, 0.0, 1.0)
            T = T_star.copy()
            T[_PCM] = 0.5 + (excess - (new - latent)) / cap
            latent = new
            acc += (float(np.sum(_CAP * (T - T_star))) + float(T.max())
                    + float(latent.mean()))
        J = np.tanh(_DENSE * (1.0 + 1e-3 * k))
        acc += float(np.linalg.solve(J.T @ J + np.eye(J.shape[1]),
                                     J.T @ J[:, 0])[0])
    return acc


class HostClock:
    """Calibration ticks and the conversion of raw intervals to calibrated
    seconds.

    ``tick()`` runs the kernel and records when and how long it took. An interval's
    calibrated length is the sum, over the pieces between the ticks that
    bound and split it, of each piece's raw length scaled by the mean of the
    two ticks either side of it; time spent in ticks inside the interval is
    left out.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []
        calibration()  # first-call costs stay out of the record

    def tick(self, reps: int = 1) -> None:
        """Run the kernel ``reps`` times back to back; the tick's time is
        their mean."""
        times = []
        t0 = time.perf_counter()
        for _ in range(reps):
            t = time.perf_counter()
            calibration()
            times.append(time.perf_counter() - t)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.times.append(statistics.fmean(times))

    def raw(self, a: float, b: float) -> float:
        """Raw seconds of [a, b] less the ticks inside it."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b)
        return (b - a) - sum(self.ends[i] - self.starts[i]
                             for i in range(lo, hi))

    def calibrated(self, a: float, b: float) -> float:
        """Calibrated seconds of the raw interval [a, b], which no tick
        overlaps."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b)
        inside = list(range(lo, hi))
        before = lo - 1 if lo > 0 else None
        after = hi if hi < len(self.starts) else None
        edges = [a] + [x for i in inside
                       for x in (self.starts[i], self.ends[i])] + [b]
        total = 0.0
        for k, pair in enumerate(zip([before] + inside, inside + [after])):
            around = [self.times[i] for i in pair if i is not None]
            if not around:
                raise ValueError("no calibration tick around the interval")
            total += ((edges[2 * k + 1] - edges[2 * k]) * CAL_NOMINAL_S
                      / statistics.fmean(around))
        return total

    def median_tick(self) -> float:
        return statistics.median(self.times)
