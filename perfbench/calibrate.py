"""A fixed reference kernel that measures how fast this machine runs now.

It runs the two Thomas recurrences the simulator spends its time in, a
scalar one along a 511-node line and a vectorised one over 64 rows of
256 cells, written here once and never changed, so its time moves only
with the machine and not with the program under test.
"""

from __future__ import annotations

import time

import numpy as np


def _scalar_thomas(lower, diag, rhs):
    n = diag.shape[0]
    c = np.empty(n - 1)
    d = np.empty(n)
    beta = diag[0]
    d[0] = rhs[0] / beta
    for i in range(1, n):
        c[i - 1] = lower[i - 1] / beta
        beta = diag[i] - lower[i - 1] * c[i - 1]
        d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / beta
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return d


def _batch_thomas(lam, rhs):
    n = rhs.shape[0]
    d = rhs.copy()
    b = 1.0 + 2.0 * lam
    off = -lam
    cp = np.empty_like(rhs)
    beta = b.copy()
    d[0] /= beta
    for i in range(1, n):
        cp[i - 1] = off / beta
        beta = b - off * cp[i - 1]
        d[i] = (d[i] - off * d[i - 1]) / beta
    for i in range(n - 2, -1, -1):
        d[i] -= cp[i] * d[i + 1]
    return d


def calibrate() -> float:
    """Seconds one fixed pass of both recurrences takes (about 0.4 s)."""
    lower = np.full(510, -1.0)
    diag = np.full(511, 4.0)
    rhs = np.ones(511)
    lam = np.linspace(0.1, 1.0, 64)
    rows = np.ones((256, 64))
    t = time.perf_counter()
    for _ in range(200):
        _scalar_thomas(lower, diag, rhs)
    for _ in range(130):
        _batch_thomas(lam, rows)
    return time.perf_counter() - t
