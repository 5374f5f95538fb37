"""The one tridiagonal factor-and-substitute path behind both implicit steps.

Every system here is symmetric positive definite with a nonpositive
off-diagonal (an M-matrix): ``(rho/dt) I + mu L`` in the momentum step and
``I + lam L`` in the stress step, ``L`` being the 1-D Dirichlet Laplacian
``tridiag(-1, 2, -1)``.  ``factor_tridiagonal`` factors such a matrix as
``L D L^T`` (LAPACK ``dpttrf``) and ``solve_tridiagonal`` substitutes
through the factors (``dpttrs``); ``dptsv`` is exactly those two calls, so
splitting them changes no bit.  For an M-matrix every term of both
substitutions has the same sign, so a nonnegative right-hand side gives a
nonnegative solution.

Both steps keep their factors in a one-slot cache, so a matrix is factored
again only when it changes:
- the stress step (``solve_diffusion_batch``) keys its cache on the exact
  bytes of ``lam``.  Every Picard iterate of a macro step restarts the rows
  from the same start-of-step state, whose frozen D fixes ``lam``, so
  iterates with the same sub-step count solve with the same matrix;
- the momentum step (``macro.heat_step``) keys its cache on n_y, rho, mu,
  dt and dy, which are fixed for a whole run, so a run factors it once.

A hit returns the factors ``dpttrf`` would compute again from the same
input, so reuse cannot change a single bit of a solution.  A failed
factorization raises and is never cached.  The stress step checks that
``lam`` is nonnegative on a miss only, before it factors: a hit reuses a
``lam`` that was checked when it was factored.

The LAPACK wrappers are resolved once, on first use (``_lapack``), so
start-up does not load ``scipy.linalg`` and a solve runs no import
statement.

A miss of the stress cache factors only the first pivots of each block.
``dpttrf`` runs one causal recurrence, ``e_i = c_i / d_i`` then
``d_{i+1} = a_{i+1} - e_i c_i``, with the input diagonal a and
off-diagonal c, so each pivot is one fixed function of the one before it
and of a and c.  In a block of ``I + lam L`` a = 1 + 2 lam and c = -lam are
constant, so the pivots converge (geometrically) to a fixed point of that
one function, and once two consecutive pivots are equal every later pivot
and every later e equals them, bit for bit.  The zero seam between blocks
restarts each block at d = a, whatever the block before it left, so the
blocks factor independently.  ``_diffusion_factors`` therefore factors the
first FACTOR_PREFIX pivots of every block, stacked with zero seams as in
the whole matrix; when every block's last two pivots are equal it repeats
each block's last d and e to the end of the block, and otherwise it makes
the full call on the whole matrix.  The preconditions are constant a and c
per block, the causal recurrence and zero seams; a NaN pivot never
compares equal, so it reaches the full call, and so does any lam whose
pivots settle after the prefix (lam above about 3).  At the standard
scenario's lam = 0.27-0.36 they settle after 12-13 pivots and a 64 x 256
batch factors in about a third of the full call's time; a batch that
reaches the full call pays the prefix on top of it.  A failure inside the
prefix raises with an ``info`` that counts pivots of the stacked prefix.

``solve_tridiagonal`` consumes its right-hand side: ``dpttrs`` substitutes
in place of ``rhs`` (when it is a C-contiguous float array), so the
returned solution may share its memory and ``rhs`` must not be read again.
Both callers pass an array they built for the solve and nothing else holds;
a caller that needs ``rhs`` afterwards passes a copy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SchemeInstabilityError

# Pivots per block that _diffusion_factors factors first; when some block's
# last two pivots still differ, it factors the whole blocks instead.
FACTOR_PREFIX = 32


@lru_cache(maxsize=1)
def _lapack():
    """The wrappers (dpttrf, dpttrs), resolved on first use: start-up never
    solves anything, so it need not load scipy.linalg."""
    from scipy.linalg.lapack import dpttrf, dpttrs
    return dpttrf, dpttrs


def _check(info: int, routine: str) -> None:
    if info != 0:
        raise SchemeInstabilityError(
            f"tridiagonal solve failed ({routine} info = {info}): "
            "the matrix is not positive definite")


def factor_tridiagonal(diag: np.ndarray,
                       off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``L D L^T`` factors (d, e) of a symmetric tridiagonal matrix.

    diag is the (n,) main diagonal and off the (n-1,) off-diagonal on both
    sides.  Float arrays are factored in place, so the caller passes
    temporaries of its own.  Raises SchemeInstabilityError when the matrix
    is not positive definite.
    """
    if diag.shape[0] < 2:
        # the LAPACK wrappers reject an empty off-diagonal; for n = 1
        # dpttrf only checks that the one pivot is positive
        d, e, info = diag, off, 0 if np.all(diag > 0) else 1
    else:
        d, e, info = _lapack()[0](diag, off, overwrite_d=1, overwrite_e=1)
    _check(info, "dpttrf")
    d.flags.writeable = False
    e.flags.writeable = False
    return d, e


def solve_tridiagonal(factors: tuple[np.ndarray, np.ndarray],
                      rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs through the factors (d, e) of A; consumes rhs."""
    d, e = factors
    if d.shape[0] < 2:
        return rhs / d
    x, info = _lapack()[1](d, e, rhs, overwrite_b=1)
    _check(info, "dpttrs")
    return x


def _stacked_factors(lam: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors of the stacked I + lam*L, one (n,) block per entry of lam."""
    diag = np.repeat(1.0 + 2.0 * lam, n)
    off = np.repeat(-lam, n)[:-1]
    off[n - 1::n] = 0.0
    return factor_tridiagonal(diag, off)


@lru_cache(maxsize=1)
def _diffusion_factors(n: int, lam_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Factors of the stacked I + lam*L, built from the first pivots of each block.

    Bitwise the factors of the whole stacked matrix (module docstring).
    A negative lam raises ValueError first, so a lam is checked once, on
    the miss that factors it.
    """
    lam = np.frombuffer(lam_bytes)
    if np.any(lam < 0):
        raise ValueError("negative diffusion number")
    m = FACTOR_PREFIX
    if n <= m:
        return _stacked_factors(lam, n)
    d, e = _stacked_factors(lam, m)
    if not (d[m - 1::m] == d[m - 2::m]).all():
        return _stacked_factors(lam, n)
    # every block's pivots have settled: its last d, and its last e inside
    # the prefix (e_{m-2}, before the zero seam e_{m-1}), repeat to fill it
    counts_d = np.ones((lam.size, m), dtype=np.intp)
    counts_e = counts_d.copy()
    counts_d[:, -1] = n - m + 1
    counts_e[:, -2] = n - m + 1
    d = np.repeat(d, counts_d.reshape(-1))
    e = np.repeat(e, counts_e.reshape(-1)[:-1])
    d.flags.writeable = False
    e.flags.writeable = False
    return d, e


def solve_diffusion_batch(lam: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + lam*L) x = rhs for every row of a batch.

    ``L`` is tridiag(-1, 2, -1) with homogeneous Dirichlet closure (the ghost
    values beyond both ends are zero).  The rows are stacked into one
    block-diagonal system whose off-diagonal is zero at the row seams.

    Parameters
    ----------
    lam : (n_rows,) nonnegative diffusion numbers D*dt/d_sigma**2, one per row.
    rhs : (n_rows, n) right-hand sides, overwritten by the solve (see the
        module docstring).

    Returns
    -------
    (n_rows, n) solutions.
    """
    n_rows, n = rhs.shape
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (n_rows,):
        raise ValueError(f"lam shape {lam.shape} does not match {n_rows} rows")
    x = solve_tridiagonal(_diffusion_factors(n, lam.tobytes()), rhs.ravel())
    return x.reshape(n_rows, n)
