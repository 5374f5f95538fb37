"""The one tridiagonal solve behind both implicit diffusion steps.

Every system here is symmetric positive definite with a nonpositive
off-diagonal (an M-matrix): ``(rho/dt) I + mu L`` in the momentum step and
``I + lam L`` in the stress step, ``L`` being the 1-D Dirichlet Laplacian
``tridiag(-1, 2, -1)``.  LAPACK factors such a matrix as ``L D L^T``
(``dpttrf``) and substitutes through the factors (``dpttrs``); ``dptsv``
is exactly those two calls.  For an M-matrix every term of both
substitutions has the same sign, so a nonnegative right-hand side gives a
nonnegative solution.

The stress step keeps its last factorization in a one-slot cache keyed on
the exact bytes of ``lam``.  Every Picard iterate of a macro step restarts
the rows from the same start-of-step state, whose frozen D fixes ``lam``,
so iterates with the same sub-step count solve with the same matrix.  A
hit returns the factors ``dpttrf`` would compute again from the same
input, so reuse cannot change a single bit of the solution.

``solve_diffusion_batch`` consumes its right-hand side: ``dpttrs``
substitutes in place of ``rhs`` (when it is a C-contiguous float array),
so the returned solution may share its memory and ``rhs`` must not be read
again.  ``hl_step`` passes its own advection result, which nothing else
holds; a caller that needs ``rhs`` afterwards passes a copy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SchemeInstabilityError


def _check(info: int, routine: str) -> None:
    if info != 0:
        raise SchemeInstabilityError(
            f"tridiagonal solve failed ({routine} info = {info}): "
            "the matrix is not positive definite")


def solve_tridiagonal(diag: np.ndarray, off: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for a symmetric positive definite tridiagonal A.

    diag is the (n,) main diagonal, off the (n-1,) off-diagonal on both
    sides, rhs the (n,) right-hand side.
    """
    if diag.shape[0] < 2:
        return rhs / diag  # the LAPACK wrappers reject an empty off-diagonal
    # deferred: start-up never solves anything, so it need not load LAPACK
    from scipy.linalg.lapack import dptsv
    _, _, x, info = dptsv(diag, off, rhs)
    _check(info, "dptsv")
    return x


@lru_cache(maxsize=1)
def _diffusion_factors(n: int, lam_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``dpttrf`` factors (d, e) of the stacked I + lam*L.

    An exception leaves the cache as it was, so a failed factorization is
    never reused.
    """
    from scipy.linalg.lapack import dpttrf
    lam = np.frombuffer(lam_bytes)
    diag = np.repeat(1.0 + 2.0 * lam, n)
    off = np.repeat(-lam, n)[:-1]
    off[n - 1::n] = 0.0
    d, e, info = dpttrf(diag, off, overwrite_d=1, overwrite_e=1)  # factor in place
    _check(info, "dpttrf")
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
    if np.any(lam < 0):
        raise ValueError("negative diffusion number")
    if rhs.size < 2:
        return rhs / (1.0 + 2.0 * lam)[:, None]  # no off-diagonal to pass
    d, e = _diffusion_factors(n, lam.tobytes())
    from scipy.linalg.lapack import dpttrs
    x, info = dpttrs(d, e, rhs.ravel(), overwrite_b=1)
    _check(info, "dpttrs")
    return x.reshape(n_rows, n)
