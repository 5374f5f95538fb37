"""The one tridiagonal solve behind both implicit diffusion steps.

Every system here is symmetric positive definite with a nonpositive
off-diagonal (an M-matrix): ``(rho/dt) I + mu L`` in the momentum step and
``I + lam L`` in the stress step, ``L`` being the 1-D Dirichlet Laplacian
``tridiag(-1, 2, -1)``.  LAPACK's ``dptsv`` factors such a matrix as
``L D L^T``; for an M-matrix every term of its substitutions has the same
sign, so a nonnegative right-hand side gives a nonnegative solution.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemeInstabilityError


def solve_tridiagonal(diag: np.ndarray, off: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for a symmetric positive definite tridiagonal A.

    diag is the (n,) main diagonal, off the (n-1,) off-diagonal on both
    sides, rhs the (n,) right-hand side.
    """
    if diag.shape[0] < 2:
        return rhs / diag  # the LAPACK wrapper rejects an empty off-diagonal
    # deferred: start-up never solves anything, so it need not load LAPACK
    from scipy.linalg.lapack import dptsv
    _, _, x, info = dptsv(diag, off, rhs)
    if info != 0:
        raise SchemeInstabilityError(
            f"tridiagonal solve failed (dptsv info = {info}): "
            "the matrix is not positive definite")
    return x


def solve_diffusion_batch(lam: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + lam*L) x = rhs for every row of a batch.

    ``L`` is tridiag(-1, 2, -1) with homogeneous Dirichlet closure (the ghost
    values beyond both ends are zero).  The rows are stacked into one
    block-diagonal system whose off-diagonal is zero at the row seams.

    Parameters
    ----------
    lam : (n_rows,) nonnegative diffusion numbers D*dt/d_sigma**2, one per row.
    rhs : (n_rows, n) right-hand sides.

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
    diag = np.repeat(1.0 + 2.0 * lam, n)
    off = np.repeat(-lam, n)[:-1]
    off[n - 1::n] = 0.0
    return solve_tridiagonal(diag, off, rhs.ravel()).reshape(n_rows, n)
