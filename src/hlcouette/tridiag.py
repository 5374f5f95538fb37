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

The two LAPACK routines are resolved once, on first use (``_lapack``), so
a solve runs no import statement.  They are ``scipy_dpttrf_64_`` and
``scipy_dpttrs_64_`` of the scipy-openblas64 library that numpy's PyPI
wheel bundles in ``numpy.libs/`` and has already loaded, called through
``ctypes``; nothing here loads scipy.  That library is ILP64: n, nrhs,
ldb and info are int64 passed by address, as ``ctypes.c_int64`` scalars
that stay referenced while the library reads them, and the nrhs and info
scalars are shared by every call, so the solver is single-threaded.  A
numpy that is not the wheel bundles no such library (or one without the
two symbols), and there the first factorization raises ImportError.  A
factorization binds its substitution once, when it is made
(``_Factors.solve``), so a solve takes only the address of its
right-hand side.

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
in place of ``rhs`` when it is a writable, C-contiguous float64 array (any
other ``rhs`` is copied first and never written), so the returned solution
may share its memory and ``rhs`` must not be read again.
Both callers pass an array they built for the solve and nothing else holds;
a caller that needs ``rhs`` afterwards passes a copy.
"""

from __future__ import annotations

import ctypes
import os
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import SchemeInstabilityError

# Pivots per block that _diffusion_factors factors first; when some block's
# last two pivots still differ, it factors the whole blocks instead.
FACTOR_PREFIX = 32

# dpttrs's nrhs and the info of both routines, shared by every call (the
# solver is single-threaded) and referenced here while the library reads them.
_NRHS = ctypes.c_int64(1)
_INFO = ctypes.c_int64()


def _openblas_paths() -> list[Path]:
    """numpy's bundled scipy-openblas64 library, where numpy's wheel puts it."""
    return sorted((Path(np.__file__).parents[1] / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))


def _pointer(a: np.ndarray):
    """The address of a writable, C-contiguous array, or TypeError/ValueError."""
    return ctypes.byref(ctypes.c_double.from_buffer(a))


def _operand(a: np.ndarray) -> np.ndarray:
    """a itself where LAPACK may write in place of it (a writable,
    C-contiguous float64 array), else a float64 copy of it."""
    if a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable:
        return a
    return np.array(a, dtype=np.float64)


@lru_cache(maxsize=1)
def _lapack():
    """(dpttrf, dpttrs) of the library numpy has loaded, resolved on first
    use; ImportError where numpy bundles no library with both symbols."""
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)  # only if loaded
            dpttrf, dpttrs = lib.scipy_dpttrf_64_, lib.scipy_dpttrs_64_
        except (OSError, AttributeError):
            continue
        # every argument is passed as a ctypes.byref of a checked scalar or
        # array buffer; argtypes would re-check them at 0.8-1.3 us a call,
        # as much as a whole n = 64 solve
        dpttrf.restype = dpttrs.restype = None
        return dpttrf, dpttrs
    raise ImportError(
        "hlcouette needs numpy's PyPI wheel: its tridiagonal solves call "
        "scipy_dpttrf_64_ and scipy_dpttrs_64_ of the scipy-openblas64 "
        "library that the wheel bundles in numpy.libs/, and this numpy "
        "bundles no library with both")


class _Factors(tuple):
    """Read-only factors (d, e), with ``solve``, their dpttrs substitution
    rhs -> info in place of rhs, bound once when they are made (None for
    n = 1, which needs no LAPACK)."""

    def __new__(cls, d: np.ndarray, e: np.ndarray):
        factors = super().__new__(cls, (d, e))
        factors.solve = None
        if d.shape[0] > 1:
            # bound while d and e are writable: their pointers come from
            # their buffers, which stay exported (and the arrays alive)
            # with the solve
            dpttrs = _lapack()[1]
            n = ctypes.byref(ctypes.c_int64(d.shape[0]))  # holds its scalar
            nrhs, info = ctypes.byref(_NRHS), ctypes.byref(_INFO)
            d_ptr, e_ptr = _pointer(d), _pointer(e)

            def solve(rhs: np.ndarray) -> int:
                dpttrs(n, nrhs, d_ptr, e_ptr, _pointer(rhs), n, info)
                return _INFO.value
            factors.solve = solve
        d.flags.writeable = False
        e.flags.writeable = False
        return factors


def _check(info: int, routine: str) -> None:
    if info != 0:
        raise SchemeInstabilityError(
            f"tridiagonal solve failed ({routine} info = {info}): "
            "the matrix is not positive definite")


def factor_tridiagonal(diag: np.ndarray,
                       off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``L D L^T`` factors (d, e) of a symmetric tridiagonal matrix.

    diag is the (n,) main diagonal and off the (n-1,) off-diagonal on both
    sides.  Writable, C-contiguous float64 arrays are factored in place, so
    the caller passes temporaries of its own; others are copied.  Raises
    SchemeInstabilityError when the matrix is not positive definite.
    """
    n = diag.shape[0]
    if n < 2:
        # an empty off-diagonal has no buffer for ctypes to point at, so
        # n = 1 never reaches LAPACK; dpttrf only checks that the one pivot
        # is positive
        d, e, info = diag, off, 0 if np.all(diag > 0) else 1
    else:
        if off.shape != (n - 1,):
            raise ValueError(f"off-diagonal shape {off.shape} does not match "
                             f"{n} unknowns")
        d, e = _operand(diag), _operand(off)
        _lapack()[0](ctypes.byref(ctypes.c_int64(n)), _pointer(d), _pointer(e),
                     ctypes.byref(_INFO))
        info = _INFO.value
    _check(info, "dpttrf")
    return _Factors(d, e)


def solve_tridiagonal(factors: tuple[np.ndarray, np.ndarray],
                      rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs through the factors (d, e) of A; consumes rhs."""
    d = factors[0]
    if d.shape[0] < 2:
        return rhs / d
    if rhs.shape != d.shape:
        raise ValueError(f"rhs shape {rhs.shape} does not match "
                         f"{d.shape[0]} unknowns")
    rhs = _operand(rhs)
    _check(factors.solve(rhs), "dpttrs")
    return rhs


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
    return _Factors(np.repeat(d, counts_d.reshape(-1)),
                    np.repeat(e, counts_e.reshape(-1)[:-1]))


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
