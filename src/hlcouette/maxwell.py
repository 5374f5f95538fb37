"""Closed-form solutions of the fully relaxing variant.

With a zero yield threshold every block relaxes at unit rate and the stress
diffusion coefficient is pinned at alpha by mass conservation, so the
stress density solves a linear advection-diffusion-relaxation equation
with an explicit heat-kernel representation:

    p(t, sigma) = e^{-t} (K_{alpha t} * p0)(sigma - chi(t))
                  + int_0^t e^{-(t-s)} K_{alpha (t-s)}(sigma - chi(t) + chi(s)) ds,

where K_v is the centered Gaussian of variance 2 v and chi(t) = int_0^t b.
The mean stress obeys the relaxation balance tau' + tau = b exactly.

Everything here is evaluated against the cell-centered stress grid through
exact cell averages of Gaussians (normal CDF differences), so the kernels
degenerate gracefully to point deposits as their variance goes to zero; the
memory integral is regularized by the substitution w = sqrt(t - s), under
which the delta endpoint becomes a smooth integrand for Gauss-Legendre
quadrature.  Its weight 2 w e^{-w^2} leaves mass e^{-W^2} beyond w = W, so
the nodes stop at MEMORY_W_MAX, where that is double epsilon: at long
times they stay where the integrand is, and for t <= MEMORY_W_MAX^2 they
are the nodes of the whole range [0, sqrt(t)].  Each node's shift
chi(t) - chi(t - w^2) is the forcing's window integral over the last w^2,
which keeps its digits where t - w^2 rounds.

The decayed term, sub_solution, is also the comparison barrier of the
general equation (xi = chi, int D = alpha t).  It takes (n_rows, n_sigma)
rows and every row's kernel from one offset_kernel call (one broadcast call
of initial's port of ndtr), then convolves row by row, in an order whose
bits the tests pin.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .grids import SigmaGrid
from .initial import normal_cell_averages
from .protocols import Forcing

# Gauss-Legendre points for the memory integral; enough for mass errors
# far below the 1e-8 contract on this smooth integrand.
MEMORY_QUAD_POINTS = 96
# Upper end of the memory nodes, about 6.0036: e^{-W^2}, the mass the weight
# 2 w e^{-w^2} holds beyond it, is double epsilon.
MEMORY_W_MAX = math.sqrt(-math.log(np.finfo(float).eps))


def _point_kernel(n: int, ds: float, shift: float) -> np.ndarray:
    """Zero-variance offset kernel: a point deposit at shift, split evenly
    between two offset cells when it sits on their common edge."""
    dens = np.zeros(2 * n - 1)
    rel = shift / ds
    j = math.floor(rel + 0.5)
    if abs(rel - (j - 0.5)) < 1e-12:  # shift sits on an offset-cell edge
        lo = j - 1 + (n - 1)
        if 0 <= lo < dens.size:
            dens[lo] += 0.5 / ds
        if 0 <= lo + 1 < dens.size:
            dens[lo + 1] += 0.5 / ds
    elif -(n - 1) <= j <= n - 1:
        dens[j + n - 1] = 1.0 / ds
    return dens


def offset_kernel(grid: SigmaGrid, shifts: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Cell-averaged kernel on the offset ladder k*d_sigma, k in [-(n-1), n-1].

    Entry k equals the average over cell i of a Gaussian centered at
    sigma_j + shift whenever k = i - j, which turns the p0 convolution into
    a single 1-d convolution.

    shifts and variances are (m,) float arrays of per-row values; the
    result holds one kernel per row, shape (m, 2n-1).  Every row comes from
    one broadcast call of initial's ndtr port (initial.normal_cell_averages);
    a zero-variance row, whose quotients are infinite or nan there, is then
    overwritten by its point kernel.  Each row is bitwise the kernel of a
    batch of one with its values.
    """
    n = grid.n_sigma
    ds = grid.d_sigma
    k_edges = ds * (np.arange(-(n - 1), n + 1) - 0.5)  # 2n edges
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = normal_cell_averages(k_edges, shifts[:, None], np.sqrt(variances)[:, None], ds)
    for i in np.flatnonzero(variances == 0.0):
        kern[i] = _point_kernel(n, ds, float(shifts[i]))
    return kern


def sub_solution(p0: np.ndarray, grid: SigmaGrid, t: float,
                 xi: np.ndarray, acc_d: np.ndarray) -> np.ndarray:
    """Explicit lower barrier exp(-t) (p0 * G_nu)(sigma - xi) of each of the
    (n_rows, n_sigma) rows p0, with xi and acc_d (n_rows,) arrays."""
    kern = offset_kernel(grid, xi, 2.0 * acc_d)  # every row's kernel in one call
    out = np.empty(p0.shape)  # float rows, whatever the dtype of p0
    for i in range(p0.shape[0]):
        out[i] = grid.d_sigma * np.convolve(p0[i], kern[i], mode="valid")
    return math.exp(-t) * out


def maxwell_p(p0: np.ndarray, forcing: Forcing, t: float, grid: SigmaGrid,
              alpha: float) -> np.ndarray:
    """Closed-form stress density of the fully relaxing variant at time t.

    p0 are (n_rows, n_sigma) cell values, treated as point masses at cell
    centers (exact to second order in d_sigma); forcing supplies the loading
    b whose running integral is the accumulated shear chi.
    """
    if not (isinstance(p0, np.ndarray) and p0.ndim == 2 and p0.shape[1] == grid.n_sigma):
        raise ValidationError(f"p0 must be (n_rows, {grid.n_sigma}) rows, got {np.shape(p0)}")
    if t < 0:
        raise ValidationError("t must be nonnegative")
    if t == 0.0:
        return p0.astype(float)

    n = p0.shape[0]
    decayed = sub_solution(p0, grid, t, np.full(n, forcing.integral(t)), np.full(n, alpha * t))

    # memory term via w = sqrt(t - s): int_0^sqrt(t) 2 w e^{-w^2} K_{alpha w^2}(.) dw,
    # cut at MEMORY_W_MAX
    w_max = min(math.sqrt(t), MEMORY_W_MAX)
    x, wts = np.polynomial.legendre.leggauss(MEMORY_QUAD_POINTS)
    w = 0.5 * w_max * (x + 1.0)
    scale = 0.5 * w_max * wts * 2.0 * w * np.exp(-w * w)
    shifts = np.array([forcing.window_integral(t, wi * wi) for wi in w])
    stds = w * math.sqrt(2.0 * alpha)
    memory = scale @ normal_cell_averages(grid.edges, shifts[:, None], stds[:, None],
                                          grid.d_sigma)
    return decayed + memory


def maxwell_tau(tau0: float, forcing: Forcing, t: float) -> float:
    """Mean stress of the fully relaxing variant: tau' + tau = b solved exactly."""
    if t < 0:
        raise ValidationError("t must be nonnegative")
    return tau0 * math.exp(-t) + forcing.exp_integral(t)
