"""Macroscopic momentum solver on the gap.

The lifted velocity u (full velocity minus the moving-wall lift V(t) y)
satisfies, between homogeneous Dirichlet walls,

    rho dt u - mu d2y u = dy tau - rho Vdot(t) y.

One step is backward Euler with the stress divergence and wall acceleration
evaluated at the end-of-step time; the tridiagonal system is symmetric
positive definite for every dt, so the step is unconditionally stable.
Its matrix depends only on n_y, rho, mu, dt and dy, which are fixed for a
run, so it is factored once (a one-slot cache) and every step, Picard
iterate and diagnostics replay only substitutes (see ``tridiag``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grids import SpaceTimeGrid
from .tridiag import factor_tridiagonal, solve_tridiagonal


def dtau_dy(tau: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Stress divergence at interior nodes.

    Centered differences inside; second-order one-sided stencils at the
    first and last interior node (wall stress values are not carried).
    """
    n = tau.shape[0]
    dy = grid.dy
    g = np.empty_like(tau)
    if n >= 3:
        g[1:-1] = (tau[2:] - tau[:-2]) / (2.0 * dy)
        g[0] = (-3.0 * tau[0] + 4.0 * tau[1] - tau[2]) / (2.0 * dy)
        g[-1] = (3.0 * tau[-1] - 4.0 * tau[-2] + tau[-3]) / (2.0 * dy)
    elif n == 2:
        g[:] = (tau[1] - tau[0]) / dy
    else:
        g[:] = 0.0
    return g


def velocity_gradient(u: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """dy u at interior nodes, centered, using the zero wall values."""
    dy = grid.dy
    g = np.empty_like(u)
    if u.shape[0] == 1:
        g[0] = 0.0
        return g
    g[1:-1] = (u[2:] - u[:-2]) / (2.0 * dy)
    g[0] = u[1] / (2.0 * dy)
    g[-1] = -u[-2] / (2.0 * dy)
    return g


def staggered_gradient(u: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Differences over the n_y+1 intervals including both walls."""
    dy = grid.dy
    padded = np.concatenate([[0.0], u, [0.0]])
    return np.diff(padded) / dy


def l2_norm(f: np.ndarray, grid: SpaceTimeGrid) -> float:
    """Discrete L2 norm over the gap (interior nodes, weight dy)."""
    return math.sqrt(float(np.dot(f, f)) * grid.dy)


def h1_norm_sq(u: np.ndarray, grid: SpaceTimeGrid) -> float:
    """Discrete squared H1 norm: node values plus staggered gradient energy."""
    grad = staggered_gradient(u, grid)
    return float(np.dot(u, u) * grid.dy + np.dot(grad, grad) * grid.dy)


@lru_cache(maxsize=1)
def _momentum_factors(n: int, rho: float, mu: float, dt: float,
                      dy: float) -> tuple[np.ndarray, np.ndarray]:
    """Factors of (rho/dt) I - mu L on n nodes spaced dy apart."""
    diag = np.full(n, rho / dt + 2.0 * mu / dy ** 2)
    off = np.full(max(n - 1, 0), -mu / dy ** 2)
    return factor_tridiagonal(diag, off)


def heat_step(u: np.ndarray, tau: np.ndarray, vdot: float, rho: float,
              mu: float, dt: float, grid: SpaceTimeGrid) -> np.ndarray:
    """One backward-Euler momentum step.

    Solves (rho/dt) u' - mu L u' = (rho/dt) u + dy tau - rho vdot y with the
    Dirichlet Laplacian L; mu = 0 degenerates gracefully to pointwise decay
    of the inertial balance.
    """
    rhs = (rho / dt) * u + dtau_dy(tau, grid) - rho * vdot * grid.y
    factors = _momentum_factors(u.shape[0], rho, mu, dt, grid.dy)
    return solve_tridiagonal(factors, rhs)
