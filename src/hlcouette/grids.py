"""Discretization grids for the stress variable and the gap.

The stress grid is cell centered on [-Sigma, Sigma].  Cell edges must land
exactly on the relaxation thresholds +-1 and on 0 (so the relaxation
indicator and the zero-stress deposit are unambiguous), which pins
``n_sigma/(2*sigma_max)`` to an integer.  The gap grid holds the interior
nodes of (0, 1) with homogeneous Dirichlet walls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

# Relative slack when checking that a float ratio is an integer.
_INT_TOL = 1e-9


def _as_int_ratio(value: float, what: str) -> int:
    n = round(value)
    if n < 1 or abs(value - n) > _INT_TOL * max(1.0, abs(value)):
        raise ConfigError(f"{what} = {value} must be a positive integer")
    return n


def _per_input(total: np.ndarray, p: np.ndarray) -> np.ndarray | float:
    """Sums over the rows of p shaped as p without its last axis."""
    return total[0] if p.ndim == 1 else total.reshape(p.shape[:-1])


@dataclass(frozen=True)
class SigmaGrid:
    """Cell-centered stress grid on [-sigma_max, sigma_max].

    threshold is the half-width of the elastic (non-relaxing) stress band in
    working units: 1.0 for the scaled model, 0.0 for the fully relaxing
    (Maxwell) variant where every stress level relaxes.
    """

    sigma_max: float
    n_sigma: int
    threshold: float = 1.0

    def __post_init__(self):
        if self.threshold not in (0.0, 1.0):
            raise ConfigError("threshold must be 1.0 (scaled model) or 0.0 (fully relaxing)")
        if self.n_sigma < 4 or self.n_sigma % 2:
            raise ConfigError("n_sigma must be an even integer >= 4")
        if self.threshold == 1.0:
            if self.sigma_max <= 1.0:
                raise ConfigError("sigma_max must exceed the threshold 1")
            # puts +-1 on cell edges; 0 lands on an edge because n_sigma is even
            _as_int_ratio(1.0 / self.d_sigma, "1/d_sigma")
        elif self.sigma_max <= 0.0:
            raise ConfigError("sigma_max must be positive")

    @property
    def d_sigma(self) -> float:
        return 2.0 * self.sigma_max / self.n_sigma

    @cached_property
    def edges(self) -> np.ndarray:
        return np.linspace(-self.sigma_max, self.sigma_max, self.n_sigma + 1)

    @cached_property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @cached_property
    def exterior(self) -> np.ndarray:
        """Boolean mask of cells beyond the threshold (the relaxing set)."""
        return np.abs(self.centers) > self.threshold

    @cached_property
    def n_exterior_side(self) -> int:
        """Exterior cells at each end; the exterior is symmetric about 0."""
        return int(self.exterior[:self.n_sigma // 2].sum())

    @cached_property
    def deposit_cells(self) -> tuple[int, int]:
        """The two cells flanking sigma = 0 that receive the re-injection."""
        return self.n_sigma // 2 - 1, self.n_sigma // 2

    # quadratures (midpoint rule on cell values) of a (n_sigma,) row, which
    # gives a scalar, or of (n_rows, n_sigma) rows.  The exterior and banded
    # sums copy their cells, which are contiguous (two ends, or the band),
    # into a Fortran-ordered array: that is the layout of the mask gathers
    # p[:, exterior] and p[:, ~exterior], so each row adds its cells in
    # sequence, as the gather did (a C-ordered copy would add them pairwise
    # and change bits).  work, when given, is the array the cells go into
    # (the caller's scratch), shaped and ordered as each method states;
    # every method returns a fresh array.

    def mass(self, p: np.ndarray) -> np.ndarray | float:
        return p.sum(axis=-1) * self.d_sigma

    def exterior_sum(self, p: np.ndarray,
                     work: np.ndarray | None = None) -> np.ndarray | float:
        """Sum of the cells beyond the threshold; work is Fortran-ordered
        (n_rows, 2*n_exterior_side)."""
        rows, n, n_ext = p.reshape(-1, self.n_sigma), self.n_sigma, self.n_exterior_side
        if work is None:
            work = np.empty((rows.shape[0], 2 * n_ext), order="F")
        work[:, :n_ext] = rows[:, :n_ext]
        work[:, n_ext:] = rows[:, n - n_ext:]
        return _per_input(work.sum(axis=1), p)

    def exterior_mass(self, p: np.ndarray,
                      work: np.ndarray | None = None) -> np.ndarray | float:
        """Mass beyond the threshold; work as for exterior_sum."""
        return self.exterior_sum(p, work) * self.d_sigma

    def first_moment(self, p: np.ndarray,
                     work: np.ndarray | None = None) -> np.ndarray | float:
        """Mean stress; work is C-ordered (n_rows, n_sigma)."""
        rows = p.reshape(-1, self.n_sigma)
        return _per_input(np.multiply(rows, self.centers, out=work).sum(axis=1)
                          * self.d_sigma, p)

    def inner_moment(self, p: np.ndarray,
                     work: np.ndarray | None = None) -> np.ndarray | float:
        """First moment restricted to the non-relaxing band |sigma| <= threshold;
        work is Fortran-ordered (n_rows, n_sigma - 2*n_exterior_side)."""
        rows, n, n_ext = p.reshape(-1, self.n_sigma), self.n_sigma, self.n_exterior_side
        if 2 * n_ext == n:
            return np.zeros(p.shape[:-1]) if p.ndim > 1 else 0.0
        if work is None:
            work = np.empty((rows.shape[0], n - 2 * n_ext), order="F")
        np.multiply(rows[:, n_ext:n - n_ext], self.centers[n_ext:n - n_ext], out=work)
        return _per_input(work.sum(axis=1) * self.d_sigma, p)

    def gradient_energy(self, p: np.ndarray,
                        work: np.ndarray | None = None) -> np.ndarray | float:
        """int |dsigma p|^2 dsigma by forward differences; work is C-ordered
        (n_rows, n_sigma).  The squared quotients are formed over the
        flattened rows in one pass each, which is faster than row by row; the
        one that straddles each row seam is never summed."""
        rows = p.reshape(-1, self.n_sigma)
        if work is None:
            work = np.empty(rows.shape)
        flat, grad = rows.reshape(-1), work.reshape(-1)[:-1]
        np.subtract(flat[1:], flat[:-1], out=grad)
        np.divide(grad, self.d_sigma, out=grad)
        np.multiply(grad, grad, out=grad)
        return _per_input(work[:, :-1].sum(axis=1) * self.d_sigma, p)

    def outermost_mass(self, p: np.ndarray) -> np.ndarray | float:
        """Mass sitting in the first and last cell (truncation monitor)."""
        return (p[..., 0] + p[..., -1]) * self.d_sigma


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Interior gap nodes of (0, 1) plus the uniform macro time ladder."""

    n_y: int
    dt: float
    t_final: float

    def __post_init__(self):
        if self.n_y < 1:
            raise ConfigError("n_y must be >= 1")
        if self.dt <= 0 or self.t_final < 0:
            raise ConfigError("dt must be positive and t_final nonnegative")
        if self.t_final > 0:
            _as_int_ratio(self.t_final / self.dt, "t_final/dt")

    @cached_property
    def dy(self) -> float:
        return 1.0 / (self.n_y + 1)

    @cached_property
    def y(self) -> np.ndarray:
        return self.dy * np.arange(1, self.n_y + 1)

    @property
    def n_steps(self) -> int:
        return 0 if self.t_final == 0 else round(self.t_final / self.dt)

    def time(self, k: int) -> float:
        # computed as k*dt (never accumulated) so a resumed run sees the
        # exact same time stamps as a straight-through run
        return k * self.dt

    @cached_property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)
