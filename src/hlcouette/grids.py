"""Discretization grids for the stress variable and the gap.

The stress grid is cell centered on [-Sigma, Sigma].  Cell edges must land
exactly on the relaxation thresholds +-1 and on 0 (so the relaxation
indicator and the zero-stress deposit are unambiguous), which pins
``n_sigma/(2*sigma_max)`` to an integer.  The stress quadratures take
densities as (n_rows, n_sigma) rows, a single row as a batch of one, and
return one value per row.  The linear functionals the model reads of a row
(its mass, the exterior mass that fixes D, the stress tau and the banded
moment) are one quadrature, SigmaGrid.moments: a dot product of the row
with each row of SigmaGrid.weights.  The gap grid holds the interior nodes
of (0, 1) with homogeneous Dirichlet walls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

# Relative slack when checking that a float ratio is an integer.
_INT_TOL = 1e-9


def _as_int_ratio(value: float, what: str) -> int:
    if not math.isfinite(value):
        raise ConfigError(f"{what} = {value} must be a finite positive integer")
    n = round(value)
    if n < 1 or abs(value - n) > _INT_TOL * max(1.0, abs(value)):
        raise ConfigError(f"{what} = {value} must be a positive integer")
    return n


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

    @cached_property
    def weights(self) -> np.ndarray:
        """The read-only (4, n_sigma) weights of moments: d_sigma times one,
        the exterior indicator, the centers and the centers on the band."""
        band = np.where(self.exterior, 0.0, self.centers)
        w = self.d_sigma * np.stack([np.ones(self.n_sigma), self.exterior, self.centers, band])
        w.flags.writeable = False
        return w

    # quadratures (midpoint rule on cell values) of (n_rows, n_sigma) rows,
    # one fresh value per row; mass alone also takes any shape.

    def mass(self, p: np.ndarray) -> np.ndarray | float:
        return p.sum(axis=-1) * self.d_sigma

    def moments(self, p: np.ndarray) -> np.ndarray:
        """Mass, exterior mass, first moment and banded first moment of each
        row, (n_rows, 4): one dot product of the row with each row of
        weights.  np.vecdot makes each dot alone (one BLAS ddot), so a row
        gets the same bits in any batch, at any offset, and from the
        one-weight form np.vecdot(p, weights[j]); a matrix product (@,
        np.dot) blocks rows together and would not."""
        return np.vecdot(p[:, None, :], self.weights)

    def gradient_energy(self, p: np.ndarray, work: np.ndarray) -> np.ndarray:
        """int |dsigma p|^2 dsigma by forward differences; work is C-ordered
        (n_rows, n_sigma) scratch.  The squared quotients are formed over the
        flattened rows in one pass each, which is faster than row by row; the
        one that straddles each row seam is never summed."""
        flat, grad = p.reshape(-1), work.reshape(-1)[:-1]
        np.subtract(flat[1:], flat[:-1], out=grad)
        np.divide(grad, self.d_sigma, out=grad)
        np.multiply(grad, grad, out=grad)
        return work[:, :-1].sum(axis=1) * self.d_sigma

    def outermost_mass(self, p: np.ndarray) -> np.ndarray:
        """Mass sitting in the first and last cell (truncation monitor)."""
        return (p[:, 0] + p[:, -1]) * self.d_sigma


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
