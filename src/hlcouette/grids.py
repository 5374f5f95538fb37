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

    # quadratures (midpoint rule on cell values)

    def mass(self, p: np.ndarray) -> np.ndarray | float:
        return p.sum(axis=-1) * self.d_sigma

    def exterior_mass(self, p: np.ndarray) -> np.ndarray | float:
        return p[..., self.exterior].sum(axis=-1) * self.d_sigma

    def first_moment(self, p: np.ndarray) -> np.ndarray | float:
        return (p * self.centers).sum(axis=-1) * self.d_sigma

    def inner_moment(self, p: np.ndarray) -> np.ndarray | float:
        """First moment restricted to the non-relaxing band |sigma| <= threshold."""
        inner = ~self.exterior
        if not inner.any():
            return np.zeros(p.shape[:-1]) if p.ndim > 1 else 0.0
        return (p[..., inner] * self.centers[inner]).sum(axis=-1) * self.d_sigma

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
