"""Initial data construction, validation, and the non-degeneracy constant.

The well-posedness theory for the coupled run rests on the constant

    eta = alpha * inf_{y, chi} int_{|sigma + chi| > threshold} p0(y, sigma) dsigma,

the worst-case mass any shifted copy of p0 leaves outside the non-relaxing
band.  eta > 0 guarantees the stress diffusion coefficient stays away from
zero for all time; eta = 0 marks the run as outside the proven regime.

Discretely the infimum over chi is a sliding-window search: the band has
width 2*threshold, cell edges are aligned with the thresholds, so every
grid-aligned window position is scanned exactly and the window resolution
error is at most one cell of mass.  compute_eta returns eta with the row
and band shift chi that attain it, which validate prints.

normal_cell_averages is the one Gaussian cell average of the package: the
Gaussian presets here, and maxwell's offset kernels and memory term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import ValidationError
from .grids import SigmaGrid, SpaceTimeGrid

# Row mass may drift this far from 1 before renormalization turns into rejection.
RENORM_TOL = 1e-6
# Most negative p0 value tolerated (clipped to zero with a report note).
NEGATIVITY_TOL = -1e-12


def normal_cell_averages(edges: np.ndarray, means, stds, width: float) -> np.ndarray:
    """Averages of the normal densities N(means, stds^2) over the cells of
    width width between consecutive edges, along the last axis: the one
    Gaussian cell average of the package, and its one ndtr call.  means and
    stds broadcast against edges."""
    return np.diff(ndtr((edges - means) / stds), axis=-1) / width


def gaussian_cell_averages(grid: SigmaGrid, mean: float, width: float) -> np.ndarray:
    """Cell-averaged normal density N(mean, width^2) on the stress grid."""
    if width <= 0:
        raise ValidationError("gaussian width must be positive")
    return normal_cell_averages(grid.edges, mean, width, grid.d_sigma)


def uniform_cell_averages(grid: SigmaGrid, lo: float, hi: float) -> np.ndarray:
    """Cell averages of the uniform density on [lo, hi]."""
    if hi <= lo:
        raise ValidationError("uniform interval must have hi > lo")
    overlap = (np.minimum(grid.edges[1:], hi) - np.maximum(grid.edges[:-1], lo)).clip(min=0.0)
    return overlap / (hi - lo) / grid.d_sigma


@dataclass
class InitialData:
    """Initial stress distribution rows and lifted velocity samples."""

    p0: np.ndarray           # (n_y, n_sigma) cell-averaged densities
    u0: np.ndarray           # (n_y,) lifted velocity at interior nodes

    @classmethod
    def from_preset(cls, sigma_grid: SigmaGrid, space_grid: SpaceTimeGrid,
                    p0_kind: str, p0_args: dict,
                    u0_kind: str = "zero", u0_amplitude: float = 0.0) -> "InitialData":
        if p0_kind == "gaussian":
            row = gaussian_cell_averages(sigma_grid, p0_args["mean"], p0_args["width"])
        elif p0_kind == "uniform":
            row = uniform_cell_averages(sigma_grid, p0_args["lo"], p0_args["hi"])
        elif p0_kind == "mixture":
            w = p0_args["weight1"]
            if not 0.0 <= w <= 1.0:
                raise ValidationError("mixture weight1 must lie in [0, 1]")
            row = (w * gaussian_cell_averages(sigma_grid, p0_args["mean1"], p0_args["width1"])
                   + (1 - w) * gaussian_cell_averages(sigma_grid, p0_args["mean2"], p0_args["width2"]))
        else:
            raise ValidationError(f"unknown p0 preset {p0_kind!r}")
        mass = sigma_grid.mass(row)
        if mass <= 0:
            raise ValidationError("p0 preset has no mass on the grid")
        row = row / mass  # presets are normalized at construction
        p0 = np.tile(row, (space_grid.n_y, 1))

        if u0_kind == "zero":
            u0 = np.zeros(space_grid.n_y)
        elif u0_kind == "sine":
            u0 = u0_amplitude * np.sin(np.pi * space_grid.y)
        else:
            raise ValidationError(f"unknown u0 preset {u0_kind!r}")
        return cls(p0=p0, u0=u0)


@dataclass
class EtaDetails:
    y_index: int
    chi: float       # shift of the non-relaxing band that captures the most mass


def compute_eta(p0: np.ndarray, grid: SigmaGrid, alpha: float) -> tuple[float, EtaDetails]:
    """Sliding-window evaluation of the non-degeneracy constant of the
    (n_y, n_sigma) rows p0.

    Returns (eta, details) where details point at the minimizing row and the
    band shift chi realizing the worst capture.  For the fully relaxing
    variant the band is empty and eta = alpha * min row mass.
    """
    masses = grid.mass(p0)
    if grid.threshold == 0.0:
        j = int(np.argmin(masses))
        return float(alpha * masses[j]), EtaDetails(y_index=j, chi=0.0)

    half_cells = round(grid.threshold / grid.d_sigma)
    win = 2 * half_cells
    cums = np.concatenate([np.zeros((p0.shape[0], 1)), np.cumsum(p0, axis=1)], axis=1)
    captures = (cums[:, win:] - cums[:, :-win]) * grid.d_sigma  # (n_y, n_windows)
    best = captures.max(axis=1)
    etas = alpha * (masses - best)
    j = int(np.argmin(etas))
    # among ties, report the band shift closest to 0
    row = captures[j]
    tied = np.flatnonzero(row >= best[j] - 1e-12)
    chis = -grid.threshold - grid.edges[tied]
    return float(etas[j]), EtaDetails(y_index=j, chi=float(chis[np.argmin(np.abs(chis))]))


@dataclass
class ValidationReport:
    """Outcome of input validation with enough detail to act on."""

    ok: bool
    eta: float
    eta_details: EtaDetails | None
    theory_backed: bool
    messages: list[str] = field(default_factory=list)

    def raise_if_failed(self):
        if not self.ok:
            raise ValidationError("; ".join(self.messages) or "validation failed")


def validate_initial(data: InitialData, sigma_grid: SigmaGrid, alpha: float,
                     mu: float, allow_degenerate: bool = False) -> ValidationReport:
    """Validate and normalize initial data in place.

    Rows whose mass deviates from 1 by at most RENORM_TOL are renormalized
    (recorded in the report); larger deviations reject.  Negative densities
    above NEGATIVITY_TOL are clipped to zero; anything below rejects.
    eta = 0 or mu = 0 leaves the proven regime and rejects unless
    allow_degenerate is set, in which case the report flags the run.
    """
    msgs: list[str] = []
    ok = True
    p0, u0 = data.p0, data.u0
    if p0.ndim != 2 or p0.shape[1] != sigma_grid.n_sigma:
        raise ValidationError(f"p0 shape {p0.shape} does not match the stress grid")
    if u0.shape != (p0.shape[0],):
        raise ValidationError(f"u0 shape {u0.shape} does not match p0 rows")
    if not (np.isfinite(p0).all() and np.isfinite(u0).all()):
        ok = False
        msgs.append("non-finite values in initial data")

    pmin = float(p0.min()) if p0.size else 0.0
    if pmin < NEGATIVITY_TOL:
        ok = False
        msgs.append(f"p0 has negative density {pmin:.3e} below tolerance {NEGATIVITY_TOL:.0e}")
    elif pmin < 0.0:
        clipped = float(-(p0[p0 < 0].sum()) * sigma_grid.d_sigma)
        np.clip(p0, 0.0, None, out=p0)
        msgs.append(f"clipped negative p0 mass {clipped:.3e}")

    if ok:
        masses = sigma_grid.mass(p0)
        max_dev = float(np.abs(masses - 1.0).max())
        bad = np.abs(masses - 1.0) > RENORM_TOL
        if bad.any():
            ok = False
            rows = np.flatnonzero(bad)[:5]
            msgs.append(f"row mass off by {max_dev:.3e} (> {RENORM_TOL:.0e}) at rows {rows.tolist()}")
        else:
            off = np.abs(masses - 1.0) > 1e-15
            renorm = int(off.sum())
            if renorm:
                p0 /= masses[:, None]
                msgs.append(f"renormalized {renorm} rows (max deviation {max_dev:.3e})")

    eta, details = (0.0, None)
    theory_backed = False
    if ok:
        eta, details = compute_eta(p0, sigma_grid, alpha)
        theory_backed = eta > 0.0 and mu > 0.0
        if not theory_backed:
            why = "eta = 0 (some band shift captures all mass)" if eta <= 0 else "mu = 0"
            if allow_degenerate:
                msgs.append(f"outside proven well-posedness: {why}; continuing on override")
            else:
                ok = False
                msgs.append(f"outside proven well-posedness: {why}; set allow_degenerate to force")

    return ValidationReport(ok=ok, eta=eta, eta_details=details,
                            theory_backed=theory_backed, messages=msgs)
