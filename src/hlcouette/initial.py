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
Gaussian presets here, and maxwell's offset kernels and memory term.  Its
normal CDF, _ndtr, is a numpy port of cephes' ndtr that keeps the bits of
scipy.special.ndtr, so no run imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .grids import SigmaGrid, SpaceTimeGrid

# Row mass may drift this far from 1 before renormalization turns into rejection.
RENORM_TOL = 1e-6
# Most negative p0 value tolerated (clipped to zero with a report note).
NEGATIVITY_TOL = -1e-12


# cephes' rational forms of erf and erfc, in descending powers; U, Q and S
# are monic (cephes p1evl), their leading 1 written out.  With x = a/sqrt(2),
# ndtr takes erf on |x| < 1/sqrt(2), erfc = 1 - erf on |x| < 1, erfc's P/Q
# on |x| < 8 and R/S beyond, until erfc underflows to 0 where x*x exceeds
# MAXLOG = log(2**1024).
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_X_LIVE = 26.641747557046326  # the largest x with x*x <= MAXLOG
# From x = 6 up, 0.5 erfc(x) < 2**-54, so 1 - 0.5 erfc(x) rounds to 1.0.
_X_ONE = 6.0
# _ndtr works through its argument in slices of this many elements, so that
# its temporaries stay small: in a run, malloc handed large freed ones back
# to the system, and every barrier kernel then faulted their pages in anew.
_BLOCK = 8192


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """The polynomial with coefs in descending powers at x, by Horner's rule
    in cephes' order of operations."""
    r = x * coefs[0]
    r += coefs[1]
    for c in coefs[2:]:
        r *= x
        r += c
    return r


def _erf_branch(x: np.ndarray) -> np.ndarray:
    """ndtr on |x| < 1: 0.5 + 0.5 erf(x) on |x| < 1/sqrt(2), else
    0.5 erfc(|x|) = 0.5 (1 - erf(|x|)), reflected for x > 0."""
    z = x * x
    erf = x * _polevl(z, _T) / _polevl(z, _U)
    return np.where(np.abs(x) < math.sqrt(0.5), 0.5 + 0.5 * erf,
                    np.abs((x > 0.0) - 0.5 * (1.0 - np.abs(erf))))


def _erfc_branch(x: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """ndtr on 1 <= |x| <= _X_LIVE, overwriting x: 0.5 erfc(|x|), reflected
    to 1 - 0.5 erfc(x) for x > 0.  exp(-x*x) comes from libm through numpy's
    complex exp; its float exp may take a SIMD path whose last bit differs."""
    e = np.exp((-(x * x)).astype(complex)).real
    positive = x > 0.0
    z = np.abs(x, out=x)
    y = e * _polevl(z, num)
    y /= _polevl(z, den)
    y *= 0.5
    np.subtract(positive, y, out=y)
    return np.abs(y, out=y)


def _ndtr_block(x: np.ndarray) -> None:
    """_ndtr in place on a 1-d slice x holding a/sqrt(2)."""
    core = ~((x <= -1.0) | (x >= 1.0))  # erf's branch, nan too: it propagates
    near = ((x > -8.0) & (x <= -1.0)) | ((x >= 1.0) & (x < _X_ONE))  # P/Q
    far = (x >= -_X_LIVE) & (x <= -8.0)  # R/S
    xc, xn, xf = x[core], x[near], x[far]
    np.greater(x, 0.0, out=x)  # the saturated tails, 0 and 1
    x[core] = _erf_branch(xc)
    x[near] = _erfc_branch(xn, _P, _Q)
    x[far] = _erfc_branch(xf, _R, _S)


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Overwrite the contiguous float array x with its standard normal CDF,
    bit for bit as scipy.special.ndtr (cephes) evaluates it, and with no
    floating-point warning for any input: each branch takes only its own
    elements.  Returns x."""
    flat = np.multiply(x, math.sqrt(0.5), out=x).reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        _ndtr_block(flat[start:start + _BLOCK])
    return x


def normal_cell_averages(edges: np.ndarray, means, stds, width: float) -> np.ndarray:
    """Averages of the normal densities N(means, stds^2) over the cells of
    width width between consecutive edges, along the last axis: the one
    Gaussian cell average of the package, and its one _ndtr call.  means
    broadcast against edges, and stds against edges - means."""
    args = edges - means
    args /= stds
    cells = np.diff(_ndtr(args), axis=-1)
    cells /= width
    return cells


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
