"""Mesoscopic stress-distribution solver.

Each gap point carries a density p(sigma) advanced by the nonlinear
relaxation equation

    dt p + b dsigma p - D(p) d2sigma p + 1_{|sigma|>thr} p = (D/alpha) delta_0,
    D(p) = alpha * int_{|sigma|>thr} p dsigma,

with b the local elastic loading rate.  One step is IMEX split, in order:

1. explicit first-order upwind advection (CFL |b| dt <= d_sigma, zero
   inflow ghosts, outflow through the downwind end is metered),
2. implicit backward-Euler diffusion with the coefficient D frozen at the
   start-of-step row, homogeneous Dirichlet ends at +-sigma_max, all rows
   in one batched tridiagonal solve (the absorbed boundary flux is metered
   from the column-sum identity of the Dirichlet matrix; the solve reuses
   its factorization while lam repeats, as it does across the Picard
   iterates of one macro step, and factors a new lam from the first
   pivots of each row, which settle after a few entries because D is
   constant along the row; see tridiag),
3. explicit relaxation sink on the cells beyond the threshold,
4. re-injection at sigma = 0 of everything removed this step (sink mass
   plus the metered truncation losses), split evenly over the two cells
   flanking 0.

The deposit balancing the measured removals makes discrete mass
conservation exact by construction; the symmetric split keeps even rows
even and gives the deposit a vanishing first moment, which the stress
moment balance relies on.  Every stage is monotone, so negativity can only
come from rounding; a result with a negative value is clipped at zero and
the clipped mass is metered.

hl_step runs once per sub-step of every Picard iterate, so it avoids work
that does not change a bit of its result:

- the caller may pass D of the start rows, which coupler.run already holds;
- rows that already are a 2-D float array are taken as they are;
- the upwind differences, the advective flux and the exterior ends are
  written into scratch arrays kept per batch shape (_scratch); the result
  is always a fresh array, never a view of them;
- the two advective terms are evaluated only for the loading signs present:
  with every b >= 0, as under a positive wall speed, the downwind term is
  zero and skipped;
- the sink scales the whole batch by one keep row, kept in the scratch,
  which holds 1 - dt beyond the threshold and 1.0 inside the band, where
  the product is exact;
- the clip is skipped when nothing is negative.

The meters the coupler reads every iterate or step (compute_d,
compute_tau, compute_inner_moment, compute_gradient_energy) share that
scratch, so the kinetic path allocates no work array of its own.  One
exterior sum serves both compute_d and the sink: SigmaGrid.exterior_sum
copies the two exterior ends into the Fortran-ordered ext, the layout of
the mask gather p[:, exterior], so its row sums add in the same order and
give the same bits (a C-ordered copy would not).  The banded moment sums
a Fortran-ordered view of diff the same way; tau and the gradient energy
sum the rows of flux, as their allocating forms summed theirs.

The skips rest on one invariant: the rows of a run hold no -0.0.  The
preset initial rows hold none, and hl_step keeps nonnegative rows free of
it: a sum or difference is -0.0 only when its first operand is, every
stage updates a cell by adding to or subtracting from it or by scaling a
value >= 0 by a positive factor, and the clip writes +0.0.  On such rows a
subtracted all-zero term or a clip of nothing changes no bit; on a row
that does hold -0.0 either could turn it into +0.0, so there the skips may
leave the sign of a zero cell different.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CFLError, SchemeInstabilityError
from .grids import SigmaGrid
from .protocols import Forcing
from .tridiag import solve_diffusion_batch

# A pre-clip density below this signals a broken scheme, not rounding noise.
INSTABILITY_FLOOR = -1e-8
# Slack on the sup-norm safeguard inside hl_solve.
LINF_ASSERT_TOL = 1e-6


def compute_d(p: np.ndarray, grid: SigmaGrid, alpha: float):
    """Stress diffusion coefficient alpha * exterior mass, midpoint quadrature.

    Sums the exterior cells as the relaxation sink does (SigmaGrid.exterior_sum
    over the scratch ext), so the sink/source balance is the same object the
    coefficient sees.
    """
    return alpha * grid.exterior_mass(p, _work(p, grid)[2])


def compute_tau(p: np.ndarray, grid: SigmaGrid):
    """Mean stress: first moment of the row(s)."""
    return grid.first_moment(p, _work(p, grid)[1])


def compute_inner_moment(p: np.ndarray, grid: SigmaGrid):
    """First moment over the non-relaxing band, summed in the scratch diff."""
    n_rows, n_in = _n_rows(p), grid.n_sigma - 2 * grid.n_exterior_side
    diff = _work(p, grid)[0]
    return grid.inner_moment(p, diff[:n_rows * n_in].reshape((n_rows, n_in), order="F"))


def compute_gradient_energy(p: np.ndarray, grid: SigmaGrid):
    """int |dsigma p|^2 dsigma of the row(s), differenced in the scratch flux."""
    return grid.gradient_energy(p, _work(p, grid)[1])


@dataclass
class StepReport:
    """Per-row bookkeeping for one (possibly sub-cycled) advance."""

    sink_mass: np.ndarray        # removed by relaxation
    boundary_mass: np.ndarray    # absorbed by the Dirichlet truncation
    outflow_mass: np.ndarray     # advected through the downwind end
    deposit_mass: np.ndarray     # re-injected at sigma = 0 (sum of the above)
    clipped_mass: np.ndarray     # negative rounding residue removed by the clip
    trunc_moment: np.ndarray     # first moment carried out through +-sigma_max
    min_before_clip: float
    n_sub: int = 1

    def accumulate(self, other: "StepReport"):
        self.sink_mass += other.sink_mass
        self.boundary_mass += other.boundary_mass
        self.outflow_mass += other.outflow_mass
        self.deposit_mass += other.deposit_mass
        self.clipped_mass += other.clipped_mass
        self.trunc_moment += other.trunc_moment
        self.min_before_clip = min(self.min_before_clip, other.min_before_clip)
        self.n_sub += other.n_sub


def _as_rows(p) -> np.ndarray:
    """p as (n_rows, n_sigma) float rows; no call or copy when it is such an array."""
    if isinstance(p, np.ndarray) and p.ndim == 2 and p.dtype == np.float64:
        return p
    return np.atleast_2d(np.asarray(p, dtype=float))


def _per_row(b, n_rows: int) -> np.ndarray:
    """The loading as a read-only (n_rows,) float array; no copy when it is one."""
    if isinstance(b, np.ndarray) and b.shape == (n_rows,) and b.dtype == np.float64:
        return b
    return np.broadcast_to(np.asarray(b, dtype=float), (n_rows,))


@lru_cache(maxsize=1)
def _scratch(n_rows: int, n: int, n_ext: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The work arrays of one batch shape, reused call after call.

    diff (n_rows*n + 1,) holds hl_step's flat upwind differences, of which
    the backward and forward ones are (n_rows, n) views, and the banded
    cells of compute_inner_moment; flux (n_rows, n) one advective term,
    and the products of compute_tau and compute_gradient_energy; ext
    (n_rows, 2*n_ext), Fortran-ordered, the exterior ends; keep (n,) the
    factor of each cell under the sink, 1.0 inside the band.  Every user
    overwrites what it reads, except keep, whose ends hold the last factor
    and are rewritten when it changes; nothing else carries over between
    calls (the program steps in one thread).
    """
    return (np.empty(n_rows * n + 1), np.empty((n_rows, n)),
            np.empty((n_rows, 2 * n_ext), order="F"), np.ones(n))


def _n_rows(p: np.ndarray) -> int:
    return p.shape[0] if p.ndim == 2 else 1


def _work(p: np.ndarray, grid: SigmaGrid):
    """The scratch of p's batch shape."""
    return _scratch(_n_rows(p), grid.n_sigma, grid.n_exterior_side)


def hl_step(p: np.ndarray, b, dt: float, grid: SigmaGrid, alpha: float,
            sink_scale: float = 1.0, d: np.ndarray | None = None
            ) -> tuple[np.ndarray, StepReport]:
    """One IMEX step for a batch of rows.

    Parameters
    ----------
    p : (n_rows, n_sigma) or (n_sigma,) start-of-step densities.
    b : per-row loading rate, scalar or (n_rows,). Constant in sigma.
    dt : step size; must satisfy |b| dt <= d_sigma (else CFLError) and
        dt < 1 for the explicit sink.
    sink_scale : documented fault-injection hook; scales the relaxation
        sink (and only it) so diagnostics can be shown to catch a broken
        scheme. Production value is 1.0.
    d : (n_rows,) D of p as compute_d gives it, when the caller holds it;
        computed here otherwise.

    Returns
    -------
    (p_next, StepReport); p_next has the shape of p.
    """
    squeeze = p.ndim == 1
    p2 = _as_rows(p)
    n_rows, n = p2.shape
    b_arr = _per_row(b, n_rows)
    ds = grid.d_sigma

    nu = b_arr * (dt / ds)
    # the extremes give the CFL number and the loading signs that occur (a
    # NaN propagates to both and counts as either sign, as it would in any())
    nu_max, nu_min = (float(nu.max()), float(nu.min())) if n_rows else (0.0, 0.0)
    worst = max(abs(nu_max), abs(nu_min))
    if worst > 1.0 + 1e-12:
        raise CFLError(
            f"advection CFL violated: max |b| dt / d_sigma = {worst:.6g} > 1; "
            f"sub-cycle with at least {math.ceil(worst)} sub-steps")
    eff_dt = sink_scale * dt
    if eff_dt >= 1.0:
        raise CFLError(f"explicit sink needs dt < 1, got {eff_dt:.6g}")

    # frozen diffusion coefficient from the start-of-step row
    d_coef = compute_d(p2, grid, alpha) if d is None else d
    n_ext = grid.n_exterior_side
    diff, flux, ext, keep = _scratch(n_rows, n, n_ext)

    # explicit upwind advection, zero inflow, metered outflow:
    # q = (p - pos*back) - neg*fwd, evaluated in that order (the artifacts
    # depend on its bits), a term only where its sign occurs.  Subtracting
    # a term that is zero in every row would change no bit but the sign of
    # a -0.0 cell, which the rows of a run do not hold (module docstring).
    # One flat subtract fills diff[1:-1]; back = diff[:-1] once its
    # row-start column is set, fwd = diff[1:] once its row-end column is
    # set, which overwrites back's row starts, so back is used first.
    pos = np.maximum(nu, 0.0)[:, None]
    neg = np.minimum(nu, 0.0)[:, None]
    has_pos, has_neg = not nu_max <= 0.0, not nu_min >= 0.0
    if has_pos or has_neg:
        p_flat = p2.ravel()
        np.subtract(p_flat[1:], p_flat[:-1], out=diff[1:-1])
    if has_pos:
        back = diff[:-1].reshape(n_rows, n)
        back[:, 0] = p2[:, 0]
        np.multiply(pos, back, out=flux)
        q = p2 - flux
    else:
        q = p2.copy()  # the solve overwrites its right-hand side
    if has_neg:
        fwd = diff[1:].reshape(n_rows, n)
        # an assignment, not np.negative(..., out=fwd[:, -1]): numpy 2.4
        # has written wrong values through such a strided out=
        fwd[:, -1] = -p2[:, -1]
        np.multiply(neg, fwd, out=flux)
        q -= flux
    out_right = pos[:, 0] * p2[:, -1] * ds
    out_left = -neg[:, 0] * p2[:, 0] * ds
    outflow = out_right + out_left
    # stress carried by the outflow; the sigma weights fall out of the same
    # telescoping that makes the interior moment gain exactly b*dt*mass
    w_left, w_right = grid.centers[0] - ds, grid.centers[-1] + ds
    trunc_moment = out_right * w_right + out_left * w_left

    # implicit diffusion; column sums of the Dirichlet matrix meter the
    # absorbed boundary flux exactly: sum(rhs) = sum(q) + lam*(q_0 + q_end)
    lam = d_coef * (dt / (ds * ds))
    q = solve_diffusion_batch(lam, q)  # overwrites q, which nothing else holds
    absorbed = lam * (q[:, 0] + q[:, -1]) * ds
    trunc_moment += lam * ds * (q[:, 0] * w_left + q[:, -1] * w_right)

    # explicit relaxation sink beyond the threshold.  The sum is compute_d's,
    # over the exterior ends copied into ext (its summation order is part of
    # the result); the scaling is one contiguous multiply by the keep row,
    # whose 1.0 inside the band changes no bit there
    sink = eff_dt * grid.exterior_sum(q, ext) * ds
    if n_ext and keep[0] != 1.0 - eff_dt:
        keep[:n_ext] = keep[n - n_ext:] = 1.0 - eff_dt
    q *= keep

    # re-injection at sigma = 0 restores every metered removal
    deposit = sink + absorbed + outflow
    i_left, i_right = grid.deposit_cells
    half = deposit / (2.0 * ds)
    q[:, i_left] += half
    q[:, i_right] += half

    min_before = float(q.min())
    if min_before < INSTABILITY_FLOOR:
        raise SchemeInstabilityError(
            f"density reached {min_before:.3e} before clipping; the scheme is unstable")
    if min_before >= 0.0:
        clipped = np.zeros(n_rows)  # nothing to clip, the usual case
    else:
        negative = np.minimum(q, 0.0)
        clipped = -negative.sum(axis=1) * ds
        np.maximum(q, 0.0, out=q)

    report = StepReport(sink_mass=sink, boundary_mass=absorbed, outflow_mass=outflow,
                        deposit_mass=deposit, clipped_mass=clipped,
                        trunc_moment=trunc_moment,
                        min_before_clip=min_before, n_sub=1)
    return (q[0] if squeeze else q), report


def advance_rows(p: np.ndarray, b, dt: float, grid: SigmaGrid, alpha: float,
                 n_sub: int | None = None, sink_scale: float = 1.0,
                 d: np.ndarray | None = None) -> tuple[np.ndarray, StepReport]:
    """Advance rows over one macro step of size dt, sub-cycling for the CFL.

    b is held constant over the whole macro step (the caller freezes it at
    its fixed-point iterate).  All rows advance in lockstep with the same
    sub-step count so the batch stays a single vectorized solve.  d, when
    given, is D of p (compute_d), used by the first sub-step.
    """
    p2 = _as_rows(p)
    b_arr = _per_row(b, p2.shape[0])
    if n_sub is None:
        n_sub = required_substeps(b_arr, dt, grid)
    sub_dt = dt / n_sub
    # the first sub-step's report seeds the sum (seeding with zeros would
    # only turn a -0.0 into +0.0, and no caller sees that: trunc_moment is
    # never -0.0, because its first term out_right * w_right never is;
    # clipped_mass, -0.0 on the unclipped rows of a clipping step, is only
    # summed into totals that start at +0.0; the callers read no other mass
    # field).  Only the first sub-step starts from p; the later ones
    # compute their D.
    q, report = hl_step(p2, b_arr, sub_dt, grid, alpha, sink_scale=sink_scale, d=d)
    for _ in range(n_sub - 1):
        q, rep = hl_step(q, b_arr, sub_dt, grid, alpha, sink_scale=sink_scale)
        report.accumulate(rep)
    return (q[0] if p.ndim == 1 else q), report


def required_substeps(b, dt: float, grid: SigmaGrid) -> int:
    """Smallest sub-step count meeting |b| dt/n <= d_sigma (and dt/n < 1/2)."""
    worst = float(np.abs(np.asarray(b, dtype=float)).max()) if np.size(b) else 0.0
    n_cfl = max(1, math.ceil(worst * dt / grid.d_sigma))
    n_sink = max(1, math.ceil(dt / 0.5))
    return max(n_cfl, n_sink)


def linf_bound(p0_max: float, alpha: float, t: float) -> float:
    """A-priori sup-norm bound max p <= max p0 + sqrt(alpha t / pi)."""
    return p0_max + math.sqrt(alpha * max(t, 0.0) / math.pi)


@dataclass
class MesoTrajectory:
    """Recorded single-row (or small batch) solve."""

    times: np.ndarray          # (n_steps+1,)
    tau: np.ndarray            # (n_steps+1, n_rows)
    d: np.ndarray              # (n_steps+1, n_rows)
    mass: np.ndarray           # (n_steps+1, n_rows)
    p: np.ndarray | None       # (n_steps+1, n_rows, n_sigma) when recorded
    p_final: np.ndarray        # (n_rows, n_sigma)
    clipped_total: float
    min_before_clip: float
    max_density: float


def hl_solve(p0: np.ndarray, forcing: Forcing, grid: SigmaGrid, alpha: float,
             dt: float, t_final: float, record_p: bool = True,
             sink_scale: float = 1.0) -> MesoTrajectory:
    """Integrate rows under a prescribed loading history b(t).

    The loading for each macro step is frozen at its end-of-step value
    (matching the implicit convention of the coupled solver).  The a-priori
    sup-norm bound is asserted every step; violating it raises, because a
    stable consistent step cannot cross it.
    """
    squeeze = np.asarray(p0).ndim == 1
    p2 = np.atleast_2d(np.asarray(p0, dtype=float)).copy()
    n_rows = p2.shape[0]
    n_steps = round(t_final / dt)
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise CFLError("t_final must be an integer number of steps")

    p0_max = float(p2.max())
    times = dt * np.arange(n_steps + 1)
    tau = np.empty((n_steps + 1, n_rows))
    d = np.empty((n_steps + 1, n_rows))
    mass = np.empty((n_steps + 1, n_rows))
    p_hist = np.empty((n_steps + 1, n_rows, grid.n_sigma)) if record_p else None

    clipped = 0.0
    min_pre = np.inf
    max_den = p0_max

    def _record(k: int):
        tau[k] = compute_tau(p2, grid)
        d[k] = compute_d(p2, grid, alpha)
        mass[k] = grid.mass(p2)
        if p_hist is not None:
            p_hist[k] = p2

    _record(0)
    for k in range(n_steps):
        b_k = forcing.value(times[k + 1])
        # D of the start rows, as recorded, feeds the first sub-step
        p2, rep = advance_rows(p2, b_k, dt, grid, alpha, sink_scale=sink_scale, d=d[k])
        p2 = np.atleast_2d(p2)
        clipped += float(rep.clipped_mass.sum())
        min_pre = min(min_pre, rep.min_before_clip)
        step_max = float(p2.max())
        max_den = max(max_den, step_max)
        bound = linf_bound(p0_max, alpha, times[k + 1])
        if step_max > bound + LINF_ASSERT_TOL * (1.0 + bound):
            raise SchemeInstabilityError(
                f"sup-norm bound violated at t = {times[k + 1]:.6g}: "
                f"max p = {step_max:.6g} > {bound:.6g}")
        _record(k + 1)

    if squeeze:
        tau, d, mass = tau[:, 0], d[:, 0], mass[:, 0]
        p2 = p2[0]
        p_hist = p_hist[:, 0] if p_hist is not None else None
    return MesoTrajectory(times=times, tau=tau, d=d, mass=mass, p=p_hist,
                          p_final=p2, clipped_total=clipped,
                          min_before_clip=float(min_pre), max_density=max_den)
