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
   from the column-sum identity of the Dirichlet matrix),
3. explicit relaxation sink on the cells beyond the threshold,
4. re-injection at sigma = 0 of everything removed this step (sink mass
   plus the metered truncation losses), split evenly over the two cells
   flanking 0.

The deposit balancing the measured removals makes discrete mass
conservation exact by construction; the symmetric split keeps even rows
even and gives the deposit a vanishing first moment, which the stress
moment balance relies on.  Every stage is monotone, so negativity can only
come from rounding; the result is clipped at zero and the clipped mass is
metered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    Shares the exterior-cell quadrature with the relaxation sink so the
    sink/source balance is the same object the coefficient sees.
    """
    return alpha * grid.exterior_mass(p)

def compute_tau(p: np.ndarray, grid: SigmaGrid):
    """Mean stress: first moment of the row(s)."""
    return grid.first_moment(p)


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

    @classmethod
    def zeros(cls, n_rows: int) -> "StepReport":
        z = lambda: np.zeros(n_rows)
        return cls(z(), z(), z(), z(), z(), z(), 0.0, 0)

    def accumulate(self, other: "StepReport"):
        self.sink_mass += other.sink_mass
        self.boundary_mass += other.boundary_mass
        self.outflow_mass += other.outflow_mass
        self.deposit_mass += other.deposit_mass
        self.clipped_mass += other.clipped_mass
        self.trunc_moment += other.trunc_moment
        self.min_before_clip = min(self.min_before_clip, other.min_before_clip)
        self.n_sub += other.n_sub


def hl_step(p: np.ndarray, b, dt: float, grid: SigmaGrid, alpha: float,
            sink_scale: float = 1.0) -> tuple[np.ndarray, StepReport]:
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

    Returns
    -------
    (p_next, StepReport); p_next has the shape of p.
    """
    squeeze = p.ndim == 1
    p2 = np.atleast_2d(np.asarray(p, dtype=float))
    n_rows, n = p2.shape
    b_arr = np.broadcast_to(np.asarray(b, dtype=float), (n_rows,)).astype(float)
    ds = grid.d_sigma

    nu = b_arr * (dt / ds)
    worst = float(np.abs(nu).max()) if n_rows else 0.0
    if worst > 1.0 + 1e-12:
        raise CFLError(
            f"advection CFL violated: max |b| dt / d_sigma = {worst:.6g} > 1; "
            f"sub-cycle with at least {math.ceil(worst)} sub-steps")
    eff_dt = sink_scale * dt
    if eff_dt >= 1.0:
        raise CFLError(f"explicit sink needs dt < 1, got {eff_dt:.6g}")

    # frozen diffusion coefficient from the start-of-step row
    d_coef = compute_d(p2, grid, alpha)

    # explicit upwind advection, zero inflow, metered outflow
    pos = np.maximum(nu, 0.0)[:, None]
    neg = np.minimum(nu, 0.0)[:, None]
    back = np.empty_like(p2)
    back[:, 0] = p2[:, 0]
    back[:, 1:] = p2[:, 1:] - p2[:, :-1]
    fwd = np.empty_like(p2)
    fwd[:, -1] = -p2[:, -1]
    fwd[:, :-1] = p2[:, 1:] - p2[:, :-1]
    q = p2 - pos * back - neg * fwd
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
    q = solve_diffusion_batch(lam, q)
    absorbed = lam * (q[:, 0] + q[:, -1]) * ds
    trunc_moment += lam * ds * (q[:, 0] * w_left + q[:, -1] * w_right)

    # explicit relaxation sink beyond the threshold
    ext = grid.exterior
    sink = eff_dt * q[:, ext].sum(axis=1) * ds
    q[:, ext] *= (1.0 - eff_dt)

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
    negative = np.minimum(q, 0.0)
    clipped = -negative.sum(axis=1) * ds
    np.maximum(q, 0.0, out=q)

    report = StepReport(sink_mass=sink, boundary_mass=absorbed, outflow_mass=outflow,
                        deposit_mass=deposit, clipped_mass=clipped,
                        trunc_moment=trunc_moment,
                        min_before_clip=min_before, n_sub=1)
    return (q[0] if squeeze else q), report


def advance_rows(p: np.ndarray, b, dt: float, grid: SigmaGrid, alpha: float,
                 n_sub: int | None = None,
                 sink_scale: float = 1.0) -> tuple[np.ndarray, StepReport]:
    """Advance rows over one macro step of size dt, sub-cycling for the CFL.

    b is held constant over the whole macro step (the caller freezes it at
    its fixed-point iterate).  All rows advance in lockstep with the same
    sub-step count so the batch stays a single vectorized solve.
    """
    p2 = np.atleast_2d(np.asarray(p, dtype=float))
    b_arr = np.broadcast_to(np.asarray(b, dtype=float), (p2.shape[0],))
    if n_sub is None:
        n_sub = required_substeps(b_arr, dt, grid)
    sub_dt = dt / n_sub
    report = StepReport.zeros(p2.shape[0])
    report.min_before_clip = np.inf
    report.n_sub = 0
    q = p2
    for _ in range(n_sub):
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
    b_used: np.ndarray         # (n_steps, n_rows)
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
    b_used = np.empty((n_steps, n_rows))
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
        p2, rep = advance_rows(p2, b_k, dt, grid, alpha, sink_scale=sink_scale)
        p2 = np.atleast_2d(p2)
        b_used[k] = b_k
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
        tau, d, mass, b_used = tau[:, 0], d[:, 0], mass[:, 0], b_used[:, 0]
        p2 = p2[0]
        p_hist = p_hist[:, 0] if p_hist is not None else None
    return MesoTrajectory(times=times, tau=tau, d=d, mass=mass, b_used=b_used,
                          p=p_hist, p_final=p2, clipped_total=clipped,
                          min_before_clip=float(min_pre), max_density=max_den)
