"""Coupled macro-meso time stepping.

Each macro step advances the stress rows and the velocity together by a
fixed-point (Picard) iteration on the end-of-step velocity:

    b^k  = G0 (dy u^k + V(t+dt))          loading from the velocity iterate
    p^k  = meso advance of the saved rows over [t, t+dt] under frozen b^k
    tau^k = first moment of p^k
    u^{k+1} = backward-Euler momentum step driven by dy tau^k

declared converged when the relative L2 change of u falls below picard_tol,
and abandoned after three non-contracting iterates or picard_max of them.
Every iterate restarts the meso rows from the saved start-of-step state, so
the accepted step is a genuine implicit solve, not an accumulation.

One driver, _picard, runs that fixed point for both paths; a path only
supplies its stress update b -> tau.  The fully relaxing variant replaces
the meso advance by the exact per-node relaxation update
tau' = e^{-dt} tau + (1 - e^{-dt}) b (integrating factor, b frozen per
step) and is used both as a production path for sigma_c = 0 runs and as
the cross-validation partner for the general solver.

A run after any step is one RunState, which a checkpoint holds and run
resumes from; a RunResult is the final one plus what the run was run on.
The per-step records are named once, by their SERIES key, in RunState.series
and every archive alike: a new meter is one SERIES row plus the line of run
that fills it.

run computes D of each accepted state once: it feeds the next step's first
sub-step as well as the records.  The stress recorded for a step is the tau
its accepted iterate already took, and the velocity gradient of a step's
end is reused at the next step's start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DiagnosticFailure, NonContractionError, ValidationError
from .grids import SigmaGrid, SpaceTimeGrid
from .initial import InitialData
from .macro import heat_step, l2_norm, velocity_gradient
from .meso import StepReport, advance_rows, compute_d, compute_tau, required_substeps
from .params import DimensionlessParams
from .protocols import ShearProtocol

PICARD_TOL = 1e-8
PICARD_MAX = 50
MASS_TOL = 1e-10
TRUNCATION_TOL = 1e-8  # mass allowed in the outermost stress cells
SERIES_MAX_BYTES = 2**30  # per-step records of one run; standard needs 2.6 MB


@dataclass(frozen=True)
class CoupledProblem:
    """Everything fixed over a run (parameters, grids, protocol, knobs)."""

    dp: DimensionlessParams
    sigma_grid: SigmaGrid
    space_grid: SpaceTimeGrid
    protocol: ShearProtocol
    picard_tol: float = PICARD_TOL
    picard_max: int = PICARD_MAX
    sink_scale: float = 1.0  # fault-injection hook, production value 1.0


@dataclass
class Accumulators:
    """Running integrals the diagnostics need (resumed exactly on restart);
    checkpoints hold one member per field, in declaration order."""

    xi: np.ndarray           # G0 int_0^t (dy u + V) ds per row
    acc_d: np.ndarray        # int_0^t D ds per row
    grad_sq: np.ndarray      # int_0^t int |dsigma p|^2 dsigma ds per row
    clipped_total: float = 0.0
    min_before_clip: float = math.inf
    truncation_steps: int = 0

    @classmethod
    def zeros(cls, n_y: int) -> "Accumulators":
        return cls(xi=np.zeros(n_y), acc_d=np.zeros(n_y), grad_sq=np.zeros(n_y))

    def copy(self) -> "Accumulators":
        return replace(self, xi=self.xi.copy(), acc_d=self.acc_d.copy(),
                       grad_sq=self.grad_sq.copy())


@dataclass
class PicardStats:
    iterations: int
    ratio: float             # first measured contraction ratio (nan if unobserved)


@dataclass
class Snapshot:
    index: int
    t: float
    u: np.ndarray
    tau: np.ndarray
    d: np.ndarray
    p: np.ndarray | None
    xi: np.ndarray
    acc_d: np.ndarray


@dataclass(frozen=True)
class SeriesField:
    """One per-step record of a run and how it is laid out and stored."""

    key: str                 # RunState.series key
    per_node: bool           # one entry per time node (n_steps+1), else per step
    per_y: bool              # one value per gap node in each entry, else a scalar
    dtype: type = float
    archive: str = ""        # member name in series.npz, when not the key

    @property
    def checkpoint_key(self) -> str:
        """Member name in checkpoints."""
        return "series_" + self.key

    def length(self, steps: int) -> int:
        """Entries covering `steps` completed steps."""
        return steps + 1 if self.per_node else steps


# the per-step records, in the member order of every archive that holds them
SERIES = (
    SeriesField("tau", per_node=True, per_y=True),
    SeriesField("u", per_node=True, per_y=True),
    SeriesField("b", per_node=False, per_y=True),        # loading frozen per step
    SeriesField("trunc", per_node=False, per_y=True),    # boundary moment flux
    SeriesField("inner", per_node=True, per_y=True),     # banded first moment
    SeriesField("mass_err", per_node=True, per_y=False),  # max |mass - 1|
    SeriesField("min_d", per_node=True, per_y=False),
    SeriesField("max_p", per_node=True, per_y=False),
    SeriesField("iters", per_node=False, per_y=False, dtype=int, archive="picard_iters"),
    SeriesField("ratios", per_node=False, per_y=False, archive="picard_ratios"),
)


def check_series_budget(sgrid: SpaceTimeGrid) -> None:
    """Reject, before anything is allocated, a run whose records exceed the budget."""
    need = sum(f.length(sgrid.n_steps) * (sgrid.n_y if f.per_y else 1)
               * np.dtype(f.dtype).itemsize for f in SERIES)
    if need > SERIES_MAX_BYTES:
        raise ValidationError(
            f"run.dt and run.t_final give {sgrid.n_steps} steps, whose per-step "
            f"records need {need:.3g} bytes (budget {SERIES_MAX_BYTES:.3g})")


def _new_series(n_steps: int, n_y: int) -> dict[str, np.ndarray]:
    """Zeroed per-step records for a run of n_steps, keyed like SERIES."""
    return {f.key: np.zeros((f.length(n_steps),) + ((n_y,) if f.per_y else ()),
                            dtype=f.dtype) for f in SERIES}


@dataclass
class RunState:
    """A run after `step` steps: exactly what continues it bit-for-bit."""

    step: int
    u: np.ndarray            # (n_y,)
    p: np.ndarray            # (n_y, n_sigma)
    accum: Accumulators
    # the SERIES records by key, covering `step` steps; in the checkpoints
    # of a run they are read-only views of the run's own records
    series: dict[str, np.ndarray]
    warnings: list[str]


@dataclass
class RunResult(RunState):
    """A finished run: its final state and what it was run on."""

    kind: str                      # "general" or "maxwell"
    problem: CoupledProblem
    eta: float
    p0_max: float
    p0: np.ndarray
    u0: np.ndarray
    times: np.ndarray
    snapshots: list[Snapshot]

    @property
    def picard_iters(self) -> np.ndarray:
        # read by perfbench/child.py
        return self.series["iters"]


def _picard(u: np.ndarray, stress, prob: CoupledProblem, t_next: float):
    """Solve one step's fixed point on the end-of-step velocity.

    stress(b) maps a loading frozen over the step to the end-of-step stress
    and whatever state the caller keeps; returns the accepted velocity, the
    loading and kept state of the last iterate, and the iteration stats.
    """
    sgrid, dp = prob.space_grid, prob.dp
    v_next = prob.protocol.value(t_next)
    vdot_next = prob.protocol.derivative(t_next)

    u_iter = u
    changes: list[float] = []
    strikes = 0
    for _ in range(prob.picard_max):
        b = dp.g0 * (velocity_gradient(u_iter, sgrid) + v_next)
        tau_new, kept = stress(b)
        u_new = heat_step(u, tau_new, vdot_next, dp.rho, dp.mu, sgrid.dt, sgrid)
        change = l2_norm(u_new - u_iter, sgrid)
        changes.append(change)
        u_iter = u_new
        if change <= prob.picard_tol * (1.0 + l2_norm(u_new, sgrid)):
            break
        if len(changes) >= 2 and changes[-2] > 0:
            if change >= changes[-2] and change > 1e-13:
                strikes += 1
                if strikes >= 3:
                    raise NonContractionError(
                        f"fixed-point iteration diverging at t = {t_next:.6g} "
                        f"(ratio {change / changes[-2]:.3g}); reduce dt",
                        ratio=change / changes[-2])
            else:
                strikes = 0
    else:
        ratio = changes[-1] / changes[-2] if len(changes) >= 2 and changes[-2] > 0 else math.nan
        raise NonContractionError(
            f"fixed-point iteration did not converge in {prob.picard_max} "
            f"iterations at t = {t_next:.6g} (last ratio {ratio:.3g}); reduce dt",
            ratio=ratio)

    ratio = changes[1] / changes[0] if len(changes) >= 2 and changes[0] > 0 else math.nan
    return u_iter, b, kept, PicardStats(iterations=len(changes), ratio=ratio)


def coupled_step(u: np.ndarray, p: np.ndarray, t_next: float, prob: CoupledProblem,
                 d: np.ndarray) -> tuple[np.ndarray, np.ndarray, PicardStats,
                                         StepReport, np.ndarray, np.ndarray]:
    """One Picard-coupled macro step to t_next from velocity u and rows p,
    whose D is d.

    Returns the new velocity and rows, iteration stats, the meso step
    report, the loading field actually used, and tau of the new rows (the
    accepted iterate's stress).
    """
    grid, dp, dt = prob.sigma_grid, prob.dp, prob.space_grid.dt

    def kinetic(b):
        n_sub = required_substeps(b, dt, grid)
        p_new, rep = advance_rows(p, b, dt, grid, dp.alpha, n_sub=n_sub,
                                  sink_scale=prob.sink_scale, d=d)
        tau = np.asarray(compute_tau(p_new, grid))
        return tau, (p_new, rep, tau)

    u_new, b, (p_new, rep, tau), stats = _picard(u, kinetic, prob, t_next)
    return u_new, p_new, stats, rep, b, tau


def _sigma_gradient_energy(p: np.ndarray, grid: SigmaGrid) -> np.ndarray:
    diff = np.diff(p, axis=1) / grid.d_sigma
    return (diff * diff).sum(axis=1) * grid.d_sigma


def run(prob: CoupledProblem, init: InitialData, eta: float,
        snap_every: int = 0, checkpoint_every: int = 0,
        checkpoint_sink=None, resume: RunState | None = None,
        snapshot_sink=None) -> RunResult:
    """Integrate the coupled system to the horizon.

    snap_every / checkpoint_every are step counts (0 disables; snapshots
    always include t = 0 and the final time).  checkpoint_sink, when given,
    receives a RunState at every checkpoint step; its series are read-only
    views of this run's records, valid after the run ends.
    snapshot_sink, when given, receives each Snapshot as soon as it is
    taken (it also goes into RunResult.snapshots); nothing later changes
    its arrays.
    """
    grid, sgrid, dp = prob.sigma_grid, prob.space_grid, prob.dp
    n_y, n_steps = sgrid.n_y, sgrid.n_steps
    if init.p0.shape != (n_y, grid.n_sigma):
        raise ValidationError("initial rows do not match the grids")

    p0 = init.p0.copy()
    u0 = init.u0.copy()
    p0_max = float(p0.max())

    series = _new_series(n_steps, n_y)
    mass_err = series["mass_err"]
    start = resume or RunState(step=0, u=u0, p=p0, accum=Accumulators.zeros(n_y),
                               series=_new_series(0, n_y), warnings=[])
    state = RunState(step=start.step, u=start.u.copy(), p=start.p.copy(),
                     accum=start.accum.copy(), series=series, warnings=list(start.warnings))
    for f in SERIES:
        series[f.key][:f.length(state.step)] = start.series[f.key]
    accum, warnings = state.accum, state.warnings

    def _observe(k: int, d: np.ndarray, tau: np.ndarray):
        masses = np.asarray(grid.mass(state.p))
        mass_err[k] = float(np.abs(masses - 1.0).max())
        series["tau"][k] = tau
        series["u"][k] = state.u
        series["inner"][k] = np.asarray(grid.inner_moment(state.p))
        series["min_d"][k] = float(d.min())
        series["max_p"][k] = float(state.p.max())
        if mass_err[k] > MASS_TOL:
            row = int(np.abs(masses - 1.0).argmax())
            exc = DiagnosticFailure(
                f"mass conservation failed at step {k}, row {row}: "
                f"|mass - 1| = {mass_err[k]:.3e} > {MASS_TOL:.1e}")
            exc.payload = _payload()  # full state dump for post-mortems
            raise exc
        outer = np.asarray(grid.outermost_mass(state.p))
        if float(outer.max()) > TRUNCATION_TOL:
            accum.truncation_steps += 1
            if accum.truncation_steps == 1:
                warnings.append(
                    f"truncation monitor: outermost-cell mass {float(outer.max()):.3e} "
                    f"exceeds {TRUNCATION_TOL:.1e} at t = {sgrid.time(k):.6g}; "
                    "consider a larger sigma_max")

    snapshots: list[Snapshot] = []

    def _snap(k: int, d: np.ndarray):
        if snap_every and (k % snap_every == 0 or k == n_steps):
            snapshots.append(Snapshot(
                index=k, t=sgrid.time(k), u=state.u.copy(),
                tau=series["tau"][k].copy(), d=d,
                p=state.p.copy(), xi=accum.xi.copy(), acc_d=accum.acc_d.copy()))
            if snapshot_sink is not None:
                snapshot_sink(snapshots[-1])

    def _prefix(key: str, length: int) -> np.ndarray:
        # no later step writes into the prefix, so a read-only view of it
        # stays valid without the quadratic cost of copying it each time
        view = series[key][:length]
        view.flags.writeable = False
        return view

    def _payload() -> RunState:
        k = state.step
        return RunState(step=k, u=state.u.copy(), p=state.p.copy(), accum=accum.copy(),
                        series={f.key: _prefix(f.key, f.length(k)) for f in SERIES},
                        warnings=list(warnings))

    # D of the current state, computed once per step: it feeds the next
    # step's first sub-step, the observation, the snapshot and both ends of
    # the acc_d trapezoid.  Tau comes from the step's accepted iterate and
    # the velocity gradient is carried to the next step's trapezoid.
    d = np.asarray(compute_d(state.p, grid, dp.alpha))
    grad = velocity_gradient(state.u, sgrid)
    if resume is None:
        _observe(0, d, np.asarray(compute_tau(state.p, grid)))
        _snap(0, d)

    for k in range(state.step, n_steps):
        grad_prev, d_prev = grad, d
        t_prev, t_next = sgrid.time(k), sgrid.time(k + 1)

        state.u, state.p, stats, rep, b_used, tau = coupled_step(
            state.u, state.p, t_next, prob, d)
        state.step = k + 1

        series["iters"][k] = stats.iterations
        series["ratios"][k] = stats.ratio
        series["b"][k] = b_used
        series["trunc"][k] = rep.trunc_moment
        accum.clipped_total += float(rep.clipped_mass.sum())
        accum.min_before_clip = min(accum.min_before_clip, rep.min_before_clip)
        grad = velocity_gradient(state.u, sgrid)
        accum.xi += dp.g0 * (0.5 * sgrid.dt * (grad_prev + grad)
                             + (prob.protocol.integral(t_next) - prob.protocol.integral(t_prev)))
        d = np.asarray(compute_d(state.p, grid, dp.alpha))
        accum.acc_d += 0.5 * sgrid.dt * (d_prev + d)
        accum.grad_sq += sgrid.dt * _sigma_gradient_energy(state.p, grid)

        _observe(k + 1, d, tau)
        _snap(k + 1, d)
        if checkpoint_every and checkpoint_sink is not None and (k + 1) % checkpoint_every == 0:
            checkpoint_sink(_payload())

    return RunResult(**vars(state), kind="general", problem=prob, eta=eta,
                     p0_max=p0_max, p0=p0, u0=u0, times=sgrid.times,
                     snapshots=snapshots)


def run_maxwell(prob: CoupledProblem, tau0: np.ndarray, u0: np.ndarray,
                snap_every: int = 0, snapshot_sink=None) -> RunResult:
    """Integrate the fully relaxing variant (linear coupled system).

    The per-node stress balance tau' + tau = b is integrated exactly per
    step with b frozen at the Picard iterate, inside the same backward-Euler
    fixed point as the general path.  snapshot_sink, when given, receives
    each Snapshot as soon as it is taken, as in run.
    """
    sgrid, dp = prob.space_grid, prob.dp
    n_y, n_steps = sgrid.n_y, sgrid.n_steps
    tau = np.asarray(tau0, dtype=float).copy()
    u = np.asarray(u0, dtype=float).copy()
    if tau.shape != (n_y,) or u.shape != (n_y,):
        raise ValidationError("tau0/u0 do not match the space grid")

    decay = math.exp(-sgrid.dt)
    gain = -math.expm1(-sgrid.dt)  # 1 - e^{-dt}, accurate for small dt

    def relax(b):
        tau_new = decay * tau + gain * b
        return tau_new, tau_new

    # no density: no mass error, D = alpha everywhere, no density maximum
    series = _new_series(n_steps, n_y)
    series["min_d"].fill(dp.alpha)
    series["max_p"].fill(math.nan)
    series["tau"][0] = tau
    series["u"][0] = u
    snapshots: list[Snapshot] = []
    zero = np.zeros(n_y)

    def _snap(k: int):
        if snap_every and (k % snap_every == 0 or k == n_steps):
            snapshots.append(Snapshot(index=k, t=sgrid.time(k), u=u.copy(),
                                      tau=tau.copy(), d=np.full(n_y, dp.alpha),
                                      p=None, xi=zero.copy(), acc_d=zero.copy()))
            if snapshot_sink is not None:
                snapshot_sink(snapshots[-1])

    _snap(0)
    for k in range(n_steps):
        u, b, tau, stats = _picard(u, relax, prob, sgrid.time(k + 1))
        series["tau"][k + 1] = tau
        series["u"][k + 1] = u
        series["b"][k] = b
        series["iters"][k] = stats.iterations
        series["ratios"][k] = stats.ratio
        _snap(k + 1)

    no_rows = np.zeros((0, prob.sigma_grid.n_sigma))
    return RunResult(step=n_steps, u=u, p=no_rows, accum=Accumulators.zeros(n_y),
                     series=series, warnings=[], kind="maxwell", problem=prob,
                     eta=dp.alpha, p0_max=math.nan, p0=no_rows,
                     u0=series["u"][0].copy(), times=sgrid.times, snapshots=snapshots)
