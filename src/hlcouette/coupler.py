"""Coupled macro-meso time stepping.

Each macro step advances the stress and the velocity together by a
fixed-point (Picard) iteration on the end-of-step velocity:

    b^k  = G0 (dy u^k + V(t+dt))          loading from the velocity iterate
    tau^k = end-of-step stress of the path under frozen b^k
    u^{k+1} = backward-Euler momentum step driven by dy tau^k

declared converged when the relative L2 change of u falls below picard_tol,
and abandoned after three non-contracting iterates or picard_max of them.

One loop, _integrate, steps both paths, and one driver, _picard, solves
each step's fixed point.  The loop owns the start or resume, the step-0
records, the records both paths share (tau, u, b, iters, ratios), the
snapshots and the checkpoints.  A path has three methods: start(state);
step(state, k), which advances the state over step k and returns the
loading, tau and Picard stats of its accepted iterate; and observe(state,
k), which records the path's own meters of step k and returns D.
- _Kinetic (run) advances the density rows by the meso solver.  Every
  iterate restarts them from the saved start-of-step rows, so the accepted
  step is a genuine implicit solve, not an accumulation.  It keeps the
  accumulators, the mass guard and the truncation monitor.
- _Relaxation (run_maxwell) integrates tau' + tau = b exactly per node.
  It is a production path for sigma_c = 0 runs and the cross-validation
  partner of the general solver; its states have no density rows.

A run after any step is one RunState, which a checkpoint holds and a run
resumes from; a RunResult is the final one plus what the run was run on.
The per-step records are named once, by their SERIES key, in RunState.series
and every archive alike: a new meter is one SERIES row plus the line of the
loop or of a path that fills it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DiagnosticFailure, NonContractionError, ValidationError
from .grids import SigmaGrid, SpaceTimeGrid
from .initial import InitialData
from .macro import heat_step, l2_norm, velocity_gradient
from .meso import (StepReport, advance_rows, compute_d, compute_gradient_energy,
                   compute_inner_moment, compute_tau, required_substeps)
from .params import DimensionlessParams
from .protocols import ShearProtocol

PICARD_TOL = 1e-8
PICARD_MAX = 50
MASS_TOL = 1e-10
TRUNCATION_TOL = 1e-8  # mass allowed in the outermost stress cells
SERIES_MAX_BYTES = 2**30  # per-step records and snapshots of one run; standard needs 4 MB


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
    p: np.ndarray            # (0, n_sigma) on the closed form
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


def path_rows(prob: CoupledProblem, closed_form: bool) -> tuple[int, int]:
    """Shape of the density rows a path steps and keeps: the closed form
    integrates the stress balance alone and holds none."""
    return (0 if closed_form else prob.space_grid.n_y, prob.sigma_grid.n_sigma)


def check_series_budget(sgrid: SpaceTimeGrid, rows: tuple[int, int], snap_every: int) -> None:
    """Reject, before anything is allocated, a run whose records exceed the budget.

    The records are the per-step series and the snapshots a run keeps in
    RunResult.snapshots, each a copy of the path's density rows (shape
    rows, see path_rows) plus five (n_y,) fields.
    """
    series = sum(f.length(sgrid.n_steps) * (sgrid.n_y if f.per_y else 1)
                 * np.dtype(f.dtype).itemsize for f in SERIES)
    n_steps = sgrid.n_steps  # a snapshot every snap_every-th step and at the last
    snaps = n_steps // snap_every + 1 + (n_steps % snap_every > 0) if snap_every else 0
    need = series + snaps * (rows[0] * rows[1] + 5 * sgrid.n_y) * 8
    if need > SERIES_MAX_BYTES:
        raise ValidationError(
            f"run.dt and run.t_final give {sgrid.n_steps} steps and run.snapshot_every "
            f"keeps {snaps} snapshots of {rows[0]} x {rows[1]} rows, whose records "
            f"need {need:.3g} bytes (budget {SERIES_MAX_BYTES:.3g})")


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

    def checkpoint(self) -> "RunState":
        """A copy of this state whose series are read-only views of its own:
        no later step writes into them, so nothing is copied quadratically."""
        series = {f.key: self.series[f.key][:f.length(self.step)] for f in SERIES}
        for view in series.values():
            view.flags.writeable = False
        return RunState(step=self.step, u=self.u.copy(), p=self.p.copy(),
                        accum=self.accum.copy(), series=series, warnings=list(self.warnings))


@dataclass
class RunResult(RunState):
    """A finished run: its final state and what it was run on."""

    kind: str                      # "general" or "maxwell"
    problem: CoupledProblem
    eta: float
    p0_max: float
    p0: np.ndarray
    snapshots: list[Snapshot]

    @property
    def times(self) -> np.ndarray:
        return self.problem.space_grid.times

    @property
    def picard_iters(self) -> np.ndarray:
        # read by perfbench/child.py
        return self.series["iters"]


def check_resume_path(state: RunState, rows: tuple[int, ...]) -> None:
    """Refuse a state of the other path: the closed form and --force-general
    share a fingerprint, so only the shape of the density rows tells them apart."""
    if state.p.shape != rows:
        raise ConfigError(
            f"the checkpoint holds {state.p.shape[0]} density rows, this path {rows[0]}: "
            "resume the kinetic path with --force-general, the closed form without it")


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


class _Kinetic:
    """The general path: each step advances the density rows by coupled_step.

    D of each accepted state is computed once: it feeds the next step's
    first sub-step, the observation, the snapshot and both ends of the
    acc_d trapezoid.  The velocity gradient of a step's end is reused at
    the next step's start.
    """

    def __init__(self, prob: CoupledProblem):
        self.prob = prob

    def start(self, state: RunState) -> None:
        prob = self.prob
        self.d = np.asarray(compute_d(state.p, prob.sigma_grid, prob.dp.alpha))
        self.grad = velocity_gradient(state.u, prob.space_grid)

    def step(self, state: RunState, k: int):
        prob, accum = self.prob, state.accum
        grid, sgrid, dp = prob.sigma_grid, prob.space_grid, prob.dp
        t_prev, t_next = sgrid.time(k), sgrid.time(k + 1)
        state.u, state.p, stats, rep, b, tau = coupled_step(
            state.u, state.p, t_next, prob, self.d)
        state.series["trunc"][k] = rep.trunc_moment
        accum.clipped_total += float(rep.clipped_mass.sum())
        accum.min_before_clip = min(accum.min_before_clip, rep.min_before_clip)
        grad = velocity_gradient(state.u, sgrid)
        accum.xi += dp.g0 * (0.5 * sgrid.dt * (self.grad + grad)
                             + (prob.protocol.integral(t_next) - prob.protocol.integral(t_prev)))
        d = np.asarray(compute_d(state.p, grid, dp.alpha))
        accum.acc_d += 0.5 * sgrid.dt * (self.d + d)
        accum.grad_sq += sgrid.dt * compute_gradient_energy(state.p, grid)
        self.grad, self.d = grad, d
        return b, tau, stats

    def observe(self, state: RunState, k: int) -> np.ndarray:
        grid, series, p = self.prob.sigma_grid, state.series, state.p
        masses = np.asarray(grid.mass(p))
        series["mass_err"][k] = float(np.abs(masses - 1.0).max())
        series["inner"][k] = compute_inner_moment(p, grid)
        series["min_d"][k] = float(self.d.min())
        series["max_p"][k] = float(p.max())
        if series["mass_err"][k] > MASS_TOL:
            row = int(np.abs(masses - 1.0).argmax())
            exc = DiagnosticFailure(
                f"mass conservation failed at step {k}, row {row}: "
                f"|mass - 1| = {series['mass_err'][k]:.3e} > {MASS_TOL:.1e}")
            exc.payload = state.checkpoint()  # full state dump for post-mortems
            raise exc
        outer = float(np.asarray(grid.outermost_mass(p)).max())
        if outer > TRUNCATION_TOL:
            state.accum.truncation_steps += 1
            if state.accum.truncation_steps == 1:
                state.warnings.append(
                    f"truncation monitor: outermost-cell mass {outer:.3e} exceeds "
                    f"{TRUNCATION_TOL:.1e} at t = {self.prob.space_grid.time(k):.6g}; "
                    "consider a larger sigma_max")
        return self.d


class _Relaxation:
    """The closed form: tau' = e^{-dt} tau + (1 - e^{-dt}) b per step
    (integrating factor, b frozen at the Picard iterate), tau read from the
    records.  Without a density, D = alpha and the density maximum is nan."""

    def __init__(self, prob: CoupledProblem):
        self.prob = prob

    def start(self, state: RunState) -> None:
        dt = self.prob.space_grid.dt
        self.decay, self.gain = math.exp(-dt), -math.expm1(-dt)  # accurate for small dt
        self.d = np.full(state.u.size, self.prob.dp.alpha)

    def step(self, state: RunState, k: int):
        tau = state.series["tau"][k]

        def relax(b):
            tau_new = self.decay * tau + self.gain * b
            return tau_new, tau_new

        state.u, b, tau_new, stats = _picard(state.u, relax, self.prob,
                                             self.prob.space_grid.time(k + 1))
        return b, tau_new, stats

    def observe(self, state: RunState, k: int) -> np.ndarray:
        state.series["min_d"][k] = self.prob.dp.alpha
        state.series["max_p"][k] = math.nan
        return self.d


def _integrate(prob: CoupledProblem, path, kind: str, eta: float, u0: np.ndarray,
               p0: np.ndarray, tau0: np.ndarray, snap_every: int, checkpoint_every: int,
               checkpoint_sink, resume: RunState | None, snapshot_sink) -> RunResult:
    """Step a path from (u0, p0, tau0), or from resume, to the horizon."""
    sgrid = prob.space_grid
    n_y, n_steps = sgrid.n_y, sgrid.n_steps
    p0 = p0.copy()
    start = resume or RunState(step=0, u=u0, p=p0, accum=Accumulators.zeros(n_y),
                               series=_new_series(0, n_y), warnings=[])
    check_resume_path(start, p0.shape)
    check_series_budget(sgrid, p0.shape, snap_every)
    series = _new_series(n_steps, n_y)
    state = RunState(step=start.step, u=start.u.copy(), p=start.p.copy(),
                     accum=start.accum.copy(), series=series, warnings=list(start.warnings))
    for f in SERIES:
        series[f.key][:f.length(state.step)] = start.series[f.key]
    snapshots: list[Snapshot] = []

    def _observe(k: int):
        d = path.observe(state, k)
        if snap_every and (k % snap_every == 0 or k == n_steps):
            snapshots.append(Snapshot(
                index=k, t=sgrid.time(k), u=state.u.copy(), tau=series["tau"][k].copy(), d=d,
                p=state.p.copy(), xi=state.accum.xi.copy(), acc_d=state.accum.acc_d.copy()))
            if snapshot_sink is not None:
                snapshot_sink(snapshots[-1])

    path.start(state)
    if resume is None:
        series["tau"][0] = tau0
        series["u"][0] = state.u
        _observe(0)
    for k in range(state.step, n_steps):
        b, tau, stats = path.step(state, k)
        state.step = k + 1
        series["tau"][k + 1] = tau
        series["u"][k + 1] = state.u
        series["b"][k] = b
        series["iters"][k] = stats.iterations
        series["ratios"][k] = stats.ratio
        _observe(k + 1)
        if checkpoint_every and checkpoint_sink is not None and (k + 1) % checkpoint_every == 0:
            checkpoint_sink(state.checkpoint())

    return RunResult(**vars(state), kind=kind, problem=prob, eta=eta,
                     p0_max=float(p0.max()) if p0.size else math.nan, p0=p0,
                     snapshots=snapshots)


def run(prob: CoupledProblem, init: InitialData, eta: float,
        snap_every: int = 0, checkpoint_every: int = 0,
        checkpoint_sink=None, resume: RunState | None = None,
        snapshot_sink=None) -> RunResult:
    """Integrate the coupled system to the horizon on the kinetic path.

    snap_every / checkpoint_every are step counts (0 disables; snapshots
    always include t = 0 and the final time).  checkpoint_sink, when given,
    receives a RunState at every checkpoint step; its series are read-only
    views of this run's records, valid after the run ends.
    snapshot_sink, when given, receives each Snapshot as soon as it is
    taken (it also goes into RunResult.snapshots); nothing later changes
    its arrays.  resume is a RunState of this path to continue bit for bit.
    """
    if init.p0.shape != (prob.space_grid.n_y, prob.sigma_grid.n_sigma):
        raise ValidationError("initial rows do not match the grids")
    tau0 = np.asarray(compute_tau(init.p0, prob.sigma_grid))
    return _integrate(prob, _Kinetic(prob), "general", eta, init.u0, init.p0, tau0,
                      snap_every, checkpoint_every, checkpoint_sink, resume, snapshot_sink)


def run_maxwell(prob: CoupledProblem, tau0: np.ndarray, u0: np.ndarray,
                snap_every: int = 0, checkpoint_every: int = 0,
                checkpoint_sink=None, resume: RunState | None = None,
                snapshot_sink=None) -> RunResult:
    """Integrate the fully relaxing variant (linear coupled system).

    The per-node stress balance tau' + tau = b is integrated exactly per
    step with b frozen at the Picard iterate, inside the same backward-Euler
    fixed point as the general path.  The options are run's; the states
    hold no density rows (shape (0, n_sigma)).
    """
    tau0, u0 = np.asarray(tau0, dtype=float), np.asarray(u0, dtype=float)
    if tau0.shape != (prob.space_grid.n_y,) or u0.shape != tau0.shape:
        raise ValidationError("tau0/u0 do not match the space grid")
    return _integrate(prob, _Relaxation(prob), "maxwell", prob.dp.alpha, u0,
                      np.zeros(path_rows(prob, closed_form=True)), tau0,
                      snap_every, checkpoint_every, checkpoint_sink, resume, snapshot_sink)
