"""Coupled macro-meso time stepping.

Each macro step advances the stress and the velocity together by a
fixed-point (Picard) iteration on the end-of-step velocity:

    b^k  = G0 (dy u^k + V(t+dt))          loading from the velocity iterate
    tau^k = end-of-step stress of the path under frozen b^k
    u^{k+1} = backward-Euler momentum step driven by dy tau^k

declared converged when the relative L2 change of u falls below picard_tol,
and abandoned after three non-contracting iterates or picard_max of them,
or at the first whose change is not finite.

One loop, _integrate, steps every path, and one driver, _picard, solves
each coupled step's fixed point.  The loop owns the start state, its step-0
records, the records every path shares (tau, u, b, iters, ratios), the
snapshots and the checkpoints.  It keeps exactly the SERIES records per
step and the graded deficits per snapshot; a caller reads anything else
from the live state through the snapshot sink.  A snapshot is graded when
it is taken: the loop records the two barrier deficits of the state and
its D (barrier_deficits) and hands both to the sink, which reads what it
keeps at once, so no density row outlives its step.  A path has three
methods: start(state) returns its tau; step(state, k) advances it over
step k and returns the loading, tau and Picard stats of its accepted
iterate; observe(state, k) records the path's meters of step k and
returns D.
- _Kinetic (run) advances the density rows by the meso solver.  Every
  iterate restarts them from the saved start-of-step rows, so the accepted
  step is a genuine implicit solve, not an accumulation.  The moments of
  each iterate (SigmaGrid.moments) are taken once, and those of the
  accepted one give the state's tau, D, mass error and banded moment.  It
  keeps the accumulators, the mass guard and the truncation monitor.
- _Prescribed (run_prescribed, hl-run) is _Kinetic with the Picard solve
  replaced by one advance under a given loading b(t): the single-ensemble
  equation the coupled problem extends.  It shares everything else of
  _Kinetic; the velocity stays at rest.
- _Relaxation (run_maxwell) integrates tau' + tau = b exactly per node.
  It is a production path for sigma_c = 0 runs and the cross-validation
  partner of the general solver; its states have no density rows.

A run after any step is one RunState, which a checkpoint holds and a run
resumes from; RunState.checkpoint() is the one copy of a state.  A
RunResult is the final state plus what the run was run on and what it
recorded of its snapshots, and reads its path, initial maximum and eta
from its rows.  Every state meets its problem at one gate, check_state,
which refuses one that does not fit.
A failure in the loop carries the last accepted state as its `state`,
attached by _integrate alone: a path raises only in start and step,
before it assigns anything of the state, and observe only records.  A
writer error (ArtifactIOError) carries none.
The per-step records are named once, by their SERIES key, in RunState.series
and every archive alike: a new meter is one SERIES row plus the line of the
loop or of a path that fills it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ArtifactIOError, ConfigError, DiagnosticFailure, HlCouetteError,
                     NonContractionError, SchemeInstabilityError, ValidationError)
from .grids import SigmaGrid, SpaceTimeGrid
from .initial import InitialData, compute_eta
from .macro import heat_step, l2_norm, velocity_gradient
from .maxwell import sub_solution
from .meso import StepReport, advance_rows, compute_d, compute_gradient_energy
from .params import DimensionlessParams
from .protocols import Forcing

PICARD_TOL = 1e-8
PICARD_MAX = 50
MASS_TOL = 1e-10
TRUNCATION_TOL = 1e-8  # mass allowed in the outermost stress cells
SERIES_MAX_BYTES = 2**30  # per-step and per-snapshot records of one run; standard needs 2.6 MB


@dataclass(frozen=True)
class CoupledProblem:
    """Everything fixed over a run (parameters, grids, protocol, knobs)."""

    dp: DimensionlessParams
    sigma_grid: SigmaGrid
    space_grid: SpaceTimeGrid
    protocol: Forcing
    picard_tol: float = PICARD_TOL
    picard_max: int = PICARD_MAX


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


def snapshot_count(n_steps: int, snap_every: int, first: int = 0) -> int:
    """Snapshots taken at steps first..n_steps: every snap_every-th step and
    the last (0 disables)."""
    if not snap_every or first > n_steps:
        return 0
    return n_steps // snap_every - (first - 1) // snap_every + (n_steps % snap_every > 0)


def check_series_budget(sgrid: SpaceTimeGrid, snap_every: int) -> None:
    """Reject, before anything is allocated, a run whose records exceed the budget.

    The records are the per-step series and the three floats that grade
    each snapshot (RunResult.deficits).  No density row is kept.  What a
    snapshot sink keeps is its caller's and is not budgeted: RunDirectory's
    kept CSV fields, or hl-run's mass of its one row, 8 bytes a step."""
    n_steps, n_y = sgrid.n_steps, sgrid.n_y
    series = sum(f.length(n_steps) * (n_y if f.per_y else 1) * np.dtype(f.dtype).itemsize
                 for f in SERIES)
    need = series + 3 * 8 * snapshot_count(n_steps, snap_every)
    if need > SERIES_MAX_BYTES:
        raise ValidationError(
            f"run.dt and run.t_final give {n_steps} steps; with n_y = {n_y} their "
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
    """A finished run: its final state, what it was run on and its records."""

    problem: CoupledProblem
    p0: np.ndarray
    # (t, comparison deficit, induced deficit) of each snapshot the run graded,
    # in step order (barrier_deficits), (n_graded, 3); None if it graded none
    deficits: np.ndarray | None

    @property
    def kind(self) -> str:
        """The path that ran, told by its rows: "general" or "maxwell"."""
        return "general" if self.p.shape[0] else "maxwell"

    @property
    def p0_max(self) -> float:
        """Largest initial density (nan without rows)."""
        return float(self.p0.max()) if self.p0.size else math.nan

    @property
    def eta(self) -> float:
        """Non-degeneracy constant of the initial rows (compute_eta); alpha
        without rows, whose D is alpha throughout."""
        grid, alpha = self.problem.sigma_grid, self.problem.dp.alpha
        return compute_eta(self.p0, grid, alpha)[0] if self.p0.size else alpha

    @property
    def times(self) -> np.ndarray:
        return self.problem.space_grid.times

    @property
    def picard_iters(self) -> np.ndarray:
        # read by perfbench/child.py
        return self.series["iters"]


def check_state(state: RunState, prob: CoupledProblem,
                rows: tuple[tuple[int, int], ...]) -> None:
    """Refuse a state whose step, velocity, running integrals, records or rows
    (of a shape in rows, see path_rows) do not fit prob: the one gate where a
    state meets a problem, at a fresh start, a resume or a diagnosed checkpoint."""
    n_y, n_sigma, n_steps = prob.space_grid.n_y, prob.sigma_grid.n_sigma, prob.space_grid.n_steps
    if not isinstance(state.step, (int, np.integer)) or not 0 <= state.step <= n_steps:
        raise ConfigError(f"the state's step is {state.step!r}, but the config's horizon "
                          f"needs an integer in [0, {n_steps}]")
    shapes = [("u", np.shape(state.u), [(n_y,)]), ("p", np.shape(state.p), list(rows))]
    shapes += [(f"accumulator {key!r}", np.shape(getattr(state.accum, key)), [(n_y,)])
               for key in ("xi", "acc_d", "grad_sq")]
    shapes += [(f"series {f.key!r} at step {state.step}", np.shape(state.series[f.key]),
                [(f.length(state.step),) + ((n_y,) if f.per_y else ())]) for f in SERIES]
    for name, found, wanted in shapes:
        if found in wanted:
            continue
        if name == "p" and found in {path_rows(prob, c) for c in (False, True)}:
            # the closed form and --force-general share a fingerprint, so
            # only the shape of the density rows tells them apart
            raise ConfigError(
                f"the state holds {found[0]} density rows, this path {rows[0][0]}: "
                "resume the kinetic path with --force-general, the closed form without it")
        raise ConfigError(
            f"the state's {name} has shape {found}, but the config's grids "
            f"(n_y = {n_y}, n_sigma = {n_sigma}) need {' or '.join(map(str, wanted))}")


def barrier_deficits(prob: CoupledProblem, p0: np.ndarray, state: RunState,
                     d: np.ndarray) -> tuple[float, float, float]:
    """(t, max(barrier - p), max(barrier-induced D - d)) of a state with rows
    of a run from rows p0, d the D of its rows.

    The barrier is maxwell.sub_solution under the state's drift and
    accumulated D.  Both barrier checks read it, so it is built once.  Its
    D is compute_d's, the quadrature of the run's own D, so a barrier equal
    to the rows induces their D bit for bit.
    """
    grid = prob.sigma_grid
    t = prob.space_grid.time(state.step)
    barrier = sub_solution(p0, grid, t, state.accum.xi, state.accum.acc_d)
    return (t, float((barrier - state.p).max()),
            float((compute_d(barrier, grid, prob.dp.alpha) - d).max()))


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
        if not math.isfinite(change):  # inf would pass the convergence test, nan none
            raise SchemeInstabilityError(
                f"velocity iterate {len(changes) + 1} is not finite at t = {t_next:.6g}")
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
                        f"(ratio {change / changes[-2]:.3g}); reduce dt", tuple(changes))
            else:
                strikes = 0
    else:
        last = (f"ratio {changes[-1] / changes[-2]:.3g}" if len(changes) >= 2 and changes[-2] > 0
                else f"change {changes[-1]:.3g}")
        raise NonContractionError(
            f"fixed-point iteration did not converge in {prob.picard_max} "
            f"iterations at t = {t_next:.6g} (last {last}); reduce dt", tuple(changes))

    ratio = changes[1] / changes[0] if len(changes) >= 2 and changes[0] > 0 else math.nan
    return u_iter, b, kept, PicardStats(iterations=len(changes), ratio=ratio)


def coupled_step(u: np.ndarray, p: np.ndarray, t_next: float, prob: CoupledProblem,
                 d: np.ndarray) -> tuple[np.ndarray, np.ndarray, PicardStats,
                                         StepReport, np.ndarray, np.ndarray]:
    """One Picard-coupled macro step to t_next from velocity u and rows p,
    whose D is d.

    Returns the new velocity and rows, iteration stats, the meso step
    report, the loading field actually used, and the moments of the new
    rows (SigmaGrid.moments, taken once per iterate; tau is column 2).
    """
    grid, dp, dt = prob.sigma_grid, prob.dp, prob.space_grid.dt

    def kinetic(b):
        p_new, rep = advance_rows(p, b, dt, grid, dp.alpha, d=d)
        moments = grid.moments(p_new)
        return moments[:, 2], (p_new, rep, moments)

    u_new, b, (p_new, rep, moments), stats = _picard(u, kinetic, prob, t_next)
    return u_new, p_new, stats, rep, b, moments


class _Kinetic:
    """The general path: each step advances the density rows by coupled_step.

    The moments of each accepted state (SigmaGrid.moments) are taken once,
    with its last iterate: they give tau, the mass error, the banded moment
    and D, which feeds the next step's first sub-step, the observation, the
    snapshot and both ends of the acc_d trapezoid.  The velocity gradient of
    a step's end is reused at the next step's start.
    """

    def __init__(self, prob: CoupledProblem):
        self.prob = prob

    def _accept(self, moments: np.ndarray, k: int) -> np.ndarray:
        """Keep the moments of the state at step k, its D and its mass error;
        return its tau.  The mass guard: raise first if a row's |mass - 1| > MASS_TOL."""
        mass_err = np.abs(moments[:, 0] - 1.0)
        if (worst := float(mass_err.max())) > MASS_TOL:
            raise DiagnosticFailure(
                f"mass conservation failed at step {k}, row {int(mass_err.argmax())}: "
                f"|mass - 1| = {worst:.3e} > {MASS_TOL:.1e}")
        self.moments, self.d, self.mass_err = moments, self.prob.dp.alpha * moments[:, 1], worst
        return moments[:, 2]

    def start(self, state: RunState) -> np.ndarray:
        self.grad = velocity_gradient(state.u, self.prob.space_grid)
        return self._accept(self.prob.sigma_grid.moments(state.p), state.step)

    def step(self, state: RunState, k: int):
        prob, accum = self.prob, state.accum
        grid, dt, d_prev = prob.sigma_grid, prob.space_grid.dt, self.d
        u, p, b, moments, stats, rep, dxi = self._advance(state, k)
        tau = self._accept(moments, k + 1)
        state.u, state.p = u, p
        state.series["trunc"][k] = rep.trunc_moment
        accum.clipped_total += float(rep.clipped_mass.sum())
        accum.min_before_clip = min(accum.min_before_clip, rep.min_before_clip)
        accum.xi += dxi
        accum.acc_d += 0.5 * dt * (d_prev + self.d)
        accum.grad_sq += dt * compute_gradient_energy(state.p, grid)
        return b, tau, stats

    def _advance(self, state: RunState, k: int):
        """Advance u and the rows over step k, leaving the state as it is;
        return the new u and rows, the loading, the moments of the new rows,
        the Picard stats, the meso report and the step's growth of xi."""
        prob, sgrid = self.prob, self.prob.space_grid
        t_prev, t_next = sgrid.time(k), sgrid.time(k + 1)
        u, p, stats, rep, b, moments = coupled_step(state.u, state.p, t_next, prob, self.d)
        grad = velocity_gradient(u, sgrid)
        dxi = prob.dp.g0 * (0.5 * sgrid.dt * (self.grad + grad)
                            + (prob.protocol.integral(t_next) - prob.protocol.integral(t_prev)))
        self.grad = grad
        return u, p, b, moments, stats, rep, dxi

    def observe(self, state: RunState, k: int) -> np.ndarray:
        grid, series, p = self.prob.sigma_grid, state.series, state.p
        series["mass_err"][k] = self.mass_err
        series["inner"][k] = self.moments[:, 3]
        series["min_d"][k] = float(self.d.min())
        series["max_p"][k] = float(p.max())
        outer = float(grid.outermost_mass(p).max())
        if outer > TRUNCATION_TOL:
            state.accum.truncation_steps += 1
            if state.accum.truncation_steps == 1:
                state.warnings.append(
                    f"truncation monitor: outermost-cell mass {outer:.3e} exceeds "
                    f"{TRUNCATION_TOL:.1e} at t = {self.prob.space_grid.time(k):.6g}; "
                    "consider a larger sigma_max")
        return self.d


class _Prescribed(_Kinetic):
    """The kinetic path under the protocol read as a prescribed loading
    b(t): each step advances the rows by advance_rows with b frozen at the
    step's end, as one iterate; the velocity stays at rest."""

    def _advance(self, state: RunState, k: int):
        prob, sgrid, loading = self.prob, self.prob.space_grid, self.prob.protocol
        t_prev, t_next = sgrid.time(k), sgrid.time(k + 1)
        b = loading.value(t_next)
        p, rep = advance_rows(state.p, b, sgrid.dt, prob.sigma_grid, prob.dp.alpha, d=self.d)
        return (state.u, p, b, prob.sigma_grid.moments(p), PicardStats(1, math.nan), rep,
                loading.integral(t_next) - loading.integral(t_prev))


class _Relaxation:
    """The closed form: tau' = e^{-dt} tau + (1 - e^{-dt}) b per step
    (integrating factor, b frozen at the Picard iterate), tau read from the
    records.  Without a density, D = alpha and the density maximum is nan."""

    def __init__(self, prob: CoupledProblem):
        self.prob = prob

    def start(self, state: RunState) -> np.ndarray:
        dt = self.prob.space_grid.dt
        self.decay, self.gain = math.exp(-dt), -math.expm1(-dt)  # accurate for small dt
        self.d = np.full(state.u.size, self.prob.dp.alpha)
        return state.series["tau"][state.step]

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


def _integrate(prob: CoupledProblem, path, p0: np.ndarray, start: RunState,
               snap_every: int, checkpoint_every: int, checkpoint_sink,
               snapshot_sink, grade: bool) -> RunResult:
    """Step a path from start, a state of the run from rows p0, to the horizon;
    grade each snapshot by barrier_deficits when grade."""
    sgrid = prob.space_grid
    n_y, n_steps = sgrid.n_y, sgrid.n_steps
    check_state(start, prob, (path_rows(prob, closed_form=isinstance(path, _Relaxation)),))
    check_series_budget(sgrid, snap_every)
    p0 = p0.copy()
    series = _new_series(n_steps, n_y)
    state = replace(start.checkpoint(), series=series)
    for f in SERIES:
        series[f.key][:f.length(state.step)] = start.series[f.key]
    # a resumed run observes the steps after its start
    first = state.step + (state.step > 0)
    deficits = np.empty((snapshot_count(n_steps, snap_every, first), 3)) if grade else None
    graded = 0

    def _observe(k: int):
        nonlocal graded
        d = path.observe(state, k)
        if snap_every and (k % snap_every == 0 or k == n_steps):
            if grade:
                deficits[graded] = barrier_deficits(prob, p0, state, d)
                graded += 1
            if snapshot_sink is not None:
                snapshot_sink(state, d)

    try:
        tau = path.start(state)
        if state.step == 0:
            series["tau"][0] = tau
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
            if (checkpoint_every and checkpoint_sink is not None
                    and (k + 1) % checkpoint_every == 0):
                checkpoint_sink(state.checkpoint())
    except ArtifactIOError:
        raise  # the disk failed, not the state; a dump would fail the same way
    except HlCouetteError as exc:
        exc.state = state.checkpoint()
        raise

    return RunResult(**vars(state), problem=prob, p0=p0, deficits=deficits)


def _first_state(prob: CoupledProblem, u0: np.ndarray, p0: np.ndarray, **records) -> RunState:
    """Step 0 from velocity u0 and rows p0; the loop fills the records not given."""
    n_y = prob.space_grid.n_y
    return RunState(step=0, u=u0, p=p0, accum=Accumulators.zeros(n_y),
                    series={**_new_series(0, n_y), **records}, warnings=[])


def run(prob: CoupledProblem, init: InitialData, *,
        snap_every: int = 0, checkpoint_every: int = 0,
        checkpoint_sink=None, resume: RunState | None = None,
        snapshot_sink=None, grade: bool = True) -> RunResult:
    """Integrate the coupled system to the horizon on the kinetic path.

    snap_every / checkpoint_every are step counts (0 disables; snapshots
    always include t = 0 and the final time).  checkpoint_sink, when given,
    receives a RunState at every checkpoint step; its series are read-only
    views of this run's records, valid after the run ends.
    snapshot_sink, when given, is called as sink(state, d) at each
    snapshot, with the live state of its step and D of its rows: it must
    read what it keeps before it returns, since the run goes on in them.
    grade records the barrier deficits of each snapshot (RunResult.deficits),
    which are None without it.  resume is a RunState of this path to
    continue bit for bit; the run grades only the snapshots it takes.
    """
    return _integrate(prob, _Kinetic(prob), init.p0,
                      resume or _first_state(prob, init.u0, init.p0),
                      snap_every, checkpoint_every, checkpoint_sink, snapshot_sink, grade)


def run_maxwell(prob: CoupledProblem, tau0: np.ndarray, u0: np.ndarray,
                snap_every: int = 0, checkpoint_every: int = 0,
                checkpoint_sink=None, resume: RunState | None = None,
                snapshot_sink=None) -> RunResult:
    """Integrate the fully relaxing variant (linear coupled system).

    The per-node stress balance tau' + tau = b is integrated exactly per
    step with b frozen at the Picard iterate, inside the same backward-Euler
    fixed point as the general path.  The options are run's; the states
    hold no density rows (shape (0, n_sigma)), so none is graded (deficits None).
    """
    no_rows = np.zeros(path_rows(prob, closed_form=True))
    return _integrate(prob, _Relaxation(prob), no_rows,
                      resume or _first_state(prob, u0, no_rows, tau=tau0[None]),
                      snap_every, checkpoint_every, checkpoint_sink, snapshot_sink, False)


def run_prescribed(prob: CoupledProblem, p0: np.ndarray, *,
                   snapshot_sink=None) -> RunResult:
    """Integrate the rows p0, one per gap node, under the prescribed loading
    b(t) = prob.protocol, grading a snapshot of every state.

    This is the single-ensemble equation under a given shear rate that the
    coupled problem extends; the velocity stays at rest.  snapshot_sink is
    run's, called at every step since every state is a snapshot.
    """
    return _integrate(prob, _Prescribed(prob), p0,
                      _first_state(prob, np.zeros(prob.space_grid.n_y), p0), 1, 0, None,
                      snapshot_sink, True)
