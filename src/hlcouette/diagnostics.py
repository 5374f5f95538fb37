"""Run diagnostics: every a-priori bound the scheme is expected to honor.

Checks come in two flavors.  Hard checks (mass, positivity) guard exact
invariants of the update and fail outright when violated.  Soft checks
compare against analytical bounds that hold up to discretization slack;
they pass inside the stated slack, warn inside twice the slack, and fail
beyond that.

The comparison check rebuilds the explicit Gaussian sub-solution

    p_-(t, sigma) = exp(-t) * (p0 * G_nu)(sigma - xi(t)),  nu^2 = 2 int_0^t D ds

per row from the accumulated dissipation and drift, and requires the
computed density to dominate it up to O(d_sigma + dt).  The induced floor
check then re-derives the diffusivity lower bound from that sub-solution
instead of trusting the recorded minimum.  The run measures both deficits
of each snapshot when it takes it (coupler.barrier_deficits, on
maxwell.sub_solution, the decayed term of the fully relaxing closed form),
so no density row outlives its step; evaluate grades the recorded
deficits.  Both checks, and the comparison that verify_resume makes on a
restored state, grade their largest deficit alike (_grade_barrier).  A
checkpoint of either path is graded up to its step, once
coupler.check_state admits it; a checkpoint with rows is its one snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .coupler import (MASS_TOL, TRUNCATION_TOL, CoupledProblem, RunResult, RunState,
                      barrier_deficits, check_state, path_rows)
from .errors import DiagnosticFailure, ValidationError
from .grids import SpaceTimeGrid
from .initial import InitialData
from .macro import h1_norm_sq, heat_step, l2_norm
from .meso import compute_d

NEGATIVITY_FLOOR = -1e-12
CLIP_TOL = 1e-10
C_COMPARISON = 0.3    # comparison slack per unit (d_sigma + dt)
C_MOMENT = 1.0        # moment-identity residual per unit (dt + d_sigma)
D_FLOOR_REL_SLACK = 1e-3
SUP_REL_SLACK = 1e-6
GRADIENT_REL_SLACK = 1e-6
F2_SLACK = 1.05


@dataclass
class CheckResult:
    name: str
    status: str          # "pass", "warn", "fail"
    measured: float
    bound: float
    message: str

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass
class DiagnosticsReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]

    def format(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"{r.status.upper():4s} {r.name}: {r.message}")
        verdict = "all checks passed" if self.ok else \
            f"{len(self.failures)} check(s) FAILED"
        lines.append(verdict)
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            detail = "; ".join(f"{r.name}: {r.message}" for r in self.failures)
            raise DiagnosticFailure(f"diagnostics failed: {detail}")


def _soft(name: str, violation: float, slack: float, message: str) -> CheckResult:
    """Grade a soft check: violation <= slack passes, <= 2*slack warns."""
    if violation <= slack:
        status = "pass"
    elif violation <= 2.0 * slack:
        status = "warn"
    else:
        status = "fail"
    return CheckResult(name=name, status=status, measured=violation,
                       bound=slack, message=message)


def check_mass(result: RunResult) -> CheckResult:
    worst = float(result.series["mass_err"].max())
    step = int(result.series["mass_err"].argmax())
    ok = worst <= MASS_TOL
    return CheckResult(
        name="mass_conservation", status="pass" if ok else "fail",
        measured=worst, bound=MASS_TOL,
        message=f"max |row mass - 1| = {worst:.3e} at step {step} (tol {MASS_TOL:.1e})")


def check_positivity(result: RunResult) -> CheckResult:
    pre = result.accum.min_before_clip
    pre = 0.0 if not math.isfinite(pre) else min(pre, 0.0)
    clipped = result.accum.clipped_total
    ok = pre >= NEGATIVITY_FLOOR and clipped <= CLIP_TOL
    return CheckResult(
        name="positivity", status="pass" if ok else "fail",
        measured=min(pre, -clipped), bound=NEGATIVITY_FLOOR,
        message=(f"min pre-clip value = {pre:.3e} (floor {NEGATIVITY_FLOOR:.1e}), "
                 f"total clipped mass = {clipped:.3e} (tol {CLIP_TOL:.1e})"))


def check_sup_norm(result: RunResult) -> CheckResult:
    alpha = result.problem.dp.alpha
    bounds = np.array([linf_bound(result.p0_max, alpha, t) for t in result.times])
    excess = result.series["max_p"] - bounds
    k = int(excess.argmax())
    violation = float(excess[k])
    slack = SUP_REL_SLACK * (1.0 + float(bounds[k]))
    return _soft("sup_norm_growth", violation, slack,
                 f"max density excess over p0_max + sqrt(alpha t / pi) is "
                 f"{violation:.3e} at t = {result.times[k]:.4g} (slack {slack:.1e})")


def check_d_floor(result: RunResult) -> CheckResult:
    eta = result.eta
    floors = 0.5 * eta * np.exp(-result.times)
    deficit = floors - result.series["min_d"]
    k = int(deficit.argmax())
    violation = float(deficit[k])
    slack = D_FLOOR_REL_SLACK * eta if eta > 0 else D_FLOOR_REL_SLACK
    return _soft("diffusivity_floor", violation, slack,
                 f"max deficit below (eta/2) e^(-t) is {violation:.3e} "
                 f"at t = {result.times[k]:.4g} (slack {slack:.1e}, eta = {eta:.6g})")


Deficits = list[tuple[float, float]]  # (t, deficit) per density snapshot


def _grade_barrier(name: str, deficits: Deficits, slack: float, what: str) -> CheckResult:
    """Grade the largest deficit as `what`: the earliest one on ties, a NaN
    before any number."""
    if not deficits:
        return CheckResult(name, "pass", 0.0, slack,
                           "no density snapshots recorded; nothing to compare")
    t, worst = deficits[int(np.argmax([deficit for _, deficit in deficits]))]
    return _soft(name, worst, slack,
                 f"max ({what}) = {worst:.3e} at t = {t:.4g} (slack {slack:.1e})")


def moment_residuals(result: RunResult) -> np.ndarray:
    """Residual of the stress balance tau' + tau = b + banded moment,
    evaluated on the recorded series with backward differences.

    The balance is posed on the truncated stress interval, so the exactly
    metered moment flux through +-sigma_max enters as a known source; what
    remains measures genuine discretization error of the identity.
    """
    dt = result.problem.space_grid.dt
    s = result.series
    tau = s["tau"]
    r = ((tau[1:] - tau[:-1]) / dt + tau[1:]
         - s["b"] - s["inner"][1:] + s["trunc"] / dt)
    return r


def check_moment_identity(result: RunResult, c_mom: float = C_MOMENT) -> CheckResult:
    grid = result.problem.sigma_grid
    dt = result.problem.space_grid.dt
    r = moment_residuals(result)
    worst = float(np.abs(r).max()) if r.size else 0.0
    slack = c_mom * (dt + grid.d_sigma)
    return _soft("stress_moment_identity", worst, slack,
                 f"max |moment residual| = {worst:.3e} (slack {slack:.1e})")


def linf_bound(p0_max: float, alpha: float, t: float) -> float:
    """A-priori sup-norm bound max p <= max p0 + sqrt(alpha t / pi)."""
    return p0_max + math.sqrt(alpha * max(t, 0.0) / math.pi)


def gradient_energy_bound(p0_max: float, alpha: float, eta: float, t: float) -> float:
    """A-priori bound on int_0^t int |dsigma p|^2 dsigma ds (per row)."""
    if eta <= 0:
        return math.inf
    return (2.0 / eta) * math.exp(t) * (p0_max * (0.5 + t)
                                        + (alpha / math.sqrt(math.pi)) * t ** 1.5)


def check_gradient_bound(result: RunResult) -> CheckResult:
    t_final = result.problem.space_grid.t_final
    dp = result.problem.dp
    bound = gradient_energy_bound(result.p0_max, dp.alpha, result.eta, t_final)
    measured = float(result.accum.grad_sq.max())
    violation = measured - bound
    slack = GRADIENT_REL_SLACK * (1.0 + abs(bound)) if math.isfinite(bound) else math.inf
    msg = (f"max row gradient energy = {measured:.4g}, bound = {bound:.4g} "
           f"(slack {slack:.1e})")
    if not math.isfinite(bound):
        return CheckResult("gradient_energy", "warn", measured, bound,
                           msg + "; bound undefined for eta = 0")
    return _soft("gradient_energy", violation, slack, msg)


def check_truncation(result: RunResult) -> CheckResult:
    n_bad = result.accum.truncation_steps
    status = "pass" if n_bad == 0 else "warn"
    return CheckResult("stress_domain_truncation", status, float(n_bad),
                       TRUNCATION_TOL,
                       f"{n_bad} step(s) with outermost-cell mass above "
                       f"{TRUNCATION_TOL:.1e}")


def measure_f2_ratio(tau_series: np.ndarray, sgrid: SpaceTimeGrid,
                     rho: float, mu: float, t_upto: float) -> float:
    """Lipschitz quotient of the stress-to-velocity map on [0, t_upto].

    Drives the momentum equation from rest with the recorded stress and no
    wall forcing, then returns ||v||_{L2 H1} / sup_t ||tau||_{L2} with a
    right-endpoint Riemann sum in time.
    """
    n = int(round(t_upto / sgrid.dt))
    if not 0 < n <= sgrid.n_steps or abs(n * sgrid.dt - t_upto) > 1e-9 * max(1.0, t_upto):
        raise ValueError("t_upto must be a positive multiple of dt within the run")
    v = np.zeros(tau_series.shape[1])
    energy = 0.0
    sup = l2_norm(tau_series[0], sgrid)
    for k in range(n):
        v = heat_step(v, tau_series[k + 1], 0.0, rho, mu, sgrid.dt, sgrid)
        energy += sgrid.dt * h1_norm_sq(v, sgrid)
        sup = max(sup, l2_norm(tau_series[k + 1], sgrid))
    if sup == 0.0:
        return math.nan
    return math.sqrt(energy) / sup


def check_f2(result: RunResult) -> CheckResult:
    # no steps leave nothing to measure; mu = 0 leaves the bound undefined,
    # which warns as the gradient check does for eta = 0
    sgrid = result.problem.space_grid
    dp = result.problem.dp
    t = sgrid.t_final
    bound = 2.0 * math.sqrt(t) / dp.mu if dp.mu > 0 else math.inf
    if sgrid.n_steps == 0:
        return CheckResult("velocity_map_lipschitz", "pass", 0.0, bound,
                           "no steps; nothing to measure")
    ratio = measure_f2_ratio(result.series["tau"], sgrid, dp.rho, dp.mu, t)
    if math.isnan(ratio):
        return CheckResult("velocity_map_lipschitz", "pass", 0.0, bound,
                           "stress identically zero; map trivially bounded")
    msg = f"measured ratio {ratio:.4g} vs bound 2 sqrt(T)/mu = {bound:.4g}"
    if not math.isfinite(bound):
        return CheckResult("velocity_map_lipschitz", "warn", ratio, bound,
                           msg + "; bound undefined for mu = 0")
    return _soft("velocity_map_lipschitz", ratio - bound, (F2_SLACK - 1.0) * bound, msg)


GENERAL_CHECKS = ("mass", "positivity", "sup_norm", "d_floor", "comparison",
                  "induced_d_floor", "moment", "gradient", "truncation", "f2")
MAXWELL_CHECKS = ("f2",)
MESO_CHECKS = tuple(c for c in GENERAL_CHECKS if c != "f2")  # no velocity is solved


def evaluate(result: RunResult, checks: tuple[str, ...] | None = None,
             c_comp: float = C_COMPARISON, c_mom: float = C_MOMENT
             ) -> DiagnosticsReport:
    """Run the applicable checks for a finished run."""
    if checks is None:
        checks = GENERAL_CHECKS if result.kind == "general" else MAXWELL_CHECKS
    graded = result.deficits.tolist()  # (t, comparison, induced) per snapshot
    grid, dt = result.problem.sigma_grid, result.problem.space_grid.dt
    window = 2.0 * (grid.sigma_max - grid.threshold)
    dispatch = {
        "mass": lambda: check_mass(result),
        "positivity": lambda: check_positivity(result),
        "sup_norm": lambda: check_sup_norm(result),
        "d_floor": lambda: check_d_floor(result),
        "comparison": lambda: _grade_barrier(
            "comparison_barrier", [(t, c) for t, c, _ in graded],
            c_comp * (grid.d_sigma + dt), "barrier - p"),
        "induced_d_floor": lambda: _grade_barrier(
            "induced_diffusivity_floor", [(t, i) for t, _, i in graded],
            result.problem.dp.alpha * (window * c_comp * (grid.d_sigma + dt) + 1e-12),
            "barrier-induced D - recorded D"),
        "moment": lambda: check_moment_identity(result, c_mom),
        "gradient": lambda: check_gradient_bound(result),
        "truncation": lambda: check_truncation(result),
        "f2": lambda: check_f2(result),
    }
    report = DiagnosticsReport()
    for name in checks:
        report.results.append(dispatch[name]())
    return report


def result_from_checkpoint(prob: CoupledProblem, init: InitialData, eta: float,
                           state: RunState) -> RunResult:
    """Rebuild a result view from a checkpoint of either path so the full check
    battery can run on a stored state (horizon truncated at the checkpoint step)."""
    if not isinstance(state.step, (int, np.integer)) or state.step < 1:  # it sizes the horizon
        raise ValidationError(f"checkpoint step {state.step!r} is no completed step to diagnose")
    sg = prob.space_grid
    prob = replace(prob, space_grid=replace(sg, t_final=state.step * sg.dt))
    check_state(state, prob, (path_rows(prob, False), path_rows(prob, True)))
    graded = [barrier_deficits(prob, init.p0, state,
                               compute_d(state.p, prob.sigma_grid, prob.dp.alpha))
              ] if state.p.shape[0] else []
    return RunResult(**vars(state), problem=prob, eta=eta, p0=init.p0.copy(),
                     deficits=np.array(graded).reshape(-1, 3), row_records={})


def verify_resume(state: RunState, prob: CoupledProblem, p0: np.ndarray,
                  c_comp: float = C_COMPARISON) -> DiagnosticsReport:
    """Re-validate a restored state of the kinetic path of prob, a run from
    rows p0, before continuing it."""
    grid, dt = prob.sigma_grid, prob.space_grid.dt
    report = DiagnosticsReport()
    masses = grid.mass(state.p)
    worst = float(np.abs(masses - 1.0).max())
    report.results.append(CheckResult(
        "resume_mass", "pass" if worst <= MASS_TOL else "fail", worst, MASS_TOL,
        f"max |row mass - 1| = {worst:.3e}"))
    pmin = float(state.p.min())
    report.results.append(CheckResult(
        "resume_positivity", "pass" if pmin >= NEGATIVITY_FLOOR else "fail",
        pmin, NEGATIVITY_FLOOR, f"min restored value = {pmin:.3e}"))
    t0, comparison, _ = barrier_deficits(prob, p0, state,
                                         compute_d(state.p, grid, prob.dp.alpha))
    report.results.append(_grade_barrier(
        "resume_comparison", [(t0, comparison)], c_comp * (grid.d_sigma + dt), "barrier - p"))
    return report
